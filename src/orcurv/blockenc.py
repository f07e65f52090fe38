"""Desk-scale simulator of block-encoding algebra.

A BlockEncoding tracks (operator, subnormalization, error, ancilla
size) instead of gate sequences. `op` is the operator the simulated
device actually realizes (for polynomial modes that is the polynomial
image, not the ideal target); the encoded block is op/subnorm and `err`
tracks the distance between the encoded block and its mathematical
target. Exact stages add nothing to `err`; a Chebyshev stage adds the
sup error of its interpolant sampled on a grid (_chebyshev_approx), so
in Chebyshev mode `err` is an estimate, not a proven bound. Composition
rules follow fixed bookkeeping formulas:

  product            subnorm multiplies, err = a1*e2 + a2*e1
  scaling            subnorm multiplied by the factor
  fractional power   encoded value A^c/2 (the 1/2 becomes subnorm doubling)
  inversion          encoded value pinv(A)/kappa

The tensor and uniform-LCU rules that qpipeline.build_DP follows are
kept in the tests (tests/reference.py), as build_DP's oracle.

Diagonal operators are stored as 1-D vectors and all compositions keep
diagonality; the dense path (and the explicit unitary dilation) exists
for verification at small dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import (
    BadFactor,
    DimMismatch,
    IndexOutOfRange,
    InexactEncoding,
    NotDiagonal,
    SpectrumOutOfRange,
    SubnormTooSmall,
    TooLarge,
)

_NORM_SLACK = 1e-9
_MAX_POLY_DEGREE = 5000
#: accuracy the default Chebyshev degree rules aim at
_EPS_TARGET = 1e-6


def _as_operator(m) -> np.ndarray:
    arr = np.asarray(m)
    if arr.ndim == 1:
        return arr.astype(np.complex128) if np.iscomplexobj(arr) else arr.astype(np.float64)
    if arr.ndim == 2:
        if arr.shape[0] != arr.shape[1]:
            raise DimMismatch(f"operator must be square, got {arr.shape}")
        return arr.astype(np.complex128)
    raise DimMismatch(f"operator must be 1-D (diagonal) or 2-D, got ndim={arr.ndim}")


def _check_unit_norm(amps: np.ndarray) -> None:
    if abs(float(np.sum(np.abs(amps) ** 2)) - 1.0) > 1e-12:
        raise ValueError("state vector is not unit norm")


def _operator_norm(op: np.ndarray) -> float:
    if op.ndim == 1:
        return float(np.max(np.abs(op))) if op.size else 0.0
    return float(np.linalg.norm(op, 2))


@dataclass(frozen=True)
class BlockEncoding:
    """Simulated block encoding: encoded block is op/subnorm.

    op with ndim == 1 is the diagonal-vector representation; ndim == 2 is
    dense. err is the accumulated deviation from the ideal target: 0 for
    exact stages, and a sampled (not proven) sup error for each Chebyshev
    stage. It never decreases under composition. ancilla_dim is pure
    bookkeeping of the |0> register size.
    """

    op: np.ndarray
    subnorm: float
    err: float = 0.0
    ancilla_dim: int = 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "op", _as_operator(self.op))
        object.__setattr__(self, "subnorm", float(self.subnorm))
        object.__setattr__(self, "err", float(self.err))
        if self.subnorm <= 0:
            raise SubnormTooSmall(f"subnorm must be positive, got {self.subnorm}")
        if self.err < 0:
            raise ValueError("err must be nonnegative")
        if self.ancilla_dim < 1:
            raise ValueError("ancilla_dim must be a positive integer")
        norm = _operator_norm(self.op)
        if norm > self.subnorm * (1 + _NORM_SLACK):
            raise SubnormTooSmall(
                f"operator norm {norm} exceeds subnorm {self.subnorm}")

    @property
    def dim(self) -> int:
        return self.op.shape[0]

    @property
    def is_diagonal(self) -> bool:
        return self.op.ndim == 1

    @property
    def encoded(self) -> np.ndarray:
        """The encoded block op/subnorm, in the stored representation."""
        return self.op / self.subnorm

    def to_dense(self) -> np.ndarray:
        return np.diag(self.op) if self.is_diagonal else self.op

    def encoded_dense(self) -> np.ndarray:
        return self.to_dense() / self.subnorm


@dataclass(frozen=True)
class StateVector:
    """Unit-norm complex amplitude vector."""

    amps: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.amps, dtype=np.complex128).ravel()
        object.__setattr__(self, "amps", arr)
        _check_unit_norm(arr)

    @property
    def dim(self) -> int:
        return self.amps.shape[0]

    @classmethod
    def basis(cls, dim: int, index: int) -> "StateVector":
        amps = np.zeros(dim, dtype=np.complex128)
        amps[index] = 1.0
        return cls(amps)

    @classmethod
    def uniform(cls, dim: int, support: Sequence[int]) -> "StateVector":
        amps = np.zeros(dim, dtype=np.complex128)
        amps[list(support)] = 1.0 / math.sqrt(len(support))
        return cls(amps)

    @classmethod
    def normalized(cls, raw) -> "StateVector":
        arr = np.asarray(raw, dtype=np.complex128).ravel()
        norm = float(np.linalg.norm(arr))
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(arr / norm)


# --------------------------------------------------------------------------
# constructors and composition rules
# --------------------------------------------------------------------------

def be_wrap(m, subnorm: float) -> BlockEncoding:
    """Exact encoding of m at the declared subnormalization (err = 0)."""
    op = _as_operator(m)
    norm = _operator_norm(op)
    if float(subnorm) < norm * (1 - _NORM_SLACK):
        raise SubnormTooSmall(f"subnorm {subnorm} < operator norm {norm}")
    return BlockEncoding(op=op, subnorm=max(float(subnorm), norm), err=0.0)


def _binary_op_arrays(b1: BlockEncoding, b2: BlockEncoding):
    if b1.dim != b2.dim:
        raise DimMismatch(f"dimension mismatch: {b1.dim} vs {b2.dim}")
    if b1.is_diagonal and b2.is_diagonal:
        return b1.op, b2.op, True
    return b1.to_dense(), b2.to_dense(), False


def be_product(b1: BlockEncoding, b2: BlockEncoding) -> BlockEncoding:
    """Encoding of the operator product b1.op @ b2.op."""
    a1, a2, diag = _binary_op_arrays(b1, b2)
    op = a1 * a2 if diag else a1 @ a2
    return BlockEncoding(
        op=op,
        subnorm=b1.subnorm * b2.subnorm,
        err=b1.subnorm * b2.err + b2.subnorm * b1.err,
        ancilla_dim=b1.ancilla_dim * b2.ancilla_dim,
    )


def be_scale(b: BlockEncoding, factor: float) -> BlockEncoding:
    """Encoding of the same operator divided by factor > 1."""
    if not factor > 1:
        raise BadFactor(f"scale factor must be > 1, got {factor}")
    return replace(b, subnorm=b.subnorm * float(factor),
                   ancilla_dim=b.ancilla_dim * 2)


# --------------------------------------------------------------------------
# spectral functions on diagonal encodings
# --------------------------------------------------------------------------

def _real_entries(values: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(values):
        if np.max(np.abs(values.imag)) > 1e-12:
            raise SpectrumOutOfRange("diagonal entries must be real")
        return values.real.astype(np.float64)
    return values.astype(np.float64)


def _real_diagonal(b: BlockEncoding) -> np.ndarray:
    if not b.is_diagonal:
        raise NotDiagonal("operation restricted to diagonal encodings")
    return _real_entries(b.op)


def _check_window(values: np.ndarray, lo: float, hi: float, what: str) -> None:
    if values.size == 0:
        return
    if float(np.min(values)) < lo * (1 - _NORM_SLACK) or \
            float(np.max(values)) > hi * (1 + _NORM_SLACK):
        raise SpectrumOutOfRange(
            f"{what}: entries span [{np.min(values)}, {np.max(values)}], "
            f"expected [{lo}, {hi}]")


def default_power_degree(kappa: float, eps_target: float) -> int:
    """Default Chebyshev degree ceil(sqrt(kappa) * log(1/eps))."""
    return max(1, math.ceil(math.sqrt(kappa) * math.log(1.0 / eps_target)))


def default_inverse_degree(kappa: float, eps_target: float) -> int:
    """Default Chebyshev degree ceil(kappa * log(1/eps)) for 1/x."""
    return max(1, math.ceil(kappa * math.log(1.0 / eps_target)))


def _chebyshev_approx(fn, lo: float, hi: float, degree: int):
    """Chebyshev interpolant of fn on [lo, hi] plus a sampled sup error."""
    if degree > _MAX_POLY_DEGREE:
        raise TooLarge(
            f"polynomial degree {degree} exceeds cap {_MAX_POLY_DEGREE}; "
            "use exact mode or a smaller condition number")
    poly = np.polynomial.chebyshev.Chebyshev.interpolate(fn, degree, domain=[lo, hi])
    n_samples = max(4096, 8 * degree)
    grid = np.linspace(lo, hi, n_samples)
    cheb_nodes = lo + (hi - lo) * 0.5 * (1 + np.cos(np.linspace(0, np.pi, n_samples)))
    xs = np.concatenate([grid, cheb_nodes])
    sup = float(np.max(np.abs(poly(xs) - fn(xs))))
    return poly, sup * (1 + 1e-9) + 1e-16


def be_power(b: BlockEncoding, c: float, kappa_m: float,
             mode: str = "exact", degree: int | None = None) -> BlockEncoding:
    """Fractional power of a nonnegative diagonal encoding.

    Encoded output is (encoded block)^c / 2; the 1/2 is realized as a
    doubling of the subnormalization, so op keeps its raw meaning
    (op^c). Nonzero encoded entries must lie in [1/kappa_m, 1]; exact
    zeros are preserved (the power acts on the support only). Chebyshev
    mode applies a degree-d interpolant of x^c on [1/kappa_m, 1] and adds
    its sup-norm error, sampled on a grid and so an estimate rather than
    a bound, to err. degree None takes default_power_degree(kappa_m, 1e-6).
    """
    if not 0 < c < 1:
        raise ValueError(f"exponent must be in (0, 1), got {c}")
    if kappa_m < 1:
        raise ValueError(f"kappa_m must be >= 1, got {kappa_m}")
    diag = _real_diagonal(b)
    if float(np.min(diag)) < -1e-12 * b.subnorm:
        raise SpectrumOutOfRange("fractional power needs a nonnegative diagonal")
    encoded = diag / b.subnorm
    support = encoded != 0.0
    _check_window(encoded[support], 1.0 / kappa_m, 1.0, "be_power spectrum")
    new_subnorm = 2.0 * b.subnorm ** c
    new_err = b.err
    if mode == "exact":
        new_op = np.where(support, np.abs(diag) ** c, 0.0)
    elif mode == "chebyshev":
        if degree is None:
            degree = default_power_degree(kappa_m, _EPS_TARGET)
        poly, sup = _chebyshev_approx(lambda x: x ** c, 1.0 / kappa_m, 1.0, degree)
        new_op = np.where(support, poly(encoded) * b.subnorm ** c, 0.0)
        new_err = b.err + sup
    else:
        raise ValueError(f"unknown power mode {mode!r}")
    return BlockEncoding(op=new_op, subnorm=new_subnorm, err=new_err,
                         ancilla_dim=b.ancilla_dim * 2)


def be_invert(b: BlockEncoding, kappa_a: float,
              mode: str = "exact", degree: int | None = None) -> BlockEncoding:
    """Pseudoinverse encoding: encoded value pinv(encoded block)/kappa_a.

    Zero eigenvalues are preserved (pseudoinverse on the support).
    Nonzero encoded eigenvalues must lie within [1/kappa_a, 1] in
    magnitude. Chebyshev mode (diagonal only) approximates 1/x on the
    positive window and adds the encoded-block deviation, a sampled sup
    error and so an estimate rather than a bound, to err. degree None
    takes default_inverse_degree(kappa_a, 1e-6).
    """
    if kappa_a < 1:
        raise ValueError(f"kappa_a must be >= 1, got {kappa_a}")
    if b.is_diagonal:
        diag = _real_diagonal(b)
        encoded = diag / b.subnorm
        support = encoded != 0.0
        _check_window(np.abs(encoded[support]), 1.0 / kappa_a, 1.0, "be_invert spectrum")
        new_subnorm = kappa_a / b.subnorm
        if mode == "exact":
            new_op = np.where(support, 1.0 / np.where(support, diag, 1.0), 0.0)
            new_err = b.err
        elif mode == "chebyshev":
            if float(np.min(encoded)) < 0:
                raise SpectrumOutOfRange("chebyshev inversion needs a nonnegative diagonal")
            if degree is None:
                degree = default_inverse_degree(kappa_a, _EPS_TARGET)
            poly, sup = _chebyshev_approx(lambda x: 1.0 / x, 1.0 / kappa_a, 1.0, degree)
            new_op = np.where(support, poly(encoded) / kappa_a * new_subnorm, 0.0)
            new_err = b.err + sup / kappa_a
        else:
            raise ValueError(f"unknown inversion mode {mode!r}")
        return BlockEncoding(op=new_op, subnorm=new_subnorm, err=new_err,
                             ancilla_dim=b.ancilla_dim * 2)
    if mode != "exact":
        raise NotDiagonal("chebyshev inversion restricted to diagonal encodings")
    dense = b.to_dense()
    encoded = dense / b.subnorm
    sing = np.linalg.svd(encoded, compute_uv=False)
    nonzero = sing[sing > 1e-14]
    _check_window(nonzero, 1.0 / kappa_a, 1.0, "be_invert spectrum")
    pinv = np.linalg.pinv(dense, rcond=1e-14)
    return BlockEncoding(op=pinv, subnorm=kappa_a / b.subnorm, err=b.err,
                         ancilla_dim=b.ancilla_dim * 2)


# --------------------------------------------------------------------------
# dilation and overlaps
# --------------------------------------------------------------------------

def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh((m + m.conj().T) / 2)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def be_dilate(b: BlockEncoding) -> np.ndarray:
    """Explicit unitary of dimension 2*dim whose top-left block encodes b.

    Standard contraction dilation [[A, sqrt(I-AA*)], [sqrt(I-A*A), -A*]];
    requires err = 0 and dim <= 64.
    """
    if b.err != 0.0:
        raise InexactEncoding("dilation requires an exact encoding (err = 0)")
    if b.dim > 64:
        raise TooLarge(f"dilation capped at dim <= 64, got {b.dim}")
    a = b.encoded_dense().astype(np.complex128)
    eye = np.eye(b.dim)
    s1 = _psd_sqrt(eye - a @ a.conj().T)
    s2 = _psd_sqrt(eye - a.conj().T @ a)
    top = np.hstack([a, s1])
    bottom = np.hstack([s2, -a.conj().T])
    return np.vstack([top, bottom])


def dilated_apply(b: BlockEncoding, phi: StateVector) -> StateVector:
    """Action of the dilated unitary on (|0>, |phi|): [A|phi>; garbage].

    For diagonal encodings this avoids materializing the 2*dim unitary,
    so it works at any dimension; dense encodings go through be_dilate.
    """
    if phi.dim != b.dim:
        raise DimMismatch(f"state dim {phi.dim} != encoding dim {b.dim}")
    if b.is_diagonal:
        encoded = _real_diagonal(b) / b.subnorm
        main = encoded * phi.amps
        garbage = np.sqrt(np.clip(1.0 - encoded ** 2, 0.0, None)) * phi.amps
        return StateVector(np.concatenate([main, garbage]))
    u = be_dilate(b)
    vec = np.concatenate([phi.amps, np.zeros(b.dim, dtype=np.complex128)])
    return StateVector(u @ vec)


def dilated_overlap(b: BlockEncoding, support: Sequence[int], amps,
                    shots: int | None = None, seed=None) -> float:
    """Re<(phi, 0)| U_b |(phi, 0)> for a state phi living on `support`.

    phi has amplitude amps[k] at index support[k] and zero elsewhere;
    U_b is the dilated unitary of the diagonal encoding b. Only the
    entries b.op[support] are read, so the cost is O(len(support)) at
    any dimension. Agrees with overlap(embedded phi, dilated_apply(b,
    phi)), the full-vector route kept for verification, and emulates
    shots through the same seeded Hadamard-test draw.
    """
    if not b.is_diagonal:
        raise NotDiagonal("support-only overlap restricted to diagonal encodings")
    idx = np.asarray(support)
    if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
        raise IndexOutOfRange("support must be a flat sequence of integer indices")
    idx = idx.astype(np.intp)
    if np.unique(idx).size != idx.size:
        raise IndexOutOfRange("support indices must be distinct")
    if idx.size and (int(idx.min()) < 0 or int(idx.max()) >= b.dim):
        raise IndexOutOfRange(f"support indices must lie in [0, {b.dim})")
    phi = np.asarray(amps, dtype=np.complex128).ravel()
    if phi.shape[0] != idx.size:
        raise DimMismatch(f"{phi.shape[0]} amplitudes for {idx.size} support indices")
    _check_unit_norm(phi)
    encoded = _real_entries(b.op[idx]) / b.subnorm
    main = encoded * phi
    garbage = np.sqrt(np.clip(1.0 - encoded ** 2, 0.0, None)) * phi
    _check_unit_norm(np.concatenate([main, garbage]))
    return _hadamard_test(float(np.real(np.vdot(phi, main))), shots, seed)


def overlap(a: StateVector, b: StateVector, shots: int | None = None,
            seed=None) -> float:
    """Re<a|b>, exactly or through a Hadamard-test shot emulation.

    With shots, the estimate is the mean of `shots` Bernoulli draws with
    success probability (1 + Re<a|b>)/2, mapped back to [-1, 1];
    deterministic under a fixed seed.
    """
    if a.dim != b.dim:
        raise DimMismatch(f"state dims differ: {a.dim} vs {b.dim}")
    return _hadamard_test(float(np.real(np.vdot(a.amps, b.amps))), shots, seed)


def _hadamard_test(value: float, shots: int | None, seed) -> float:
    """value itself, or its seeded Hadamard-test estimate from `shots` draws."""
    if shots is None:
        return value
    if shots < 1:
        raise ValueError("shots must be a positive integer")
    rng = np.random.default_rng(seed)
    prob = min(1.0, max(0.0, (1.0 + value) / 2.0))
    successes = int(rng.binomial(shots, prob))
    return 2.0 * successes / shots - 1.0
