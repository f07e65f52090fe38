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

Every operator either pipeline encodes is diagonal in the computational
basis, so `op` is a real 1-D vector and every rule acts entrywise. The
overlaps read the dilated unitary through its action on a state
(dilated_overlap, dilated_apply), never as a matrix. The tensor and
uniform-LCU rules that qpipeline.build_DP follows, the explicit dilation
and the full-vector overlap are kept in the tests (tests/reference.py),
as oracles.
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
    if arr.ndim != 1:
        raise DimMismatch(f"operator must be a 1-D diagonal, got ndim={arr.ndim}")
    if np.iscomplexobj(arr):
        raise SpectrumOutOfRange("diagonal entries must be real")
    return arr.astype(np.float64)


def _check_unit_norm(amps: np.ndarray) -> None:
    if abs(float(np.sum(np.abs(amps) ** 2)) - 1.0) > 1e-12:
        raise ValueError("state vector is not unit norm")


def _operator_norm(op: np.ndarray) -> float:
    return float(np.max(np.abs(op))) if op.size else 0.0


@dataclass(frozen=True)
class BlockEncoding:
    """Simulated block encoding: encoded block is diag(op)/subnorm.

    op is the real diagonal as a 1-D float64 vector; any other shape is
    DimMismatch and a complex op is SpectrumOutOfRange. err is the
    accumulated deviation from the ideal target: 0 for exact stages, and
    a sampled (not proven) sup error for each Chebyshev stage. It never
    decreases under composition. ancilla_dim is pure bookkeeping of the
    |0> register size.
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
    def encoded(self) -> np.ndarray:
        """The diagonal of the encoded block, op/subnorm."""
        return self.op / self.subnorm


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


def be_product(b1: BlockEncoding, b2: BlockEncoding) -> BlockEncoding:
    """Encoding of the operator product, entrywise on the diagonals."""
    if b1.dim != b2.dim:
        raise DimMismatch(f"dimension mismatch: {b1.dim} vs {b2.dim}")
    return BlockEncoding(
        op=b1.op * b2.op,
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
    """Fractional power of a nonnegative encoding.

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
    diag = b.op
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
    magnitude. Chebyshev mode approximates 1/x on the positive window and
    adds the encoded-block deviation, a sampled sup error and so an
    estimate rather than a bound, to err. degree None takes
    default_inverse_degree(kappa_a, 1e-6).
    """
    if kappa_a < 1:
        raise ValueError(f"kappa_a must be >= 1, got {kappa_a}")
    diag = b.op
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


# --------------------------------------------------------------------------
# overlaps with the dilated unitary
# --------------------------------------------------------------------------

def dilated_apply(b: BlockEncoding, phi: StateVector) -> StateVector:
    """Action of the dilated unitary on (|0>, |phi|): [A|phi>; garbage].

    The dilation [[A, sqrt(I-A^2)], [sqrt(I-A^2), -A]] of the diagonal
    A = b.encoded is applied entrywise, so the 2*dim unitary is never
    built and any dimension works.
    """
    if phi.dim != b.dim:
        raise DimMismatch(f"state dim {phi.dim} != encoding dim {b.dim}")
    encoded = b.encoded
    main = encoded * phi.amps
    garbage = np.sqrt(np.clip(1.0 - encoded ** 2, 0.0, None)) * phi.amps
    return StateVector(np.concatenate([main, garbage]))


def dilated_overlap(b: BlockEncoding, support: Sequence[int], amps,
                    shots: int | None = None, seed=None) -> float:
    """Re<(phi, 0)| U_b |(phi, 0)> for a state phi living on `support`.

    phi has amplitude amps[k] at index support[k] and zero elsewhere;
    U_b is the dilated unitary of b. Only the entries b.op[support] are
    read, so the cost is O(len(support)) at any dimension. With shots,
    the value is replaced by the mean of `shots` Hadamard-test draws,
    deterministic under a fixed seed. The tests check it against the
    overlap of the embedded phi with dilated_apply(b, phi), which dilates
    the whole vector.
    """
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
    encoded = b.op[idx] / b.subnorm
    main = encoded * phi
    garbage = np.sqrt(np.clip(1.0 - encoded ** 2, 0.0, None)) * phi
    _check_unit_norm(np.concatenate([main, garbage]))
    return _hadamard_test(float(np.vdot(phi, main).real), shots, seed)


def _hadamard_test(value: float, shots: int | None, seed) -> float:
    """value itself, or its seeded Hadamard-test estimate: the mean of
    `shots` Bernoulli draws with success probability (1 + value)/2,
    mapped back to [-1, 1]."""
    if shots is None:
        return value
    if shots < 1:
        raise ValueError("shots must be a positive integer")
    rng = np.random.default_rng(seed)
    prob = min(1.0, max(0.0, (1.0 + value) / 2.0))
    successes = int(rng.binomial(shots, prob))
    return 2.0 * successes / shots - 1.0
