"""Desk-scale simulator of block-encoding algebra.

A BlockEncoding tracks (operator, subnormalization, error, ancilla
size) instead of gate sequences. `op` is the operator the simulated
device realizes; the encoded block is op/subnorm and `err` tracks the
distance between the encoded block and its mathematical target. Every
stage here is exact and adds nothing to `err`; the Chebyshev
interpolants a device would run instead, whose degrees
default_power_degree and default_inverse_degree give, are kept in the
tests (tests/reference.py). Composition rules follow fixed bookkeeping
formulas:

  product            subnorm multiplies, err = a1*e2 + a2*e1
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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimMismatch, IndexOutOfRange, SpectrumOutOfRange, SubnormTooSmall

_NORM_SLACK = 1e-9


def _as_operator(m) -> np.ndarray:
    arr = np.asarray(m)
    if arr.ndim != 1:
        raise DimMismatch(f"operator must be a 1-D diagonal, got ndim={arr.ndim}")
    if np.iscomplexobj(arr):
        raise SpectrumOutOfRange("diagonal entries must be real")
    return arr.astype(np.float64)


def _check_unit_norm(amps: np.ndarray) -> None:
    if abs(float(np.vdot(amps, amps).real) - 1.0) > 1e-12:
        raise ValueError("state vector is not unit norm")


def _operator_norm(op: np.ndarray) -> float:
    return float(np.max(np.abs(op))) if op.size else 0.0


@dataclass(frozen=True)
class BlockEncoding:
    """Simulated block encoding: encoded block is diag(op)/subnorm.

    op is the real diagonal as a 1-D float64 vector; any other shape is
    DimMismatch and a complex op is SpectrumOutOfRange. err is the
    accumulated deviation from the ideal target, which the composition
    rules carry and never decrease; every stage blockenc runs is exact
    and adds 0. ancilla_dim is pure bookkeeping of the |0> register size.
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
# composition rules
# --------------------------------------------------------------------------

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
    """The Chebyshev degree ceil(sqrt(kappa) * log(1/eps)) a device would
    need for x^c on [1/kappa, 1] to accuracy eps_target."""
    return max(1, math.ceil(math.sqrt(kappa) * math.log(1.0 / eps_target)))


def default_inverse_degree(kappa: float, eps_target: float) -> int:
    """The Chebyshev degree ceil(kappa * log(1/eps)) a device would need
    for 1/x on [1/kappa, 1] to accuracy eps_target."""
    return max(1, math.ceil(kappa * math.log(1.0 / eps_target)))


def be_power(b: BlockEncoding, c: float, kappa_m: float) -> BlockEncoding:
    """Fractional power of a nonnegative encoding.

    Encoded output is (encoded block)^c / 2; the 1/2 is realized as a
    doubling of the subnormalization, so op keeps its raw meaning
    (op^c). Nonzero encoded entries must lie in [1/kappa_m, 1]; exact
    zeros are preserved (the power acts on the support only). The power
    is exact, so err carries over unchanged; default_power_degree gives
    the degree of the interpolant a device would run instead.
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
    return BlockEncoding(op=np.where(support, np.abs(diag) ** c, 0.0),
                         subnorm=2.0 * b.subnorm ** c, err=b.err,
                         ancilla_dim=b.ancilla_dim * 2)


def be_invert(b: BlockEncoding, kappa_a: float) -> BlockEncoding:
    """Pseudoinverse encoding: encoded value pinv(encoded block)/kappa_a.

    Zero eigenvalues are preserved (pseudoinverse on the support).
    Nonzero encoded eigenvalues must lie within [1/kappa_a, 1] in
    magnitude. The inversion is exact, so err carries over unchanged;
    default_inverse_degree gives the degree of the interpolant a device
    would run instead.
    """
    if kappa_a < 1:
        raise ValueError(f"kappa_a must be >= 1, got {kappa_a}")
    diag = b.op
    encoded = diag / b.subnorm
    support = encoded != 0.0
    _check_window(np.abs(encoded[support]), 1.0 / kappa_a, 1.0, "be_invert spectrum")
    return BlockEncoding(op=np.where(support, 1.0 / np.where(support, diag, 1.0), 0.0),
                         subnorm=kappa_a / b.subnorm, err=b.err,
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
    if len(set(idx.tolist())) != idx.size:    # a set: np.unique costs 10x on a few indices
        raise IndexOutOfRange("support indices must be distinct")
    if idx.size and (int(idx.min()) < 0 or int(idx.max()) >= b.dim):
        raise IndexOutOfRange(f"support indices must lie in [0, {b.dim})")
    phi = np.asarray(amps, dtype=np.complex128).ravel()
    if phi.shape[0] != idx.size:
        raise DimMismatch(f"{phi.shape[0]} amplitudes for {idx.size} support indices")
    _check_unit_norm(phi)
    encoded = b.op[idx] / b.subnorm
    main = encoded * phi
    garbage = np.sqrt(np.maximum(1.0 - encoded ** 2, 0.0)) * phi
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
