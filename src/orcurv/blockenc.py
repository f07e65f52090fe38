"""Desk-scale simulator of block-encoding algebra.

A BlockEncoding tracks (operator, subnormalization, ancilla size)
instead of gate sequences. `op` is the operator the simulated device
realizes; the encoded block is op/subnorm. Every stage here is exact, so
the encoded block is its mathematical target; the Chebyshev interpolants
a device would run instead, whose degrees default_power_degree and
default_inverse_degree give, are kept in the tests (tests/reference.py)
with the error bookkeeping they need. Composition rules follow fixed
bookkeeping formulas:

  product            subnorm multiplies, ancilla sizes multiply
  fractional power   encoded value A^c/2 (the 1/2 becomes subnorm doubling)
  inversion          encoded value pinv(A)/kappa

Every operator either pipeline encodes is diagonal in the computational
basis, so `op` is a real 1-D vector and every rule acts entrywise. The
overlaps read the dilated unitary through its action on a state
(dilated_overlap, dilated_apply), never as a matrix. dilated_overlap
takes one amplitude per entry, so a stage encodes just the entries its
state touches. Both records are `graph._Frozen` ones. The tensor and
uniform-LCU rules that qpipeline.build_DP follows, the explicit dilation
and the full-vector overlap are kept in the tests (tests/reference.py),
as oracles.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimMismatch, SpectrumOutOfRange, SubnormTooSmall
from .graph import _Frozen

_NORM_SLACK = 1e-9


def _check_unit_norm(amps: np.ndarray) -> None:
    if abs(float(np.vdot(amps, amps).real) - 1.0) > 1e-12:
        raise ValueError("state vector is not unit norm")


class BlockEncoding(_Frozen):
    """Simulated block encoding: encoded block is diag(op)/subnorm.

    op is the real diagonal as a 1-D float64 vector; any other shape is
    DimMismatch and a complex op is SpectrumOutOfRange. Every stage
    blockenc runs is exact, so the encoded block is the ideal target.
    ancilla_dim is pure bookkeeping of the |0> register size.
    """

    op: np.ndarray
    subnorm: float
    ancilla_dim: int

    def __init__(self, op, subnorm: float, ancilla_dim: int = 2) -> None:
        op = np.asarray(op)
        if op.ndim != 1:
            raise DimMismatch(f"operator must be a 1-D diagonal, got ndim={op.ndim}")
        if np.iscomplexobj(op):
            raise SpectrumOutOfRange("diagonal entries must be real")
        op, subnorm = op.astype(np.float64), float(subnorm)
        if subnorm <= 0:
            raise SubnormTooSmall(f"subnorm must be positive, got {subnorm}")
        if ancilla_dim < 1:
            raise ValueError("ancilla_dim must be a positive integer")
        norm = float(np.max(np.abs(op))) if op.size else 0.0
        if norm > subnorm * (1 + _NORM_SLACK):
            raise SubnormTooSmall(f"operator norm {norm} exceeds subnorm {subnorm}")
        self._freeze(op=op, subnorm=subnorm, ancilla_dim=ancilla_dim)

    @property
    def dim(self) -> int:
        return self.op.shape[0]

    @property
    def encoded(self) -> np.ndarray:
        """The diagonal of the encoded block, op/subnorm."""
        return self.op / self.subnorm


class StateVector(_Frozen):
    """Unit-norm complex amplitude vector."""

    amps: np.ndarray

    def __init__(self, amps) -> None:
        amps = np.asarray(amps, dtype=np.complex128).ravel()
        _check_unit_norm(amps)
        self._freeze(amps=amps)

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
    is exact; default_power_degree gives the degree of the interpolant a
    device would run instead.
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
                         subnorm=2.0 * b.subnorm ** c,
                         ancilla_dim=b.ancilla_dim * 2)


def be_invert(b: BlockEncoding, kappa_a: float) -> BlockEncoding:
    """Pseudoinverse encoding: encoded value pinv(encoded block)/kappa_a.

    Zero eigenvalues are preserved (pseudoinverse on the support).
    Nonzero encoded eigenvalues must lie within [1/kappa_a, 1] in
    magnitude. The inversion is exact; default_inverse_degree gives the
    degree of the interpolant a device would run instead.
    """
    if kappa_a < 1:
        raise ValueError(f"kappa_a must be >= 1, got {kappa_a}")
    diag = b.op
    encoded = diag / b.subnorm
    support = encoded != 0.0
    _check_window(np.abs(encoded[support]), 1.0 / kappa_a, 1.0, "be_invert spectrum")
    return BlockEncoding(op=np.where(support, 1.0 / np.where(support, diag, 1.0), 0.0),
                         subnorm=kappa_a / b.subnorm,
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


def dilated_overlap(b: BlockEncoding, amps, shots: int | None = None, seed=None) -> float:
    """Re<(phi, 0)| U_b |(phi, 0)> for the state phi = amps, one amplitude
    per entry of b.

    U_b is the dilated unitary of b, applied entrywise, so the cost is
    O(b.dim). A caller encodes only the entries its state touches. With
    shots, the value is replaced by the mean of `shots` Hadamard-test
    draws, deterministic under a fixed seed. The tests check it against
    the overlap of the embedded phi with dilated_apply(b, phi).
    """
    phi = np.asarray(amps, dtype=np.complex128).ravel()
    if phi.shape[0] != b.dim:
        raise DimMismatch(f"{phi.shape[0]} amplitudes for an encoding of dim {b.dim}")
    _check_unit_norm(phi)
    # BlockEncoding admits entries up to 1 + _NORM_SLACK in magnitude, so
    # the dilation clips them to [-1, 1]
    encoded = np.clip(b.encoded, -1.0, 1.0)
    main = encoded * phi
    garbage = np.sqrt(1.0 - encoded ** 2) * phi
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
