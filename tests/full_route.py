"""The full-length p = q route, kept as the oracle of the p! support route.

The pipeline in `orcurv.qpipeline` builds D_P, the projector, their
product and its pseudoinverse on the p! permutation indices only. The
functions here build the same stages as length-p^p vectors, the way the
simulated device's dimension describes them: a broadcast sum over the
(p,)*p grid, a 0/1 mask from a digit sort, and a purified-state route to
the projector. Tests compare the two routes entry by entry.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from orcurv import blockenc as bk
from orcurv.blockenc import BlockEncoding, StateVector
from orcurv.errors import DimensionCap, DimMismatch, NotSquare, SizeMismatch
from orcurv.qpipeline import (
    DEFAULT_DIM_CAP,
    AuditTrail,
    _permutations,
    extract_Di,
    localize_DG,
    min_eigen_power,
)
from orcurv.transport import CurvatureResult
from reference import ApproxEncoding, DigitOutOfRange, be_density, err_of


def perm_index(digits: Sequence[int], p: int) -> int:
    """Zero-based diagonal index of the digit tuple (i_1, ..., i_p).

    k0 = sum_j (i_j - 1) * p^(p-j); bijective with one-based digit
    tuples over [1, p]^p.
    """
    if len(digits) != p:
        raise DigitOutOfRange(f"expected {p} digits, got {len(digits)}")
    k = 0
    for d in digits:
        if not 1 <= d <= p:
            raise DigitOutOfRange(f"digit {d} outside [1, {p}]")
        k = k * p + (d - 1)
    return k


def permutation_indices(p: int) -> np.ndarray:
    """Zero-based indices into the (p,)*p grid of the permutation digit
    tuples, in the pipeline's _permutations order, which sorts them
    ascending: the p^p positions of the p! support entries."""
    return _permutations(p) @ p ** np.arange(p - 1, -1, -1)


def distinct_digit_mask(p: int) -> np.ndarray:
    """Boolean mask over the p^p indices whose p digits are all distinct."""
    idx = np.arange(p ** p)
    powers = p ** np.arange(p - 1, -1, -1)
    digits = (idx[:, None] // powers) % p
    sorted_digits = np.sort(digits, axis=1)
    if p == 1:
        return np.ones(1, dtype=bool)
    return np.all(np.diff(sorted_digits, axis=1) != 0, axis=1)


def build_dp_full(ds: Sequence[BlockEncoding], dim_cap: int = DEFAULT_DIM_CAP,
                  audit: AuditTrail | None = None) -> BlockEncoding:
    """Tensor sum D_P over all p^p entries, encoded as D_P / (p * alpha_q).

    A broadcast sum of d_i / a_i along axis i of a (p,)*p grid, added in
    LCU order and scaled by a = ds[0].subnorm; subnorm, err and
    ancilla_dim by the be_tensor / be_lcu formulas.
    """
    p = len(ds)
    if p < 1:
        raise SizeMismatch("need at least one column encoding")
    if any(b.dim != p for b in ds):
        raise DimMismatch("each D_i must have dimension p = len(ds)")
    if p ** p > dim_cap:
        raise DimensionCap(f"p^p = {p ** p} exceeds cap {dim_cap}")
    if p == 1:
        out = ds[0]
        if audit is not None:
            audit.record("build_DP", out)
        return out
    acc = np.zeros((p,) * p)
    for i, d_i in enumerate(ds):
        acc = acc + (d_i.op / d_i.subnorm).reshape((1,) * i + (p,) + (1,) * (p - 1 - i))
    a = ds[0].subnorm
    out = ApproxEncoding(op=acc.ravel() * a, subnorm=p * a,
                         err=sum(err_of(b) / b.subnorm for b in ds),
                         ancilla_dim=p * math.prod(b.ancilla_dim for b in ds) * 4 ** (p - 1))
    if audit is not None:
        audit.record("build_DP", out)
    return out


def build_pi_full(p: int, route: str = "direct", dim_cap: int = DEFAULT_DIM_CAP,
                  audit: AuditTrail | None = None) -> BlockEncoding:
    """Projector onto all-distinct digit tuples over p^p, encoded as Pi / p!.

    The direct route wraps the 0/1 diagonal at subnorm p!; the purified
    route prepares the uniform copy state over the p! permutation
    indices and takes its reduced density matrix, which equals the
    direct route.
    """
    if p < 1:
        raise SizeMismatch("p must be >= 1")
    if p ** p > dim_cap:
        raise DimensionCap(f"p^p = {p ** p} exceeds cap {dim_cap}")
    mask = distinct_digit_mask(p)
    if route == "direct":
        out = BlockEncoding(op=mask.astype(np.float64),
                            subnorm=float(math.factorial(p)))
    elif route == "purified":
        if p > 4:
            raise DimensionCap("purified route capped at p <= 4")
        dim = p ** p
        support = np.flatnonzero(mask)
        amps = np.zeros(dim * dim)
        amps[support * dim + support] = 1.0 / math.sqrt(len(support))
        out = be_density(StateVector(amps), dim_a=dim, dim_b=dim)
    else:
        raise ValueError(f"unknown projector route {route!r}")
    if audit is not None:
        audit.record(f"build_Pi[{route}]", out, rank=int(np.count_nonzero(mask)))
    return out


def w1_pq_qsim_full(nb, be: BlockEncoding, *, seed: int | None = None, eps: float = 1e-10,
                    dim_cap: int = DEFAULT_DIM_CAP) -> CurvatureResult:
    """The p = q pipeline on length-p^p vectors: D_P and the projector from
    the builders above and their product, zero off the permutations,
    which min_eigen_power masks to the nonzero spectrum. Its distinct
    values are those of the support route, so the same `seed` draws the
    same start weights."""
    p = nb.p
    if p != nb.q:
        raise NotSquare(f"pipeline needs p = q, got p={nb.p}, q={nb.q}")
    local = localize_DG(be, nb.cost)
    dp = build_dp_full([extract_Di(local, i) for i in range(1, p + 1)],
                       dim_cap=dim_cap)
    composite = bk.be_product(build_pi_full(p, dim_cap=dim_cap), dp)
    encoded = composite.encoded
    kappa_a = (1 + 1e-9) / float(np.min(encoded[encoded != 0.0]))
    estimate = min_eigen_power(composite, kappa_a, seed, eps=eps)
    w1 = estimate.value * math.factorial(p) * be.subnorm
    return CurvatureResult.from_w1(w1=w1, dxy=float(nb.dxy), method="qsim_pq",
                                   x=nb.x, y=nb.y, diagnostics=estimate)
