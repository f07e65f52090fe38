"""Classical simulation of the two quantum curvature pipelines.

Both read one distance encoding per graph: the diagonal over the N x N
index grid of the distances (fourth powers wrapped at subnormalization
alpha, then a fractional power c = 1/4). DistanceEncoding holds it as
the two scalars taken from the largest and the smallest nonzero
distance; every other distance a stage reads is already in the edge's
LocalNeighborhood, so the encoding keeps no rows, and a stage encodes
only the distances it reads.

Case 1 (tree graphs): neighbor sums are read off as overlaps of the
dilated encoding, each from the p, q or 1 entries its state touches
(the neighborhood's x_dists, y_dists and dxy), and the closed-form W1 is
reassembled from the recovered sums.

Case 2 (p = q): the encoding is localized to the p^2 cost block (on a
diagonal, the permutation and SWAP conjugation is a gather of those p^2
entries, which the neighborhood holds), split into columns D_i, summed
into the tensor sum D_P, masked by the permutation projector,
pseudo-inverted, and fed to a power iteration whose dominant eigenvalue
yields the minimum permutation sum, hence W1. The device dimension is p^p (what --cap bounds and the ledger
records), but only the p! permutation entries that the projector keeps
are built, the random start included. The pseudoinverse is diagonal, so
the power iteration runs on its distinct values, with the start's weight
on each, a block of iterations per array, and stops on a Kato-Temple
bound.

Subnormalization bookkeeping is exact: every stage stores the raw
intended operator as `op` and the full divisor as `subnorm`, and an
optional audit trail records {stage, dim, subnorm, min_entry, max_entry}
per stage so the ledger can be checked from outside. Only
build_distance_encoding and tree_overlap_sum, which hold values their
callers cannot see, write records; w1_pq_qsim writes the p = q ledger.

The factor 2 introduced by the fractional-power stage is absorbed into
the distance encoding's subnorm, 2 * alpha^(1/4); the recovery
multipliers use the encoding's subnorm, never the bare fourth root.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from . import blockenc as bk
from .blockenc import BlockEncoding
from .errors import (
    DegenerateAllZero,
    DimensionCap,
    DimMismatch,
    EstimateOutOfRange,
    IndexOutOfRange,
    InfiniteDistance,
    NotATree,
    NotSquare,
    SizeMismatch,
    SpectrumOutOfRange,
    ZeroOverlap,
)
from .graph import LocalNeighborhood, Weight
from .transport import DEFAULT_DIM_CAP, CurvatureResult

#: power iterations min_eigen_power runs before it reports converged=False
MAX_POWER_ITERATIONS = 100_000
#: most entries of one (iterations x distinct values) block in min_eigen_power,
#: and the rows of its first block
_BLOCK_ENTRIES = 2 ** 12
_FIRST_BLOCK = 32


@dataclass(frozen=True)
class EigenEstimate:
    """Minimum-nonzero-eigenvalue estimate from the power-method stage.

    value is 1 / (kappa_a * r) for the last Rayleigh quotient r of the
    pseudoinverse; iterations counts the quotients taken, and converged
    is False when MAX_POWER_ITERATIONS ran out before r met the
    Kato-Temple bound of min_eigen_power.
    """

    value: float
    iterations: int
    initial_overlap: float
    gap_proxy: float
    converged: bool

    def __post_init__(self) -> None:
        if not self.value > 0:
            raise AssertionError("eigenvalue estimate must be positive")
        if self.iterations < 1:
            raise AssertionError("iterations must be >= 1")
        if not 0.0 <= self.initial_overlap <= 1.0 + 1e-12:
            raise AssertionError("initial overlap outside [0, 1]")

    def fields(self) -> dict:
        """The estimate as report and trace fields. An infinite gap_proxy,
        which means there is no second eigenvalue, becomes None, so JSON
        writes it as null."""
        out = asdict(self)
        if math.isinf(self.gap_proxy):
            out["gap_proxy"] = None
        return out


@dataclass
class AuditTrail:
    """Collector for per-stage subnormalization records."""

    records: list[dict] = field(default_factory=list)

    def record(self, stage: str, be: BlockEncoding, **extra) -> None:
        encoded = be.encoded
        nonzero = encoded[encoded != 0.0]
        rec = {
            "stage": stage,
            "dim": be.dim,
            "subnorm": be.subnorm,
            "min_entry": float(np.min(nonzero)) if nonzero.size else 0.0,
            "max_entry": float(np.max(nonzero)) if nonzero.size else 0.0,
        }
        rec.update(extra)
        self.records.append(rec)

    def note(self, stage: str, **fields) -> None:
        self.records.append({"stage": stage, **fields})


# --------------------------------------------------------------------------
# distance encoding (shared by both cases)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DistanceEncoding:
    """The graph's distance encoding, by its two scalars.

    It stands for the diagonal over the N x N index grid whose entry
    r * N + c is op = (d(r, c)^4)^(1/4) at subnorm 2 * alpha^(1/4): the
    fourth powers wrapped at alpha, then blockenc.be_power's c = 1/4, so
    the encoded entry is d(r, c) / subnorm. It holds only subnorm and
    ancilla_dim, which build_distance_encoding takes from the two
    extreme distances; `entries` encodes the distances a stage reads.
    """

    subnorm: float
    ancilla_dim: int

    def entries(self, d) -> BlockEncoding:
        """The distances d (a flat sequence, in either number type) as
        entries of the encoding, by be_power's expression, at its subnorm
        and ancilla size. A distance above subnorm is SubnormTooSmall."""
        op = (np.array(d, dtype=np.float64) ** 4) ** 0.25    # be_power's |d^4|^(1/4)
        return BlockEncoding(op=op, subnorm=self.subnorm, ancilla_dim=self.ancilla_dim)


def _extremes(dg) -> tuple[float, float]:
    """The smallest nonzero and the largest distance of the square grid dg,
    as floats. One row at a time becomes float64, so no N^2 array is
    formed, and every distance must fit in a float, be finite and be
    nonnegative."""
    n = len(dg)
    if n == 0:
        raise DimMismatch("distance matrix must be square")
    lo, hi = math.inf, 0.0
    for row in dg:
        try:
            d = np.array(row, dtype=np.float64)
        except OverflowError as exc:
            raise InfiniteDistance(
                "a distance is beyond float range; the simulated pipelines run in "
                "float64 (the classical methods stay exact)") from exc
        if d.shape != (n,):
            raise DimMismatch("distance matrix must be square")
        row_lo, row_hi = float(np.min(d)), float(np.max(d))    # NaN propagates
        if not (math.isfinite(row_lo) and math.isfinite(row_hi)):
            raise InfiniteDistance("distance matrix contains non-finite entries")
        if row_lo < 0:
            raise InfiniteDistance("distances must be nonnegative")
        hi = max(hi, row_hi)
        lo = min(lo, float(np.min(d, where=d > 0.0, initial=math.inf)))
    return lo, hi


def build_distance_encoding(dg, margin: float = 0.05,
                            audit: AuditTrail | None = None) -> DistanceEncoding:
    """The distance encoding over the index grid of dg, by its scalars.

    dg is a square grid of distances, such as the rows all_pairs_geodesic
    returns, in either number type. It is read a row at a time for its
    largest and smallest nonzero distance, and not kept: the stages
    encode the distances their neighborhood holds (DistanceEncoding).
    The fourth powers are wrapped at alpha = ((1 + margin) * max_d)^4
    and the fractional power c = 1/4 brings the entries back to
    d/alpha_q, where alpha_q = 2 * alpha^(1/4) is the encoding's subnorm.
    Zero distances (the grid diagonal) ride along unchanged. Both pipelines query one encoding per graph, so
    callers build it once and pass it to every edge.

    The largest distance and the smallest nonzero one bound every entry,
    so be_power runs on those two alone: its [1/kappa_m, 1] window and
    BlockEncoding's norm check cover the grid. The audit record holds
    dim = N^2, the entries at those two distances as min_entry and
    max_entry, alpha and kappa, the max/min ratio of the nonzero fourth
    powers. ValueError unless margin is a finite number >= 0;
    DimMismatch unless dg is square; InfiniteDistance for a non-finite,
    negative or beyond-float distance, or if alpha, (min d)^4 or their
    ratio leaves float64 range; DegenerateAllZero if every distance is 0.
    """
    if not (math.isfinite(margin) and margin >= 0):
        raise ValueError(f"margin must be a finite number >= 0, got {margin!r}")
    min_d, max_d = _extremes(dg)
    if max_d == 0.0:
        raise DegenerateAllZero("all distances are zero")

    try:
        alpha = ((1.0 + margin) * max_d) ** 4
        kappa = (max_d / min_d) ** 4
        kappa_m = alpha / min_d ** 4    # ZeroDivisionError when (min d)^4 underflows
        if not (math.isfinite(kappa) and math.isfinite(kappa_m)):
            raise OverflowError("kappa is not finite")
    except (OverflowError, ZeroDivisionError) as exc:
        raise InfiniteDistance(
            f"distances {min_d!r}..{max_d!r} at margin {margin!r} leave the float range "
            "of the fourth-power encoding: ((1 + margin) * max d)^4, (min d)^4 and "
            "their ratio must all lie in float64's (0, 1.8e308]") from exc
    ends = bk.be_power(BlockEncoding(op=np.array([min_d, max_d]) ** 4, subnorm=alpha),
                       0.25, kappa_m)
    if audit is not None:
        audit.record("distance_encoding", ends, dim=len(dg) ** 2, kappa=kappa, alpha=alpha)
    return DistanceEncoding(subnorm=ends.subnorm, ancilla_dim=ends.ancilla_dim)


def cost_rows(cost) -> tuple[tuple[Weight, ...], ...]:
    """The distance rows of a bare cost matrix, numbered as
    LocalNeighborhood.from_cost numbers it: X is 0..p-1 and Y is
    p..p+q-1, d(X[i], Y[j]) = d(Y[j], X[i]) = cost[i][j], and the
    within-side entries, which no stage reads, are 0."""
    p, q = len(cost), len(cost[0])
    return (tuple((0,) * p + tuple(row) for row in cost)
            + tuple(col + (0,) * q for col in zip(*cost)))


# --------------------------------------------------------------------------
# case 1: tree graphs
# --------------------------------------------------------------------------

def _grid_side(be: BlockEncoding) -> int:
    n = math.isqrt(be.dim)
    if n * n != be.dim:
        raise DimMismatch(f"encoding dim {be.dim} is not a square grid")
    return n


def tree_overlap_sum(be: DistanceEncoding, center: int, dists: Sequence[Weight],
                     shots: int | None = None, seed=None,
                     audit: AuditTrail | None = None) -> float:
    """Overlap encoding the neighbor-distance sum around `center`.

    dists holds d(center, nbrs[i]) for the p neighbors, as a tree
    neighborhood's x_dists or y_dists do. Prepares |i_x> (x) sum_i
    |nbrs[i]> with unit amplitude 1/sqrt(p), reads its overlap with the
    dilated encoding from the p entries it touches (be.entries of dists,
    then bk.dilated_overlap on them), and returns it rescaled to the
    (p+1) convention that the recovery multiplier expects:
    sum_i dists[i] / (be.subnorm * (p + 1)). `center` names the overlap
    in the audit note, which records both the unit-state overlap and the
    rescaled one.
    """
    p = len(dists)
    if p < 1:
        raise IndexOutOfRange("need at least one neighbor distance")
    raw = bk.dilated_overlap(be.entries(dists), np.arange(p), np.full(p, 1.0 / math.sqrt(p)),
                             shots=shots, seed=seed)
    rescaled = raw * p / (p + 1)
    if audit is not None:
        audit.note("tree_overlap", center=center, p=p,
                   overlap_unit=raw, overlap_p1=rescaled,
                   recovered_sum=rescaled * be.subnorm * (p + 1))
    return rescaled


def w1_tree_qsim(nb: LocalNeighborhood, be: DistanceEncoding, *,
                 shots: int | None = None, seed: int | None = None,
                 audit: AuditTrail | None = None) -> CurvatureResult:
    """Tree-case pipeline: W1 from three overlap estimations.

    `be` is the graph's encoding from build_distance_encoding, and nb a
    neighborhood on a tree (NotATree otherwise), whose x_dists, y_dists
    and dxy the three overlaps encode. shots=None gives exact
    overlaps, which reproduce the closed form to float accuracy; an
    integer replaces each overlap with a Hadamard-test emulation seeded
    by `seed` (None: fresh OS entropy), and raises EstimateOutOfRange
    when the noisy d(x, y) or W1 leaves its range.
    """
    if nb.x_dists is None or nb.y_dists is None:
        raise NotATree("tree pipeline needs a neighborhood taken on a tree")
    x, y = nb.x, nb.y
    # exact overlaps draw nothing, so they leave numpy.random unloaded
    seeds = (None,) * 3 if shots is None else np.random.SeedSequence(seed).spawn(3)
    p, q = nb.p, nb.q
    ov_x = tree_overlap_sum(be, x, nb.x_dists, shots=shots, seed=seeds[0], audit=audit)
    ov_y = tree_overlap_sum(be, y, nb.y_dists, shots=shots, seed=seeds[1], audit=audit)
    ov_xy = bk.dilated_overlap(be.entries([nb.dxy]), [0], [1.0], shots=shots, seed=seeds[2])
    x_sum = ov_x * be.subnorm * (p + 1)
    y_sum = ov_y * be.subnorm * (q + 1)
    dxy = ov_xy * be.subnorm
    w1 = x_sum / p + dxy + y_sum / q
    if audit is not None:
        audit.note("tree_recovery", x_sum=x_sum, y_sum=y_sum, dxy=dxy, w1=w1)
    if not (dxy > 0 and w1 >= 0):
        raise EstimateOutOfRange(
            f"with {shots} shots per overlap the estimates "
            f"d(x, y) = {dxy!r} and W1 = {w1!r} are out of range "
            "(need d(x, y) > 0 and W1 >= 0); use more shots")
    return CurvatureResult.from_w1(w1=w1, dxy=dxy, method="qsim_tree",
                                   x=x, y=y)


def tree_qsim_standard_error(nb: LocalNeighborhood, be: DistanceEncoding,
                             shots: int) -> float:
    """Propagated binomial standard error of the shot-noise tree W1.

    With raw unit-state overlaps v_x, v_xy, v_y the recovered W1 equals
    alpha_q * (v_x + v_xy + v_y), alpha_q = be.subnorm, so the standard
    error is alpha_q times the root sum of the three Bernoulli variances
    4 p (1 - p) / shots. NotATree for a neighborhood not on a tree.
    """
    if nb.x_dists is None or nb.y_dists is None:
        raise NotATree("tree standard error needs a neighborhood taken on a tree")
    alpha_q = be.subnorm
    raw_x = sum(float(v) for v in nb.x_dists) / (alpha_q * nb.p)
    raw_y = sum(float(v) for v in nb.y_dists) / (alpha_q * nb.q)
    raw_xy = float(nb.dxy) / alpha_q
    var = 0.0
    for raw in (raw_x, raw_y, raw_xy):
        prob = (1.0 + raw) / 2.0
        var += 4.0 * prob * (1.0 - prob) / shots
    return alpha_q * math.sqrt(var)


# --------------------------------------------------------------------------
# case 2: p = q
# --------------------------------------------------------------------------

def localize_DG(be: DistanceEncoding, cost: Sequence[Sequence[Weight]]) -> BlockEncoding:
    """Localize the distance encoding to the p^2 cost block, in (j, i) order.

    Relabeling X and Y to 0..p-1, selecting the top-left block and
    SWAPping the registers is, on a diagonal, a gather: entry j*p + i is
    the grid entry X[i]*n + Y[j], i.e. cost[i][j] / alpha_q once
    encoded, with cost the neighborhood's block d(X[i], Y[j]). Only those
    p^2 entries are encoded (be.entries); the result is a BlockEncoding
    with be's subnorm and ancilla size.
    """
    p, q = len(cost), len(cost[0])
    if p != q:
        raise NotSquare(f"localization needs p = q, got p={p}, q={q}")
    return be.entries([d for column in zip(*cost) for d in column])


def extract_Di(dg_local: BlockEncoding, i: int) -> BlockEncoding:
    """Column block D_i = diag(d_1i, ..., d_pi) / alpha_q for i in [1, p].

    Realized as the U_i conjugation (block i <-> block 0) followed by
    top-block selection, which on the diagonal vector is a slice.
    """
    p = _grid_side(dg_local)
    if not 1 <= i <= p:
        raise IndexOutOfRange(f"column index {i} outside [1, {p}]")
    sl = dg_local.op[(i - 1) * p: i * p].copy()
    return BlockEncoding(op=sl, subnorm=dg_local.subnorm, ancilla_dim=dg_local.ancilla_dim)


@functools.lru_cache(maxsize=None)
def _permutations(p: int) -> np.ndarray:
    """Zero-based permutation digits, shape (p!, p), in lexicographic order,
    which is the ascending order of their indices into the (p,)*p grid.
    Built once per p, read-only."""
    digits = np.array(list(itertools.permutations(range(p))), dtype=np.intp)
    digits.flags.writeable = False
    return digits


def build_DP(ds: Sequence[BlockEncoding]) -> BlockEncoding:
    """Tensor sum D_P on its p! permutation entries, encoded as D_P / (p * alpha_q).

    D_P is the uniform LCU of the terms I^(i-1) (x) D_i (x) I^(p-i) over
    dimension p^p; only the entries the projector keeps are built, in
    _permutations order. Entry sigma sums d_i / a_i at digit sigma_i in
    LCU order, scaled by a = ds[0].subnorm so op stays the raw operator:
    bit for bit the p^p entry. subnorm and ancilla_dim follow the
    be_tensor / be_lcu formulas. p = 1 degenerates to D_1 itself.
    """
    p = len(ds)
    if p < 1:
        raise SizeMismatch("need at least one column encoding")
    if any(b.dim != p for b in ds):
        raise DimMismatch("each D_i must have dimension p = len(ds)")
    if p == 1:
        return ds[0]
    digits = _permutations(p)
    acc = np.zeros(len(digits))
    for i, d_i in enumerate(ds):    # in LCU order, which fixes the rounding
        acc = acc + (d_i.op / d_i.subnorm)[digits[:, i]]
    a = ds[0].subnorm
    # 2p - 2 identity factors of ancilla_dim 2: one beside each end term,
    # two beside each inner term
    return BlockEncoding(op=acc * a, subnorm=p * a,
                         ancilla_dim=p * math.prod(b.ancilla_dim for b in ds) * 4 ** (p - 1))


def build_Pi(p: int) -> BlockEncoding:
    """Projector onto the all-distinct digit tuples, encoded as Pi / p!.

    Over dimension p^p, Pi is the 0/1 diagonal on the p! permutation
    indices; on that support, where build_DP lives, it is ones(p!) at
    subnorm p!.
    """
    if p < 1:
        raise SizeMismatch("p must be >= 1")
    rank = math.factorial(p)
    return BlockEncoding(op=np.ones(rank), subnorm=float(rank))


def min_eigen_power(be: BlockEncoding, kappa_a: float, start: np.ndarray,
                    eps: float = 1e-10) -> EigenEstimate:
    """Minimum nonzero eigenvalue of an encoding via power method.

    Forms the pseudoinverse encoding A and runs power iteration from
    `start` (a vector of length be.dim, typically random) restricted to
    the support and normalized. With x the unit iterate, r = x.Ax its
    Rayleigh quotient and a2 = max(A) / gap_proxy the second eigenvalue
    of A (0 when the gap is infinite), the iteration stops when r > a2
    and ||Ax - r x||^2 <= eps * r * (r - a2), which by Kato-Temple gives
    max(A) - r <= eps * r, given the gap. Failure to converge within
    MAX_POWER_ITERATIONS is reported through converged=False, not raised.

    A is diagonal, so the iterate is never formed: after k products its
    squared weight on each distinct value v of A is w_v (v / max(A))^(2k),
    normalized, where w_v sums the start's squared entries at v. r is the
    mean of A under these weights, taken about max(A) once it passes
    max(A) / 2, and ||Ax - r x||^2 their variance. A block of iterations
    is evaluated as one array of at most _BLOCK_ENTRIES entries, and the
    first that stops is kept; blocks start at _FIRST_BLOCK rows and
    double. After each block, the values whose weight can no longer move
    the stop test by 2^-60 of its bound are dropped.
    """
    diag = be.encoded
    support = diag != 0.0
    if not np.any(support):
        raise SpectrumOutOfRange("composite has no nonzero spectrum")
    inv = bk.be_invert(be, kappa_a)
    a = inv.encoded

    if np.shape(start) != (be.dim,):
        raise DimMismatch(f"start vector of shape {np.shape(start)} for dimension {be.dim}")
    x = start * support
    norm = float(np.linalg.norm(x))
    if norm == 0.0:
        raise ZeroOverlap("start vector vanished on the support")
    x /= norm

    a_max = float(np.max(a))
    target = a >= a_max * (1 - 1e-12)
    gamma0 = float(np.linalg.norm(x[target]))
    if gamma0 == 0.0:
        raise ZeroOverlap("start vector orthogonal to the target eigenspace")

    nz = np.sort(diag[support])
    lam1 = float(nz[0])
    higher = nz[nz > lam1 * (1 + 1e-12)]
    gap_proxy = float(higher[0] / lam1) if higher.size else math.inf
    a2 = a_max / gap_proxy

    values, group = np.unique(a[support], return_inverse=True)
    weights = np.bincount(group, weights=x[support] ** 2)
    u2 = (values / a_max) ** 2
    shift = values - a_max
    # a value whose weight is below `negligible` times the top value's
    # moves res2 by under 2^-60 of the stop's bound eps * a_max * (a_max - a2)
    negligible = 2.0 ** -60 * eps * (1 - a2 / a_max) / values.size
    rows = _FIRST_BLOCK
    converged = False
    k0 = 0
    while k0 < MAX_POWER_ITERATIONS:
        rows = min(rows, max(1, _BLOCK_ENTRIES // values.size))
        # row j holds the weights after k[j] products: iteration k[j] + 1
        k = np.arange(k0, min(k0 + rows, MAX_POWER_ITERATIONS))
        k0 += rows
        rows *= 2
        pi = weights * u2 ** k[:, None]
        mass = pi.sum(axis=1)
        # about a_max, r lands on a_max once only its weight is left; below
        # a_max / 2 that centre would cost r bits, and the plain mean keeps them
        plain = pi @ values / mass
        r = np.where(plain < a_max / 2, plain, a_max + pi @ shift / mass)
        res2 = (pi * (values - r[:, None]) ** 2).sum(axis=1) / mass
        stops = np.flatnonzero((r > a2) & (res2 <= eps * r * (r - a2)))
        if stops.size:
            converged = True
            break
        # weights only fall, and the top one (u2 = 1) stays, so a value
        # that is negligible now stays negligible
        keep = pi[-1] >= negligible * weights[-1]
        values, weights, u2, shift = values[keep], weights[keep], u2[keep], shift[keep]
    j = int(stops[0]) if converged else k.size - 1

    return EigenEstimate(
        value=1.0 / (kappa_a * float(r[j])),
        iterations=int(k[j]) + 1,
        initial_overlap=gamma0,
        gap_proxy=gap_proxy,
        converged=converged,
    )


def w1_pq_qsim(nb: LocalNeighborhood, be: DistanceEncoding, *,
               seed: int | None = None, eps: float = 1e-10,
               dim_cap: int = DEFAULT_DIM_CAP,
               audit: AuditTrail | None = None) -> CurvatureResult:
    """Full p = q pipeline for one neighborhood.

    `be` is the encoding from build_distance_encoding over the distances
    that nb's X and Y index: the graph's geodesic rows, or
    cost_rows(cost) for a bare cost matrix; the pipeline encodes nb's
    p^2 cost block (localize_DG) and reads be's subnorm. The power
    iteration starts from p! normals drawn with `seed` (None: fresh OS
    entropy), one per permutation entry; it stops once the Kato-Temple
    bound puts its Rayleigh quotient r within eps * r of the top
    eigenvalue, given the spectral gap, see min_eigen_power. DimensionCap
    when p^p > dim_cap, before any stage runs. A zero-cost permutation
    (X = Y) raises SpectrumOutOfRange, and a cost above be.subnorm
    SubnormTooSmall.
    `audit` gets one record per stage, localize_DG to composite, then the
    EigenEstimate as the min_eigen_power note.
    """
    p = nb.p
    if p != nb.q:
        raise NotSquare(f"pipeline needs p = q, got p={nb.p}, q={nb.q}")
    dim, support = p ** p, math.factorial(p)
    if dim > dim_cap:
        raise DimensionCap(f"p^p = {dim} exceeds cap {dim_cap}")
    local = localize_DG(be, nb.cost)
    columns = [extract_Di(local, i) for i in range(1, p + 1)]
    dp = build_DP(columns)
    pi = build_Pi(p)
    composite = bk.be_product(pi, dp)
    if audit is not None:
        audit.record("localize_DG", local, p=p)
        for i, d_i in enumerate(columns, start=1):
            audit.record(f"extract_D{i}", d_i)
        audit.record("build_DP", dp, dim=dim, support=support)
        audit.record("build_Pi[direct]", pi, dim=dim, support=support, rank=support)
        audit.record("composite", composite, dim=dim, support=support)
    encoded = composite.encoded
    if np.any(encoded == 0.0):
        raise SpectrumOutOfRange(
            "a permutation of the cost block sums to 0, "
            "so W1 = 0 is a zero eigenvalue, which the power stage on the "
            "pseudoinverse cannot see")
    kappa_a = (1 + 1e-9) / float(np.min(encoded))
    start = np.random.default_rng(seed).standard_normal(support)
    estimate = min_eigen_power(composite, kappa_a, start, eps=eps)
    if audit is not None:
        audit.note("min_eigen_power", **estimate.fields())
    w1 = estimate.value * support * be.subnorm
    return CurvatureResult.from_w1(w1=w1, dxy=float(nb.dxy), method="qsim_pq",
                                   x=nb.x, y=nb.y, diagnostics=estimate)

