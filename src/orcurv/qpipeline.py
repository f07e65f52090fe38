"""Classical simulation of the two quantum curvature pipelines.

Case 1 (tree graphs): a diagonal geodesic encoding over the N x N index
grid is built from the distance matrix (fourth powers wrapped at
subnormalization alpha, then a fractional power c = 1/4), neighbor sums
are read off as overlaps of the dilated encoding, and the closed-form W1
is reassembled from the recovered sums.

Case 2 (p = q): the grid encoding is localized to the p^2 cost block
(on a diagonal, the permutation and SWAP conjugation is a gather),
split into columns D_i, summed into the tensor sum D_P, masked by the
permutation projector, pseudo-inverted, and fed to a power iteration
whose dominant eigenvalue yields the minimum permutation sum, hence W1.
The device dimension is p^p (what --cap bounds and the ledger records),
but only the p! permutation entries that the projector keeps are built.

Subnormalization bookkeeping is exact: every stage stores the raw
intended operator as `op` and the full divisor as `subnorm`, and an
optional audit trail records {stage, dim, subnorm, err, min_entry,
max_entry} per stage so the ledger can be checked from outside.

The factor 2 introduced by the fractional-power stage is absorbed into
the distance encoding's subnorm, 2 * alpha^(1/4); the recovery
multipliers use the encoding's subnorm, never the bare fourth root.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class EigenEstimate:
    """Minimum-nonzero-eigenvalue estimate from the power-method stage.

    value is 1 / (kappa_a * r) for the last Rayleigh quotient r of the
    pseudoinverse; iterations counts the quotients taken, and converged
    is False when MAX_POWER_ITERATIONS ran out first.
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
            "err": be.err,
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

def _float_grid(rows: Sequence[Sequence[Weight]]) -> np.ndarray:
    """float64 copy of rows of distances; one beyond float range is refused."""
    try:
        return np.asarray([[float(x) for x in row] for row in rows], dtype=np.float64)
    except OverflowError as exc:
        raise InfiniteDistance(
            "a distance is beyond float range; the simulated pipelines run in "
            "float64 (the classical methods stay exact)") from exc


def build_distance_encoding(dg, margin: float = 0.05,
                            audit: AuditTrail | None = None) -> BlockEncoding:
    """Diagonal encoding of all pairwise distances over the index grid.

    dg is a square grid of distances: the rows all_pairs_geodesic
    returns, in either number type, or a cost_grid. The fourth powers
    are wrapped at alpha = ((1 + margin) * max_d)^4 and the fractional
    power c = 1/4 brings the entries back to d/alpha_q, where
    alpha_q = 2 * alpha^(1/4) is the returned encoding's subnorm.
    Zero distances (the grid diagonal) ride along unchanged. The audit
    record also holds alpha and kappa, the max/min ratio of the nonzero
    fourth powers. Both pipelines query one encoding per graph, so
    callers build it once and pass it to every edge. InfiniteDistance if
    alpha, (min d)^4 or their ratio leaves float64 range.
    """
    if margin < 0:
        raise ValueError("margin must be >= 0")
    dist = _float_grid(dg)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise DimMismatch("distance matrix must be square")
    if not np.all(np.isfinite(dist)):
        raise InfiniteDistance("distance matrix contains non-finite entries")
    if np.any(dist < 0):
        raise InfiniteDistance("distances must be nonnegative")
    max_d = float(np.max(dist))
    if max_d == 0.0:
        raise DegenerateAllZero("all distances are zero")
    nonzero = dist[dist > 0.0]
    min_d = float(np.min(nonzero))

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
    fourth = dist.ravel() ** 4
    raw = BlockEncoding(op=fourth, subnorm=alpha)
    be = bk.be_power(raw, 0.25, kappa_m)
    if audit is not None:
        audit.record("distance_encoding", be, kappa=kappa, alpha=alpha)
    return be


# --------------------------------------------------------------------------
# case 1: tree graphs
# --------------------------------------------------------------------------

def _grid_side(be: BlockEncoding) -> int:
    n = math.isqrt(be.dim)
    if n * n != be.dim:
        raise DimMismatch(f"encoding dim {be.dim} is not a square grid")
    return n


def _grid_indices(be: BlockEncoding, rows: Sequence[int],
                  cols: Sequence[int]) -> np.ndarray:
    """Flat grid indices r * n + c, shape (len(rows), len(cols)).

    The one place that knows the grid layout. rows and cols must each
    hold distinct integers in [0, n), else IndexOutOfRange.
    """
    n = _grid_side(be)
    for seq in (rows, cols):
        if not all(isinstance(v, (int, np.integer)) and 0 <= v < n for v in seq):
            raise IndexOutOfRange(f"indices must be integers in [0, {n})")
        if len(set(seq)) != len(seq):
            raise IndexOutOfRange("indices must be distinct")
    return np.array([[r * n + c for c in cols] for r in rows], dtype=np.intp)


def tree_overlap_sum(be: BlockEncoding, center: int, nbrs: Sequence[int],
                     shots: int | None = None, seed=None,
                     audit: AuditTrail | None = None) -> float:
    """Overlap encoding the neighbor-distance sum around `center`.

    Prepares |i_x> (x) sum_i |nbrs[i]> with unit amplitude 1/sqrt(p),
    reads its overlap with the dilated encoding from the p grid entries
    it touches (bk.dilated_overlap), and returns it rescaled to the
    (p+1) convention that the recovery multiplier expects:
    sum_i d(center, nbrs[i]) / (be.subnorm * (p + 1)). The audit trail
    records both the unit-state overlap and the rescaled one.
    """
    p = len(nbrs)
    if p < 1:
        raise IndexOutOfRange("need at least one neighbor index")
    raw = bk.dilated_overlap(be, _grid_indices(be, [center], nbrs)[0],
                             np.full(p, 1.0 / math.sqrt(p)), shots=shots, seed=seed)
    rescaled = raw * p / (p + 1)
    if audit is not None:
        audit.note("tree_overlap", center=center, p=p,
                   overlap_unit=raw, overlap_p1=rescaled,
                   recovered_sum=rescaled * be.subnorm * (p + 1))
    return rescaled


def _basis_pair_overlap(be: BlockEncoding, ix: int, iy: int,
                        shots: int | None = None, seed=None) -> float:
    return bk.dilated_overlap(be, _grid_indices(be, [ix], [iy])[0], [1.0],
                              shots=shots, seed=seed)


def w1_tree_qsim(nb: LocalNeighborhood, be: BlockEncoding, *,
                 shots: int | None = None, seed: int | None = None,
                 audit: AuditTrail | None = None) -> CurvatureResult:
    """Tree-case pipeline: W1 from three overlap estimations.

    `be` is the graph's encoding from build_distance_encoding. The
    caller asserts that the graph is a tree. shots=None gives exact
    overlaps, which reproduce the closed form to float accuracy; an
    integer replaces each overlap with a Hadamard-test emulation seeded
    by `seed` (None: fresh OS entropy), and raises EstimateOutOfRange
    when the noisy d(x, y) or W1 leaves its range.
    """
    if nb.x_dists is None or nb.y_dists is None:
        raise NotATree("tree pipeline needs a graph neighborhood, not a bare cost matrix")
    x, y = nb.x, nb.y
    seeds = np.random.SeedSequence(seed).spawn(3)
    p, q = nb.p, nb.q
    ov_x = tree_overlap_sum(be, x, nb.X, shots=shots, seed=seeds[0], audit=audit)
    ov_y = tree_overlap_sum(be, y, nb.Y, shots=shots, seed=seeds[1], audit=audit)
    ov_xy = _basis_pair_overlap(be, x, y, shots=shots, seed=seeds[2])
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


def tree_qsim_standard_error(nb: LocalNeighborhood, be: BlockEncoding,
                             shots: int) -> float:
    """Propagated binomial standard error of the shot-noise tree W1.

    With raw unit-state overlaps v_x, v_xy, v_y the recovered W1 equals
    alpha_q * (v_x + v_xy + v_y), alpha_q = be.subnorm, so the standard
    error is alpha_q times the root sum of the three Bernoulli variances
    4 p (1 - p) / shots.
    """
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

def localize_DG(be: BlockEncoding, X: Sequence[int], Y: Sequence[int],
                audit: AuditTrail | None = None) -> BlockEncoding:
    """Localize the grid encoding to the p^2 cost block, in (j, i) order.

    Relabeling X and Y to 0..p-1, selecting the top-left block and
    SWAPping the registers is, on a diagonal, a gather: entry j*p + i is
    op[X[i]*n + Y[j]], i.e. d(X[i], Y[j]) / alpha_q once encoded.
    """
    if len(X) != len(Y):
        raise NotSquare(f"localization needs p = q, got p={len(X)}, q={len(Y)}")
    p = len(X)
    block = be.op[_grid_indices(be, X, Y).T.ravel()]
    out = BlockEncoding(op=block, subnorm=be.subnorm, err=be.err,
                        ancilla_dim=be.ancilla_dim)
    if audit is not None:
        audit.record("localize_DG", out, p=p)
    return out


def extract_Di(dg_local: BlockEncoding, i: int,
               audit: AuditTrail | None = None) -> BlockEncoding:
    """Column block D_i = diag(d_1i, ..., d_pi) / alpha_q for i in [1, p].

    Realized as the U_i conjugation (block i <-> block 0) followed by
    top-block selection, which on the diagonal vector is a slice.
    """
    p = _grid_side(dg_local)
    if not 1 <= i <= p:
        raise IndexOutOfRange(f"column index {i} outside [1, {p}]")
    sl = dg_local.op[(i - 1) * p: i * p].copy()
    out = BlockEncoding(op=sl, subnorm=dg_local.subnorm, err=dg_local.err,
                        ancilla_dim=dg_local.ancilla_dim)
    if audit is not None:
        audit.record(f"extract_D{i}", out)
    return out


@functools.lru_cache(maxsize=None)
def _permutations(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Zero-based permutation digits, shape (p!, p), in lexicographic order,
    and their flat indices into the (p,)*p grid, which that order sorts
    ascending. Built once per p, read-only."""
    digits = np.array(list(itertools.permutations(range(p))), dtype=np.intp)
    flat = digits @ p ** np.arange(p - 1, -1, -1)
    digits.flags.writeable = flat.flags.writeable = False
    return digits, flat


def build_DP(ds: Sequence[BlockEncoding], dim_cap: int = DEFAULT_DIM_CAP,
             audit: AuditTrail | None = None) -> BlockEncoding:
    """Tensor sum D_P on its p! permutation entries, encoded as D_P / (p * alpha_q).

    D_P is the uniform LCU of the terms I^(i-1) (x) D_i (x) I^(p-i) over
    dimension p^p; only the entries the projector keeps are built, in
    _permutations order. Entry sigma sums d_i / a_i at digit sigma_i in
    LCU order, scaled by a = ds[0].subnorm so op stays the raw operator:
    bit for bit the p^p entry. subnorm, err and ancilla_dim follow the
    be_tensor / be_lcu formulas. p = 1 degenerates to D_1 itself.
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
    else:
        digits, _ = _permutations(p)
        acc = np.zeros(len(digits))
        for i, d_i in enumerate(ds):    # in LCU order, which fixes the rounding
            acc = acc + (d_i.op / d_i.subnorm)[digits[:, i]]
        a = ds[0].subnorm
        # 2p - 2 identity factors of ancilla_dim 2: one beside each end term,
        # two beside each inner term
        out = BlockEncoding(op=acc * a, subnorm=p * a,
                            err=sum(b.err / b.subnorm for b in ds),
                            ancilla_dim=p * math.prod(b.ancilla_dim for b in ds) * 4 ** (p - 1))
    if audit is not None:
        audit.record("build_DP", out, dim=p ** p, support=math.factorial(p))
    return out


def build_Pi(p: int, dim_cap: int = DEFAULT_DIM_CAP,
             audit: AuditTrail | None = None) -> BlockEncoding:
    """Projector onto the all-distinct digit tuples, encoded as Pi / p!.

    Over dimension p^p, Pi is the 0/1 diagonal on the p! permutation
    indices; on that support, where build_DP lives, it is ones(p!) at
    subnorm p!.
    """
    if p < 1:
        raise SizeMismatch("p must be >= 1")
    if p ** p > dim_cap:
        raise DimensionCap(f"p^p = {p ** p} exceeds cap {dim_cap}")
    rank = math.factorial(p)
    out = BlockEncoding(op=np.ones(rank), subnorm=float(rank))
    if audit is not None:
        audit.record("build_Pi[direct]", out, dim=p ** p, support=rank, rank=rank)
    return out


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a real 1-D vector, by np.linalg.norm's own formula
    but without its dispatch: the power loop takes two per iteration."""
    return math.sqrt(float(v.dot(v)))


def min_eigen_power(be: BlockEncoding, kappa_a: float, start: np.ndarray,
                    eps: float = 1e-10,
                    audit: AuditTrail | None = None) -> EigenEstimate:
    """Minimum nonzero eigenvalue of an encoding via power method.

    Forms the pseudoinverse encoding A and runs power iteration from
    `start` (a vector of length be.dim, typically random) restricted to
    the support and normalized. With x the unit iterate and r = x.Ax its
    Rayleigh quotient, the loop stops when ||Ax - r x|| <= eps * max(1, |r|),
    or when successive Rayleigh quotients differ by less than eps
    (absolute). Failure to converge within MAX_POWER_ITERATIONS is
    reported through converged=False, not raised.
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
    norm = _norm(x)
    if norm == 0.0:
        raise ZeroOverlap("start vector vanished on the support")
    x /= norm

    a_max = float(np.max(a))
    target = a >= a_max * (1 - 1e-12)
    gamma0 = _norm(x[target])
    if gamma0 == 0.0:
        raise ZeroOverlap("start vector orthogonal to the target eigenspace")

    r_prev = None
    converged = False
    iterations = 0
    for _ in range(MAX_POWER_ITERATIONS):
        y = a * x
        r = float(x @ y)
        iterations += 1
        if _norm(y - r * x) <= eps * max(1.0, abs(r)):
            converged = True
            break
        if r_prev is not None and abs(r - r_prev) < eps:
            converged = True
            break
        r_prev = r
        x = y / _norm(y)

    nz = np.sort(diag[support])
    lam1 = float(nz[0])
    higher = nz[nz > lam1 * (1 + 1e-12)]
    gap_proxy = float(higher[0] / lam1) if higher.size else math.inf

    estimate = EigenEstimate(
        value=1.0 / (kappa_a * r),
        iterations=iterations,
        initial_overlap=gamma0,
        gap_proxy=gap_proxy,
        converged=converged,
    )
    if audit is not None:
        audit.note("min_eigen_power", value=estimate.value,
                   iterations=iterations, initial_overlap=gamma0,
                   gap_proxy=gap_proxy, converged=converged)
    return estimate


def w1_pq_qsim(nb: LocalNeighborhood, be: BlockEncoding, *,
               seed: int | None = None, eps: float = 1e-10,
               dim_cap: int = DEFAULT_DIM_CAP,
               audit: AuditTrail | None = None) -> CurvatureResult:
    """Full p = q pipeline for one neighborhood.

    `be` is the encoding from build_distance_encoding over the distances
    that nb's X and Y index: the graph's geodesics, or cost_grid(cost)
    for a bare cost matrix. The power iteration starts from p^p normals
    drawn with `seed` (None: fresh OS entropy) and gathered at the p!
    permutation entries; it stops when ||Ax - r x|| <= eps * max(1, |r|)
    or when successive Rayleigh quotients r differ by less than eps
    (absolute), see min_eigen_power. DimensionCap when p^p > dim_cap. A
    zero-cost permutation (X = Y) raises SpectrumOutOfRange.
    """
    p = nb.p
    if p != nb.q:
        raise NotSquare(f"pipeline needs p = q, got p={nb.p}, q={nb.q}")
    local = localize_DG(be, nb.X, nb.Y, audit=audit)
    columns = [extract_Di(local, i, audit=audit) for i in range(1, p + 1)]
    dp = build_DP(columns, dim_cap=dim_cap, audit=audit)
    pi = build_Pi(p, dim_cap=dim_cap, audit=audit)
    composite = bk.be_product(pi, dp)
    _, flat = _permutations(p)
    if audit is not None:
        audit.record("composite", composite, dim=p ** p, support=len(flat))
    encoded = composite.encoded
    if np.any(encoded == 0.0):
        raise SpectrumOutOfRange(
            "a permutation of the cost block sums to 0, "
            "so W1 = 0 is a zero eigenvalue, which the power stage on the "
            "pseudoinverse cannot see")
    kappa_a = (1 + 1e-9) / float(np.min(encoded))
    start = np.random.default_rng(seed).standard_normal(p ** p)[flat]
    estimate = min_eigen_power(composite, kappa_a, start, eps=eps, audit=audit)
    w1 = estimate.value * math.factorial(p) * be.subnorm
    return CurvatureResult.from_w1(w1=w1, dxy=float(nb.dxy), method="qsim_pq",
                                   x=nb.x, y=nb.y, diagnostics=estimate)


def cost_grid(cost) -> np.ndarray:
    """Synthetic two-block distance grid whose X-by-Y block is `cost`.

    Rows 0..p-1 stand for X and rows p..p+q-1 for Y, the indices that
    LocalNeighborhood.from_cost assigns; the within-block entries are
    never read by the localization.
    """
    p, q = len(cost), len(cost[0])
    rows = np.zeros((p + q, p + q))
    block = _float_grid(cost)
    rows[:p, p:] = block
    rows[p:, :p] = block.T
    return rows
