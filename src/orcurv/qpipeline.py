"""Classical simulation of the two quantum curvature pipelines.

Case 1 (tree graphs): a diagonal geodesic encoding over the N x N index
grid is built from the distance matrix (fourth powers wrapped at
subnormalization alpha, then a fractional power c = 1/4), neighbor sums
are read off as overlaps of the dilated encoding, and the closed-form W1
is reassembled from the recovered sums.

Case 2 (p = q): the grid encoding is localized to the p^2 cost block by
permutation and SWAP conjugation, split into columns D_i, combined into
the p^p-dimensional tensor sum D_P, masked by the permutation projector,
pseudo-inverted, and fed to a power iteration whose dominant eigenvalue
yields the minimum permutation sum, hence W1.

Subnormalization bookkeeping is exact: every stage stores the raw
intended operator as `op` and the full divisor as `subnorm`, and an
optional audit trail records {stage, dim, subnorm, err, min_entry,
max_entry} per stage so the ledger can be checked from outside.

The factor 2 introduced by the fractional-power stage is absorbed into
alpha_q = 2 * alpha^(1/4); all recovery multipliers use the recorded
alpha_q, never the bare fourth root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import blockenc as bk
from .blockenc import BlockEncoding, PermutationSpec, StateVector
from .errors import (
    DegenerateAllZero,
    DigitOutOfRange,
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
from .graph import GeodesicMatrix, LocalNeighborhood
from .transport import CurvatureResult

DEFAULT_DIM_CAP = 10 ** 6


@dataclass(frozen=True)
class DistanceEncodingMeta:
    """Subnormalization bookkeeping of the distance encoding.

    alpha divides the fourth-power operator, alpha_q = 2 * alpha^(1/4)
    divides the distance operator after the fourth-root stage, and kappa
    is the max/min ratio of the nonzero fourth-power entries.
    """

    alpha: float
    alpha_q: float
    kappa: float


@dataclass(frozen=True)
class EigenEstimate:
    """Minimum-nonzero-eigenvalue estimate from the power-method stage."""

    value: float
    iterations: int
    initial_overlap: float
    gap_proxy: float
    converged: bool
    residual: float
    rayleigh_trace: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not self.value > 0:
            raise AssertionError("eigenvalue estimate must be positive")
        if self.iterations < 1:
            raise AssertionError("iterations must be >= 1")
        if not 0.0 <= self.initial_overlap <= 1.0 + 1e-12:
            raise AssertionError("initial overlap outside [0, 1]")


@dataclass(frozen=True)
class QsimConfig:
    """Tunables of the simulated pipelines."""

    margin: float = 0.05
    power_mode: str = "exact"         # "exact" | "chebyshev"
    power_degree: int | None = None   # None -> default degree rule
    power_eps_target: float = 1e-6
    shots: int | None = None
    seed: int | None = None
    eps: float = 1e-10                # power-iteration stagnation threshold
    max_iter: int = 100_000
    dim_cap: int = DEFAULT_DIM_CAP


@dataclass
class AuditTrail:
    """Collector for per-stage subnormalization records."""

    records: list[dict] = field(default_factory=list)

    def record(self, stage: str, be: BlockEncoding, **extra) -> None:
        if be.is_diagonal:
            encoded = np.real(be.encoded)
            nonzero = encoded[encoded != 0.0]
        else:
            encoded = np.real(np.diagonal(be.encoded))
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

def _float_grid(rows) -> np.ndarray:
    """float64 copy of exact distances; one beyond float range is refused."""
    try:
        if isinstance(rows, GeodesicMatrix):
            return rows.float_array
        return np.asarray([[float(x) for x in row] for row in rows], dtype=np.float64)
    except OverflowError as exc:
        raise InfiniteDistance(
            "a distance is beyond float range; the simulated pipelines run in "
            "float64 (the classical methods stay exact)") from exc


def _distance_rows(dg) -> np.ndarray:
    arr = _float_grid(dg)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimMismatch("distance matrix must be square")
    return arr


def build_distance_encoding(dg, margin: float = 0.05,
                            power_mode: str = "exact",
                            power_degree: int | None = None,
                            power_eps_target: float = 1e-6,
                            audit: AuditTrail | None = None,
                            ) -> tuple[BlockEncoding, DistanceEncodingMeta]:
    """Diagonal encoding of all pairwise distances over the index grid.

    The fourth powers are wrapped at alpha = ((1 + margin) * max_d)^4 and
    the fractional power c = 1/4 brings the entries back to d/alpha_q
    with alpha_q = 2 * alpha^(1/4). Zero distances (the grid diagonal)
    ride along unchanged. Both pipelines query one encoding per graph, so
    callers build it once and pass it to every edge.
    """
    if margin < 0:
        raise ValueError("margin must be >= 0")
    dist = _distance_rows(dg)
    if not np.all(np.isfinite(dist)):
        raise InfiniteDistance("distance matrix contains non-finite entries")
    if np.any(dist < 0):
        raise InfiniteDistance("distances must be nonnegative")
    max_d = float(np.max(dist))
    if max_d == 0.0:
        raise DegenerateAllZero("all distances are zero")
    nonzero = dist[dist > 0.0]
    min_d = float(np.min(nonzero))

    alpha = ((1.0 + margin) * max_d) ** 4
    kappa = (max_d / min_d) ** 4
    fourth = dist.ravel() ** 4
    raw = BlockEncoding(op=fourth, subnorm=alpha)
    kappa_m = alpha / min_d ** 4
    be = bk.be_power(raw, 0.25, kappa_m, mode=power_mode,
                     degree=power_degree, eps_target=power_eps_target)
    meta = DistanceEncodingMeta(alpha=alpha, alpha_q=be.subnorm, kappa=kappa)
    if audit is not None:
        audit.record("distance_encoding", be, kappa=kappa, alpha=alpha)
    return be, meta


# --------------------------------------------------------------------------
# case 1: tree graphs
# --------------------------------------------------------------------------

def _grid_side(be: BlockEncoding) -> int:
    n = math.isqrt(be.dim)
    if n * n != be.dim:
        raise DimMismatch(f"encoding dim {be.dim} is not a square grid")
    return n


def tree_overlap_sum(be: BlockEncoding, meta: DistanceEncodingMeta,
                     center: int, nbrs: Sequence[int],
                     shots: int | None = None, seed=None,
                     audit: AuditTrail | None = None) -> float:
    """Overlap encoding the neighbor-distance sum around `center`.

    Prepares |i_x> (x) sum_i |nbrs[i]> with unit amplitude 1/sqrt(p),
    reads its overlap with the dilated encoding from the p grid entries
    it touches (bk.dilated_overlap), and returns it rescaled to the
    (p+1) convention that the recovery multiplier expects:
    sum_i d(center, nbrs[i]) / (alpha_q * (p + 1)). The audit trail
    records both the unit-state overlap and the rescaled one.
    """
    n = _grid_side(be)
    p = len(nbrs)
    if p < 1:
        raise IndexOutOfRange("need at least one neighbor index")
    if len(set(nbrs)) != p:
        raise IndexOutOfRange("neighbor indices must be distinct")
    if not (0 <= center < n) or any(not 0 <= v < n for v in nbrs):
        raise IndexOutOfRange(f"indices must lie in [0, {n})")
    raw = bk.dilated_overlap(be, [center * n + v for v in nbrs],
                             np.full(p, 1.0 / math.sqrt(p)), shots=shots, seed=seed)
    rescaled = raw * p / (p + 1)
    if audit is not None:
        audit.note("tree_overlap", center=center, p=p,
                   overlap_unit=raw, overlap_p1=rescaled,
                   recovered_sum=rescaled * meta.alpha_q * (p + 1))
    return rescaled


def _basis_pair_overlap(be: BlockEncoding, ix: int, iy: int,
                        shots: int | None = None, seed=None) -> float:
    n = _grid_side(be)
    if not (0 <= ix < n and 0 <= iy < n):
        raise IndexOutOfRange(f"indices must lie in [0, {n})")
    return bk.dilated_overlap(be, [ix * n + iy], [1.0], shots=shots, seed=seed)


def w1_tree_qsim(nb: LocalNeighborhood,
                 encoding: tuple[BlockEncoding, DistanceEncodingMeta],
                 config: QsimConfig = QsimConfig(),
                 audit: AuditTrail | None = None) -> CurvatureResult:
    """Tree-case pipeline: W1 from three overlap estimations.

    `encoding` is the graph's (be, meta) from build_distance_encoding.
    The caller asserts that the graph is a tree. Exact-overlap mode
    reproduces the closed form to float accuracy; shots mode replaces
    each overlap with a seeded Hadamard-test emulation, and raises
    EstimateOutOfRange when the noisy d(x, y) or W1 leaves its range.
    """
    if nb.x_dists is None or nb.y_dists is None:
        raise NotATree("tree pipeline needs a graph neighborhood, not a bare cost matrix")
    be, meta = encoding
    x, y = nb.x, nb.y
    seeds = np.random.SeedSequence(config.seed).spawn(3)
    p, q = nb.p, nb.q
    ov_x = tree_overlap_sum(be, meta, x, nb.X, shots=config.shots,
                            seed=seeds[0], audit=audit)
    ov_y = tree_overlap_sum(be, meta, y, nb.Y, shots=config.shots,
                            seed=seeds[1], audit=audit)
    ov_xy = _basis_pair_overlap(be, x, y, shots=config.shots, seed=seeds[2])
    x_sum = ov_x * meta.alpha_q * (p + 1)
    y_sum = ov_y * meta.alpha_q * (q + 1)
    dxy = ov_xy * meta.alpha_q
    w1 = x_sum / p + dxy + y_sum / q
    if audit is not None:
        audit.note("tree_recovery", x_sum=x_sum, y_sum=y_sum, dxy=dxy, w1=w1)
    if not (dxy > 0 and w1 >= 0):
        raise EstimateOutOfRange(
            f"edge ({x}, {y}): with {config.shots} shots per overlap the estimates "
            f"d(x, y) = {dxy!r} and W1 = {w1!r} are out of range "
            "(need d(x, y) > 0 and W1 >= 0); use more shots")
    return CurvatureResult.from_w1(w1=w1, dxy=dxy, method="qsim_tree",
                                   x=x, y=y)


def tree_qsim_standard_error(nb: LocalNeighborhood,
                             encoding: tuple[BlockEncoding, DistanceEncodingMeta],
                             config: QsimConfig) -> float:
    """Propagated binomial standard error of the shot-noise tree W1.

    With raw unit-state overlaps v_x, v_xy, v_y the recovered W1 equals
    alpha_q * (v_x + v_xy + v_y), so the standard error is alpha_q times
    the root sum of the three Bernoulli variances 4 p (1 - p) / shots.
    """
    if config.shots is None:
        return 0.0
    alpha_q = encoding[1].alpha_q
    raw_x = sum(float(v) for v in nb.x_dists) / (alpha_q * nb.p)
    raw_y = sum(float(v) for v in nb.y_dists) / (alpha_q * nb.q)
    raw_xy = float(nb.dxy) / alpha_q
    var = 0.0
    for raw in (raw_x, raw_y, raw_xy):
        prob = (1.0 + raw) / 2.0
        var += 4.0 * prob * (1.0 - prob) / config.shots
    return alpha_q * math.sqrt(var)


# --------------------------------------------------------------------------
# case 2: p = q
# --------------------------------------------------------------------------

def _completion_permutation(n: int, targets: Sequence[int]) -> PermutationSpec:
    """Permutation sending targets[i] -> i, remaining indices ascending."""
    mapping = [-1] * n
    used_dst = set(range(len(targets)))
    for i, src in enumerate(targets):
        mapping[src] = i
    free_dst = iter(sorted(set(range(n)) - used_dst))
    for src in range(n):
        if mapping[src] < 0:
            mapping[src] = next(free_dst)
    return PermutationSpec(dim=n, map=tuple(mapping))


def localize_DG(be: BlockEncoding, meta: DistanceEncodingMeta,
                X: Sequence[int], Y: Sequence[int],
                audit: AuditTrail | None = None) -> BlockEncoding:
    """Localize the grid encoding to the p^2 cost block, in (j, i) order.

    Conjugates by the relabeling permutation (X -> 0..p-1 on the row
    register, Y -> 0..p-1 on the column register), selects the top-left
    block, and SWAP-conjugates so the entry at index j*p + i is
    d(X[i], Y[j]) / alpha_q.
    """
    if len(X) != len(Y):
        raise SizeMismatch(f"|X| = {len(X)} but |Y| = {len(Y)}")
    p = len(X)
    n = _grid_side(be)
    for v in list(X) + list(Y):
        if not 0 <= v < n:
            raise IndexOutOfRange(f"index {v} outside [0, {n})")
    perm_rows = _completion_permutation(n, X)
    perm_cols = _completion_permutation(n, Y)
    grid_map = tuple(perm_rows.map[a] * n + perm_cols.map[b]
                     for a in range(n) for b in range(n))
    grid_perm = PermutationSpec(dim=n * n, map=grid_map)
    relabeled = grid_perm.conjugate_diagonal(np.real(be.op))
    block = relabeled.reshape(n, n)[:p, :p]
    swapped = block.T.ravel().copy()
    out = BlockEncoding(op=swapped, subnorm=be.subnorm, err=be.err,
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
    sl = np.real(dg_local.op)[(i - 1) * p: i * p].copy()
    out = BlockEncoding(op=sl, subnorm=dg_local.subnorm, err=dg_local.err,
                        ancilla_dim=dg_local.ancilla_dim)
    if audit is not None:
        audit.record(f"extract_D{i}", out)
    return out


def build_DP(ds: Sequence[BlockEncoding], dim_cap: int = DEFAULT_DIM_CAP,
             audit: AuditTrail | None = None) -> BlockEncoding:
    """Tensor sum D_P over dimension p^p, encoded as D_P / (p * alpha_q).

    Each term is I^(i-1) (x) D_i (x) I^(p-i) via the tensor rule, and the
    uniform LCU divides by p; the representation is rescaled afterwards
    so op stays the raw sum operator. p = 1 degenerates to D_1 itself.
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
    subnorm = ds[0].subnorm
    terms = []
    for i, d_i in enumerate(ds):
        term = d_i
        if i > 0:
            term = bk.be_tensor(bk.be_identity(p ** i), term)
        if i < p - 1:
            term = bk.be_tensor(term, bk.be_identity(p ** (p - 1 - i)))
        terms.append(term)
    combined = bk.be_lcu(terms, [1] * p)
    out = bk.rescaled_representation(combined, subnorm)
    if audit is not None:
        audit.record("build_DP", out)
    return out


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


def _distinct_digit_mask(p: int) -> np.ndarray:
    idx = np.arange(p ** p)
    powers = p ** np.arange(p - 1, -1, -1)
    digits = (idx[:, None] // powers) % p
    sorted_digits = np.sort(digits, axis=1)
    if p == 1:
        return np.ones(1, dtype=bool)
    return np.all(np.diff(sorted_digits, axis=1) != 0, axis=1)


def build_Pi(p: int, route: str = "direct", dim_cap: int = DEFAULT_DIM_CAP,
             audit: AuditTrail | None = None) -> BlockEncoding:
    """Projector onto all-distinct digit tuples, encoded as Pi / p!.

    The direct route wraps the 0/1 diagonal at subnorm p!; the purified
    route prepares the uniform copy state over the p! permutation
    indices and takes its reduced density matrix, which equals the
    direct route.
    """
    if p < 1:
        raise SizeMismatch("p must be >= 1")
    if p ** p > dim_cap:
        raise DimensionCap(f"p^p = {p ** p} exceeds cap {dim_cap}")
    mask = _distinct_digit_mask(p)
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
        out = bk.be_density(StateVector(amps), dim_a=dim, dim_b=dim)
    else:
        raise ValueError(f"unknown projector route {route!r}")
    if audit is not None:
        audit.record(f"build_Pi[{route}]", out, rank=int(np.count_nonzero(mask)))
    return out


def min_eigen_power(be: BlockEncoding, kappa_a: float, eps: float = 1e-10,
                    seed=None, max_iter: int = 100_000,
                    audit: AuditTrail | None = None) -> EigenEstimate:
    """Minimum nonzero eigenvalue of a diagonal encoding via power method.

    Forms the pseudoinverse encoding, runs power iteration from a seeded
    random unit vector restricted to the support, and stops when
    successive Rayleigh quotients differ by less than eps. Failure to
    converge within max_iter is reported through converged=False, not
    raised.
    """
    diag = np.real(be.encoded) if be.is_diagonal else None
    if diag is None:
        raise SpectrumOutOfRange("power stage expects a diagonal composite")
    support = diag != 0.0
    if not np.any(support):
        raise SpectrumOutOfRange("composite has no nonzero spectrum")
    inv = bk.be_invert(be, kappa_a, mode="exact")
    a = np.real(inv.encoded)

    rng = np.random.default_rng(seed)
    x = rng.standard_normal(be.dim) * support
    norm = float(np.linalg.norm(x))
    if norm == 0.0:
        raise ZeroOverlap("start vector vanished on the support")
    x /= norm

    a_max = float(np.max(a))
    target = a >= a_max * (1 - 1e-12)
    gamma0 = float(np.linalg.norm(x[target]))
    if gamma0 == 0.0:
        raise ZeroOverlap("start vector orthogonal to the target eigenspace")

    trace: list[float] = []
    r_prev = None
    converged = False
    residual = math.inf
    iterations = 0
    for _ in range(max_iter):
        y = a * x
        r = float(x @ y)
        iterations += 1
        trace.append(r)
        residual = float(np.linalg.norm(y - r * x))
        if residual <= eps * max(1.0, abs(r)):
            converged = True
            break
        if r_prev is not None and abs(r - r_prev) < eps:
            converged = True
            residual = abs(r - r_prev)
            break
        r_prev = r
        x = y / float(np.linalg.norm(y))

    nz = np.sort(diag[support])
    lam1 = float(nz[0])
    higher = nz[nz > lam1 * (1 + 1e-12)]
    gap_proxy = float(higher[0] / lam1) if higher.size else math.inf

    estimate = EigenEstimate(
        value=1.0 / (kappa_a * trace[-1]),
        iterations=iterations,
        initial_overlap=gamma0,
        gap_proxy=gap_proxy,
        converged=converged,
        residual=residual,
        rayleigh_trace=tuple(trace),
    )
    if audit is not None:
        audit.note("min_eigen_power", value=estimate.value,
                   iterations=iterations, initial_overlap=gamma0,
                   gap_proxy=gap_proxy, converged=converged)
    return estimate


def w1_pq_qsim(nb: LocalNeighborhood,
               encoding: tuple[BlockEncoding, DistanceEncodingMeta],
               config: QsimConfig = QsimConfig(),
               audit: AuditTrail | None = None) -> CurvatureResult:
    """Full p = q pipeline for one neighborhood.

    `encoding` is the (be, meta) from build_distance_encoding over the
    distances that nb's X and Y index: the graph's geodesics, or
    cost_grid(cost) for a bare cost matrix.
    """
    p = nb.p
    if p != nb.q:
        raise NotSquare(f"pipeline needs p = q, got p={nb.p}, q={nb.q}")
    if p ** p > config.dim_cap:
        raise DimensionCap(f"p^p = {p ** p} exceeds cap {config.dim_cap}")
    be, meta = encoding
    local = localize_DG(be, meta, nb.X, nb.Y, audit=audit)
    columns = [extract_Di(local, i, audit=audit) for i in range(1, p + 1)]
    dp = build_DP(columns, dim_cap=config.dim_cap, audit=audit)
    pi = build_Pi(p, route="direct", dim_cap=config.dim_cap, audit=audit)
    composite = bk.be_product(pi, dp)
    if audit is not None:
        audit.record("composite", composite)
    encoded = np.real(composite.encoded)
    nonzero = encoded[encoded != 0.0]
    kappa_a = (1 + 1e-9) / float(np.min(nonzero))
    estimate = min_eigen_power(composite, kappa_a, eps=config.eps,
                               seed=config.seed, max_iter=config.max_iter,
                               audit=audit)
    w1 = estimate.value * math.factorial(p) * meta.alpha_q
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


def pq_qsim_from_cost(cost, dxy, config: QsimConfig = QsimConfig(),
                      audit: AuditTrail | None = None) -> CurvatureResult:
    """p = q pipeline on a bare cost matrix, through its cost_grid."""
    nb = LocalNeighborhood.from_cost(cost, dxy)
    encoding = build_distance_encoding(
        cost_grid(nb.cost), margin=config.margin, power_mode=config.power_mode,
        power_degree=config.power_degree,
        power_eps_target=config.power_eps_target, audit=audit)
    return w1_pq_qsim(nb, encoding, config, audit=audit)
