"""Reference implementations that only the tests call.

Independent oracles and composition rules that the program itself never
runs: the transportation-polytope vertex enumeration (oracle of w1_lp),
the Kronecker and uniform-LCU block-encoding rules (oracle of
qpipeline.build_DP), the density-matrix encoding (the purified
projector route in full_route.py), the explicit unitary dilation and the
full-vector overlap (oracles of blockenc.dilated_apply and
dilated_overlap), the Chebyshev stages a device would run in place of
the exact be_power and be_invert (which check the degree rules
blockenc.default_power_degree and default_inverse_degree), the
per-vector power loop (oracle of qpipeline.min_eigen_power) with a
start vector that carries the stage's seeded weights, the N^2
form of the distance encoding (oracle of qpipeline.DistanceEncoding and
the entries its stages encode) and a finiteness check on geodesics.

The program's BlockEncoding holds a real diagonal only and, its stages
being exact, no error. The Chebyshev stages and the oracle rules here
carry one: ApproxEncoding is a BlockEncoding with an `err` field, and
err_of reads an exact encoding's as 0. The dilation and the
density-matrix encoding also take or give dense operators, which
DenseEncoding holds here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from orcurv import qpipeline
from orcurv.blockenc import (
    BlockEncoding,
    StateVector,
    _hadamard_test,
    be_invert,
    be_power,
    default_inverse_degree,
    default_power_degree,
)
from orcurv.errors import (
    DegenerateAllZero,
    DimMismatch,
    InfiniteDistance,
    OrcError,
    SpectrumOutOfRange,
    SubnormTooSmall,
    TooLarge,
    ZeroOverlap,
)
from orcurv.graph import INF, LocalNeighborhood, Weight
from orcurv.qpipeline import AuditTrail, EigenEstimate
from orcurv.transport import _emit, _lift_block

_VERTEX_ORACLE_CAP = 9
MAX_POLY_DEGREE = 5000
#: accuracy the Chebyshev stages aim at when no degree is given
EPS_TARGET = 1e-6


class DigitOutOfRange(OrcError):
    """A base-p digit lies outside [1, p]."""


class BadFactorization(OrcError):
    """Declared tensor factor dimensions do not match the state."""


class InexactEncoding(OrcError):
    """Unitary dilation requires an error-free encoding."""


def all_finite(dg: Sequence[Sequence[Weight]]) -> bool:
    """True when every pair of vertices is connected (dg: geodesic rows)."""
    return all(x != INF for row in dg for x in row)


# --------------------------------------------------------------------------
# transportation-polytope vertex oracle
# --------------------------------------------------------------------------

class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def _tree_flows(edges: tuple[tuple[int, int], ...], p: int, q: int) -> list[tuple[int, int, int]] | None:
    """Integer basic solution on one spanning tree of K_{p,q}.

    Supplies are q per left node and demands p per right node (the LP
    scaled by p*q). Returns None when any flow would go negative.
    """
    n = p + q
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid, (i, j) in enumerate(edges):
        adj[i].append((p + j, eid))
        adj[p + j].append((i, eid))
    balance = [q] * p + [-p] * q
    degree = [len(a) for a in adj]
    removed = [False] * len(edges)
    flows = [0] * len(edges)
    leaves = [v for v in range(n) if degree[v] == 1]
    for _ in range(len(edges)):
        v = leaves.pop()
        u, eid = next((u, e) for u, e in adj[v] if not removed[e])
        f = balance[v] if v < p else -balance[v]
        if f < 0:
            return None
        flows[eid] = f
        balance[u] += balance[v]
        balance[v] = 0
        removed[eid] = True
        degree[u] -= 1
        degree[v] -= 1
        if degree[u] == 1:
            leaves.append(u)
    return [(edges[eid][0], edges[eid][1], flows[eid])
            for eid in range(len(edges)) if flows[eid] > 0]


@lru_cache(maxsize=None)
def _basic_solutions(p: int, q: int) -> tuple[tuple[tuple[tuple[int, int, int], ...], ...], int]:
    """All feasible basic solutions of the (p, q) transportation polytope.

    Enumerates every spanning tree of K_{p,q} (edge subsets of size
    p + q - 1 checked with union-find), solves the unique tree flows, and
    keeps the feasible ones, deduplicated. Also returns the spanning-tree
    count, which must equal p^(q-1) * q^(p-1).
    """
    all_edges = [(i, j) for i in range(p) for j in range(q)]
    solutions: set[tuple[tuple[int, int, int], ...]] = set()
    tree_count = 0
    for subset in itertools.combinations(all_edges, p + q - 1):
        uf = _UnionFind(p + q)
        if all(uf.union(i, p + j) for i, j in subset):
            tree_count += 1
            flows = _tree_flows(subset, p, q)
            if flows is not None:
                solutions.add(tuple(sorted(flows)))
    return tuple(sorted(solutions)), tree_count


def spanning_tree_count(p: int, q: int) -> int:
    """Number of spanning trees of K_{p,q} seen by the oracle enumerator."""
    return _basic_solutions(p, q)[1]


def lp_vertex_oracle(nb: LocalNeighborhood) -> Weight:
    """Minimum LP cost over all vertices of the transportation polytope.

    Independent of w1_lp: candidates come from exhaustive spanning-tree
    enumeration, not from any optimization. Exact iff every cost entry
    is, the output rule of every classical solver. Guarded at p + q <= 9.
    """
    p, q = nb.p, nb.q
    if p + q > _VERTEX_ORACLE_CAP:
        raise TooLarge(f"vertex oracle capped at p + q <= {_VERTEX_ORACLE_CAP}")
    int_cost, den, rational = _lift_block(nb.cost)
    solutions, _ = _basic_solutions(p, q)
    best = min(sum(f * int_cost[i][j] for i, j, f in sol) for sol in solutions)
    return _emit(Fraction(best, den * p * q), rational)


# --------------------------------------------------------------------------
# block-encoding composition rules: identity, tensor, uniform LCU, density
# --------------------------------------------------------------------------

class ApproxEncoding(BlockEncoding):
    """A BlockEncoding with err, the deviation of its encoded block from
    the mathematical target. The Chebyshev stages grow it by a sampled
    sup error (an estimate, not a bound); the tensor and LCU rules carry
    it, and never decrease it."""

    err: float

    def __init__(self, op, subnorm: float, ancilla_dim: int = 2, err: float = 0.0) -> None:
        super().__init__(op, subnorm, ancilla_dim)
        err = float(err)
        if err < 0:
            raise ValueError("err must be nonnegative")
        self._freeze(err=err)


def err_of(b) -> float:
    """b.err, or 0 for an encoding of the program's exact stages."""
    return getattr(b, "err", 0.0)


@dataclass(frozen=True)
class DenseEncoding:
    """Block encoding of a square, possibly complex operator: encoded
    block op/subnorm, with ApproxEncoding's bookkeeping fields."""

    op: np.ndarray
    subnorm: float
    err: float = 0.0
    ancilla_dim: int = 2

    def __post_init__(self) -> None:
        op = np.asarray(self.op, dtype=np.complex128)
        if op.ndim != 2 or op.shape[0] != op.shape[1]:
            raise DimMismatch(f"operator must be square, got shape {op.shape}")
        object.__setattr__(self, "op", op)
        norm = float(np.linalg.norm(op, 2))
        if norm > self.subnorm * (1 + 1e-9):
            raise SubnormTooSmall(f"operator norm {norm} exceeds subnorm {self.subnorm}")

    @property
    def dim(self) -> int:
        return self.op.shape[0]


def dense(b: BlockEncoding | DenseEncoding) -> np.ndarray:
    """The encoded block of either representation as a matrix."""
    return np.diag(b.encoded) if isinstance(b, BlockEncoding) else b.op / b.subnorm


def be_identity(dim: int) -> BlockEncoding:
    return BlockEncoding(op=np.ones(dim), subnorm=1.0)


def be_tensor(b1: BlockEncoding, b2: BlockEncoding) -> ApproxEncoding:
    """Encoding of the Kronecker product b1.op (x) b2.op."""
    return ApproxEncoding(
        op=np.kron(b1.op, b2.op),
        subnorm=b1.subnorm * b2.subnorm,
        err=b1.subnorm * err_of(b2) + b2.subnorm * err_of(b1),
        ancilla_dim=b1.ancilla_dim * b2.ancilla_dim,
    )


def be_lcu(bs: Sequence[BlockEncoding], signs: Sequence[int] | None = None) -> ApproxEncoding:
    """Uniform linear combination: encoded value sum(+-encoded_i) / m."""
    if not bs:
        raise DimMismatch("LCU needs at least one encoding")
    m = len(bs)
    if signs is None:
        signs = [1] * m
    if len(signs) != m or any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be a list of +-1 matching the encodings")
    dim = bs[0].dim
    if any(b.dim != dim for b in bs):
        raise DimMismatch("LCU operands must share one dimension")
    acc = np.zeros(dim)
    for s, b in zip(signs, bs):
        acc = acc + s * b.op / b.subnorm
    ancilla = m
    for b in bs:
        ancilla *= b.ancilla_dim
    return ApproxEncoding(
        op=acc,
        subnorm=float(m),
        err=float(sum(err_of(b) / b.subnorm for b in bs)),
        ancilla_dim=ancilla,
    )


def be_density(phi: StateVector, dim_a: int, dim_b: int) -> ApproxEncoding | DenseEncoding:
    """Encoding of the reduced density matrix Tr_A |phi><phi|.

    The result has subnorm 1 and err 0: an ApproxEncoding when the
    partial trace comes out exactly diagonal, a DenseEncoding otherwise.
    """
    if dim_a < 1 or dim_b < 1 or dim_a * dim_b != phi.dim:
        raise BadFactorization(
            f"factor dims {dim_a} x {dim_b} do not match state dim {phi.dim}")
    c = phi.amps.reshape(dim_a, dim_b)
    rho = c.T @ c.conj()
    rho = (rho + rho.conj().T) / 2
    off = rho - np.diag(np.diagonal(rho))
    if not np.any(off):
        return ApproxEncoding(op=np.diagonal(rho).real.copy(), subnorm=1.0,
                              err=0.0, ancilla_dim=dim_a)
    return DenseEncoding(op=rho, subnorm=1.0, err=0.0, ancilla_dim=dim_a)


# --------------------------------------------------------------------------
# explicit dilation and full-vector states
# --------------------------------------------------------------------------

def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh((m + m.conj().T) / 2)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def be_dilate(b: BlockEncoding | DenseEncoding) -> np.ndarray:
    """Explicit unitary of dimension 2*dim whose top-left block encodes b.

    Standard contraction dilation [[A, sqrt(I-AA*)], [sqrt(I-A*A), -A*]];
    requires err = 0 and dim <= 64.
    """
    if err_of(b) != 0.0:
        raise InexactEncoding("dilation requires an exact encoding (err = 0)")
    if b.dim > 64:
        raise TooLarge(f"dilation capped at dim <= 64, got {b.dim}")
    a = dense(b).astype(np.complex128)
    eye = np.eye(b.dim)
    s1 = _psd_sqrt(eye - a @ a.conj().T)
    s2 = _psd_sqrt(eye - a.conj().T @ a)
    return np.block([[a, s1], [s2, -a.conj().T]])


def basis(dim: int, index: int) -> StateVector:
    amps = np.zeros(dim, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(amps)


def uniform(dim: int, support: Sequence[int]) -> StateVector:
    amps = np.zeros(dim, dtype=np.complex128)
    amps[list(support)] = 1.0 / math.sqrt(len(support))
    return StateVector(amps)


def normalized(raw) -> StateVector:
    arr = np.asarray(raw, dtype=np.complex128).ravel()
    norm = float(np.linalg.norm(arr))
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return StateVector(arr / norm)


def overlap(a: StateVector, b: StateVector, shots: int | None = None,
            seed=None) -> float:
    """Re<a|b>, exactly or through the Hadamard-test shot emulation that
    blockenc.dilated_overlap uses."""
    if a.dim != b.dim:
        raise DimMismatch(f"state dims differ: {a.dim} vs {b.dim}")
    return _hadamard_test(float(np.real(np.vdot(a.amps, b.amps))), shots, seed)


# --------------------------------------------------------------------------
# Chebyshev stages: the polynomial a device runs for x^c and 1/x
# --------------------------------------------------------------------------

def chebyshev_approx(fn, lo: float, hi: float, degree: int):
    """Chebyshev interpolant of fn on [lo, hi] plus its sup error, sampled
    on a uniform grid and on Chebyshev nodes (an estimate, not a bound)."""
    if degree > MAX_POLY_DEGREE:
        raise TooLarge(f"polynomial degree {degree} exceeds cap {MAX_POLY_DEGREE}")
    poly = np.polynomial.chebyshev.Chebyshev.interpolate(fn, degree, domain=[lo, hi])
    n_samples = max(4096, 8 * degree)
    grid = np.linspace(lo, hi, n_samples)
    cheb_nodes = lo + (hi - lo) * 0.5 * (1 + np.cos(np.linspace(0, np.pi, n_samples)))
    xs = np.concatenate([grid, cheb_nodes])
    sup = float(np.max(np.abs(poly(xs) - fn(xs))))
    return poly, sup * (1 + 1e-9) + 1e-16


def chebyshev_power(b: BlockEncoding, c: float, kappa_m: float,
                    degree: int | None = None) -> ApproxEncoding:
    """be_power through a degree-d interpolant of x^c on [1/kappa_m, 1]:
    op is the polynomial image and err grows by the sampled sup error.
    degree None takes default_power_degree(kappa_m, EPS_TARGET)."""
    exact = be_power(b, c, kappa_m)    # its checks, subnorm and ancilla_dim
    if degree is None:
        degree = default_power_degree(kappa_m, EPS_TARGET)
    poly, sup = chebyshev_approx(lambda x: x ** c, 1.0 / kappa_m, 1.0, degree)
    encoded = b.encoded
    return ApproxEncoding(
        op=np.where(encoded != 0.0, poly(encoded) * b.subnorm ** c, 0.0),
        subnorm=exact.subnorm, ancilla_dim=exact.ancilla_dim, err=err_of(b) + sup)


def chebyshev_invert(b: BlockEncoding, kappa_a: float,
                     degree: int | None = None) -> ApproxEncoding:
    """be_invert through a degree-d interpolant of 1/x on [1/kappa_a, 1],
    for a nonnegative diagonal: op is the polynomial image and err grows
    by the encoded-block deviation. degree None takes
    default_inverse_degree(kappa_a, EPS_TARGET)."""
    exact = be_invert(b, kappa_a)
    encoded = b.encoded
    if float(np.min(encoded)) < 0:
        raise SpectrumOutOfRange("chebyshev inversion needs a nonnegative diagonal")
    if degree is None:
        degree = default_inverse_degree(kappa_a, EPS_TARGET)
    poly, sup = chebyshev_approx(lambda x: 1.0 / x, 1.0 / kappa_a, 1.0, degree)
    return ApproxEncoding(
        op=np.where(encoded != 0.0, poly(encoded) / kappa_a * exact.subnorm, 0.0),
        subnorm=exact.subnorm, ancilla_dim=exact.ancilla_dim, err=err_of(b) + sup / kappa_a)


def power_start(be: BlockEncoding, kappa_a: float, seed=None) -> np.ndarray:
    """A start vector of length be.dim for min_eigen_power_loop with the
    weights qpipeline.min_eigen_power draws from `seed`: on the support,
    each distinct value of the pseudoinverse gets the chi^2 draw of its
    multiplicity as squared weight, spread evenly over its entries; off
    the support the start is 0."""
    support = be.encoded != 0.0
    values, group, counts = np.unique(be_invert(be, kappa_a).encoded[support],
                                      return_inverse=True, return_counts=True)
    weights = np.random.default_rng(seed).chisquare(counts)
    start = np.zeros(be.dim)
    start[support] = np.sqrt(weights / counts)[group]
    return start


def min_eigen_power_loop(be: BlockEncoding, kappa_a: float, start: np.ndarray,
                         eps: float = 1e-10) -> EigenEstimate:
    """qpipeline.min_eigen_power as one power step per iteration on the
    whole vector: y = A x, r = x.y, stop when r > a2 and
    ||y - r x||^2 <= eps * r * (r - a2), else x = y / ||y||. The cap is
    read from qpipeline.MAX_POWER_ITERATIONS on each call."""
    diag = be.encoded
    support = diag != 0.0
    if not np.any(support):
        raise SpectrumOutOfRange("composite has no nonzero spectrum")
    inv = be_invert(be, kappa_a)
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

    converged = False
    iterations = 0
    for _ in range(qpipeline.MAX_POWER_ITERATIONS):
        y = a * x
        r = float(x @ y)
        iterations += 1
        res = y - r * x
        if r > a2 and float(res @ res) <= eps * r * (r - a2):
            converged = True
            break
        x = y / float(np.linalg.norm(y))

    return EigenEstimate(
        value=1.0 / (kappa_a * r),
        iterations=iterations,
        initial_overlap=gamma0,
        gap_proxy=gap_proxy,
        converged=converged,
    )


def grid_distance_encoding(dg, margin: float = 0.05, audit: AuditTrail | None = None,
                           power=be_power) -> ApproxEncoding:
    """The distance encoding over all N^2 grid entries, as the pipeline
    built it before it encoded only the distances a stage reads: the grid
    as float64, the checks over every entry, the fourth powers wrapped at
    alpha = ((1 + margin) * max d)^4 and `power` (be_power, or
    chebyshev_power) at c = 1/4 on the whole diagonal. Entry r * N + c of
    op is the encoded d(r, c)."""
    if margin < 0:
        raise ValueError("margin must be >= 0")
    try:
        dist = np.asarray([[float(x) for x in row] for row in dg], dtype=np.float64)
    except OverflowError as exc:
        raise InfiniteDistance("a distance is beyond float range") from exc
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise DimMismatch("distance matrix must be square")
    if not np.all(np.isfinite(dist)):
        raise InfiniteDistance("distance matrix contains non-finite entries")
    if np.any(dist < 0):
        raise InfiniteDistance("distances must be nonnegative")
    max_d = float(np.max(dist))
    if max_d == 0.0:
        raise DegenerateAllZero("all distances are zero")
    min_d = float(np.min(dist[dist > 0.0]))
    try:
        alpha = ((1.0 + margin) * max_d) ** 4
        kappa = (max_d / min_d) ** 4
        kappa_m = alpha / min_d ** 4
        if not (math.isfinite(kappa) and math.isfinite(kappa_m)):
            raise OverflowError("kappa is not finite")
    except (OverflowError, ZeroDivisionError) as exc:
        raise InfiniteDistance("distances leave the float range") from exc
    be = power(BlockEncoding(op=dist.ravel() ** 4, subnorm=alpha), 0.25, kappa_m)
    if audit is not None:
        audit.record("distance_encoding", be, kappa=kappa, alpha=alpha)
    return ApproxEncoding(op=be.op, subnorm=be.subnorm, err=err_of(be), ancilla_dim=be.ancilla_dim)
