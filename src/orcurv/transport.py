"""Exact Wasserstein-1 solvers and curvature assembly.

Every solver here runs its combinatorial core in exact arithmetic:
float inputs are read as the dyadic rationals they are (losslessly),
solved exactly, and converted back on output. That makes the
cross-solver identities equality-based. Every solver follows one rule
for its output type: W1 is exact (int or Fraction) iff every number the
solver reads is exact, and a float otherwise. w1_lp, w1_assignment and
w1_bruteforce read the cost block; w1_tree reads the center-to-neighbor
distances and dxy.

Solvers:
  w1_lp           general transport LP on the complete bipartite graph
                  K_{p,q}: supplies 1/p and demands 1/q are scaled by p*q
                  to the integers q and p, and the cost block is lifted to
                  integers over one common denominator (a float through
                  float.as_integer_ratio, never one Fraction per entry).
                  Successive shortest paths with potentials return an
                  integer flow; the supplied rows are folded into each
                  column's nearest supplied row, and an arc of reduced
                  cost 0 from it is filled without a search.
                  TransportPlan checks its marginals in ints and builds
                  gamma = flow / (p*q) only when read; the final
                  potentials are a dual certificate, checked in ints,
                  that the plan is optimal.
  w1_tree         decomposable-cost closed form for tree graphs
  w1_assignment   lexicographically smallest optimal permutation for the
                  p = q case: the same K_{p,p} core and certificate, on
                  the lifted block with an integer tie-break term
  w1_bruteforce   exhaustive permutation minimum (oracle, p <= 9)
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from typing import Sequence

from .errors import (
    InfiniteCost,
    MethodMismatch,
    NotATree,
    NotSquare,
    TooLarge,
)
from .graph import LocalNeighborhood, Weight, _is_rational

CLASSICAL_METHODS = ("lp", "tree", "assignment", "brute_force")
QSIM_METHODS = ("qsim_tree", "qsim_pq")
ALL_METHODS = CLASSICAL_METHODS + QSIM_METHODS
#: largest device dimension p^p the p = q pipeline builds: `qpipeline`
#: reads it, and `orc --cap` defaults to it without importing numpy
DEFAULT_DIM_CAP = 10 ** 6

_BRUTE_FORCE_CAP = 9


# --------------------------------------------------------------------------
# result types
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TransportPlan:
    """Optimal transport plan as an integer flow on the p*q-scaled LP.

    flow[i][j] = p*q * gamma[i][j]: every row sums to q, every column to
    p, and no entry is negative. The marginals are checked on these
    integers; gamma, the plan with marginals 1/p and 1/q as Fractions, is
    built only when read.
    """

    p: int
    q: int
    flow: tuple[tuple[int, ...], ...]
    cost_value: Weight

    def __post_init__(self) -> None:
        if len(self.flow) != self.p or any(len(row) != self.q for row in self.flow):
            raise AssertionError("flow shape does not match p x q")
        for i, row in enumerate(self.flow):
            if sum(row) != self.q:
                raise AssertionError(f"row {i} marginal violated")
        for j, col in enumerate(zip(*self.flow)):
            if sum(col) != self.p:
                raise AssertionError(f"column {j} marginal violated")
        if any(x < 0 for row in self.flow for x in row):
            raise AssertionError("negative transport mass")

    @cached_property
    def gamma(self) -> tuple[tuple[Fraction, ...], ...]:
        n = self.p * self.q
        return tuple(tuple(Fraction(f, n) for f in row) for row in self.flow)


@dataclass(frozen=True)
class AssignmentSolution:
    """Optimal permutation for a square instance; cost_value = min / p."""

    p: int
    pi: tuple[int, ...]
    cost_value: Weight

    def __post_init__(self) -> None:
        if sorted(self.pi) != list(range(self.p)):
            raise AssertionError("pi is not a permutation")


@dataclass(frozen=True)
class CurvatureResult:
    """Edge curvature 1 - W1/d_G(x, y), derived from w1 and dxy."""

    x: int | None
    y: int | None
    w1: Weight
    dxy: Weight
    method: str
    diagnostics: object = None

    def __post_init__(self) -> None:
        if self.method not in ALL_METHODS:
            raise MethodMismatch(f"unknown method {self.method!r}")
        if not self.dxy > 0:
            raise AssertionError("dxy must be positive")
        if self.w1 < 0:
            raise AssertionError("w1 must be nonnegative")

    @property
    def curvature(self) -> Weight:
        """1 - w1 / dxy, exact when both are."""
        return 1 - self.w1 / self.dxy

    @classmethod
    def from_w1(cls, w1: Weight, dxy: Weight, method: str,
                x: int | None = None, y: int | None = None,
                diagnostics: object = None) -> "CurvatureResult":
        return cls(x=x, y=y, w1=w1, dxy=dxy, method=method, diagnostics=diagnostics)


# --------------------------------------------------------------------------
# numeric-mode helpers
# --------------------------------------------------------------------------

def _emit(value: Fraction | int, rational: bool) -> Weight:
    return value if rational else float(value)


def _lift_block(cost: Sequence[Sequence[Weight]]) -> tuple[list[list[int]], int, bool]:
    """One pass over rows of numbers, such as a cost block: (integer rows,
    common denominator, rational).

    block[i][j] / den == cost[i][j] exactly. A float enters through
    float.as_integer_ratio(), whose denominator is a power of two, so no
    entry becomes a Fraction. rational is False when any entry is a float
    (or otherwise not an int or Fraction).
    """
    if all(type(x) is int for row in cost for x in row):
        return [list(row) for row in cost], 1, True
    ratios = []
    rational = True
    for row in cost:
        out = []
        for x in row:
            if isinstance(x, float):
                if not math.isfinite(x):
                    raise InfiniteCost(f"cost entry {x!r} is not finite")
                rational = False
                out.append(x.as_integer_ratio())
            else:
                rational = rational and _is_rational(x)
                out.append((x.numerator, x.denominator))
        ratios.append(out)
    den = math.lcm(*{d for row in ratios for _, d in row})
    return [[n * (den // d) for n, d in row] for row in ratios], den, rational


# --------------------------------------------------------------------------
# bipartite transport (general LP route)
# --------------------------------------------------------------------------

def _transport(c: list[list[int]], p: int, q: int) -> tuple[list[list[int]], list[int], list[int]]:
    """Integral min-cost transport on K_{p,q}: supply q per row, demand p per column.

    Successive shortest paths with Johnson potentials. Every row with
    supply left is a source at distance 0 (such rows keep potential 0)
    and the first column settled with demand left is the sink; every
    column with demand left keeps one common potential, so no explicit
    source or sink node is needed. The sources are folded into best[j],
    the supplied row nearest column j (the lowest index on ties), which
    is recomputed only for the columns whose best row runs dry, and a
    column with demand whose best arc has reduced cost 0 is filled
    without a search: that arc is a shortest path of length 0. A search
    starts from every column at its best arc's reduced cost; rows enter
    it only through reverse arcs column -> row, where the flow is
    positive, and scan their forward arcs to every column. After each
    search every potential grows by min(dist, dist[sink]), which keeps
    all reduced costs nonnegative.

    Returns the flow matrix and the final row and column potentials.
    """
    inf = math.inf
    flow = [[0] * q for _ in range(p)]
    used: list[dict[int, int]] = [{} for _ in range(q)]   # used[j][i] = flow[i][j] > 0
    supply = [q] * p
    demand = [p] * q
    pot_r = [0] * p
    pot_c = [0] * q
    cols = range(q)
    by_col = list(zip(*c))      # by_col[j][i] = c[i][j]
    rows = list(range(p))       # rows with supply left, ascending
    best = [min(rows, key=col.__getitem__) for col in by_col]
    todo = list(cols)           # columns whose best arc may have become tight
    dry = -1                    # a row whose supply has just run out
    left = p * q
    while left:
        if dry >= 0:
            rows.remove(dry)
            for j in cols:
                if best[j] == dry:
                    best[j] = min(rows, key=by_col[j].__getitem__)
                    todo.append(j)
            dry = -1
        if todo:
            j = todo.pop()
            i = best[j]
            if demand[j] and by_col[j][i] == pot_c[j]:
                push = min(supply[i], demand[j])
                flow[i][j] += push
                used[j][i] = flow[i][j]
                demand[j] -= push
                supply[i] -= push
                left -= push
                if not supply[i]:
                    dry = i
            continue
        # heap entries are (distance, i) for row i and (distance, ~j) for column j
        dist_r = [0 if s else inf for s in supply]
        dist_c = [col[i] - pc for col, i, pc in zip(by_col, best, pot_c)]
        prev_r = [-1] * p    # column whose reverse arc reached the row; -1 for a source
        prev_c = best[:]     # row whose forward arc reached the column
        heap = [(d, ~j) for j, d in enumerate(dist_c)]
        heapify(heap)
        while True:
            # every column starts on the heap and one has demand left, so a sink is found
            d, v = heappop(heap)
            if v >= 0:
                if d > dist_r[v]:
                    continue
                base = d + pot_r[v]
                for j, cij, pj, dj in zip(cols, c[v], pot_c, dist_c):
                    nd = base + cij - pj
                    if nd < dj:
                        dist_c[j] = nd
                        prev_c[j] = v
                        heappush(heap, (nd, ~j))
            else:
                j = ~v
                if d > dist_c[j]:
                    continue
                if demand[j]:
                    sink = j
                    break
                base = d + pot_c[j]
                for i in used[j]:
                    nd = base - c[i][j] - pot_r[i]
                    if nd < dist_r[i]:
                        dist_r[i] = nd
                        prev_r[i] = j
                        heappush(heap, (nd, i))
        top = dist_c[sink]
        pot_r = [pr + (d if d < top else top) for pr, d in zip(pot_r, dist_r)]
        pot_c = [pc + (d if d < top else top) for pc, d in zip(pot_c, dist_c)]
        # bottleneck along the path sink <- row <- column <- ... <- source row
        push = demand[sink]
        j = sink
        while True:
            i = prev_c[j]
            if prev_r[i] < 0:
                push = min(push, supply[i])
                break
            j = prev_r[i]
            push = min(push, flow[i][j])
        demand[sink] -= push
        j = sink
        while True:
            i = prev_c[j]
            flow[i][j] += push
            used[j][i] = flow[i][j]
            if prev_r[i] < 0:
                supply[i] -= push
                if not supply[i]:
                    dry = i
                break
            j = prev_r[i]
            flow[i][j] -= push
            if flow[i][j]:
                used[j][i] = flow[i][j]
            else:
                del used[j][i]
        left -= push
        todo = [j for j in cols if demand[j]]
    return flow, pot_r, pot_c


def _check_dual(c: list[list[int]], flow: list[list[int]],
                pot_r: list[int], pot_c: list[int]) -> None:
    """Optimality certificate, in integers.

    Every reduced cost c_ij + pot_r[i] - pot_c[j] is nonnegative, and it
    is zero wherever flow[i][j] > 0. With a feasible flow this is
    complementary slackness: the potentials are a dual solution of equal
    value, so no plan costs less.
    """
    for i, (row, frow) in enumerate(zip(c, flow)):
        pi = pot_r[i]
        for cij, f, pj in zip(row, frow, pot_c):
            reduced = cij + pi - pj
            if reduced < 0 or (f and reduced):
                raise AssertionError(f"dual certificate violated in row {i}")


def w1_lp(nb: LocalNeighborhood) -> TransportPlan:
    """Globally optimal transport plan for the uniform-marginal LP.

    Supplies 1/p and demands 1/q are scaled by p*q to the integers q and
    p, the cost block is lifted to integers over one common denominator,
    and the bipartite solver returns an integer flow whose optimality its
    final potentials certify. Dividing back gives the exact optimum.
    """
    p, q = nb.p, nb.q
    c, den, rational = _lift_block(nb.cost)
    flow, pot_r, pot_c = _transport(c, p, q)
    _check_dual(c, flow, pot_r, pot_c)
    total = sum(f * cij for row, frow in zip(c, flow) for cij, f in zip(row, frow))
    value = Fraction(total, den * p * q)
    return TransportPlan(p=p, q=q, flow=tuple(map(tuple, flow)),
                         cost_value=_emit(value, rational))


# --------------------------------------------------------------------------
# tree closed form
# --------------------------------------------------------------------------

def w1_tree(nb: LocalNeighborhood) -> Weight:
    """Closed-form W1 for decomposable costs (graph is a tree).

    Returns mean(d(x_i, x)) + d(x, y) + mean(d(y, y_j)), summed exactly
    over the distances lifted as _lift_block lifts a cost block; exact
    iff every one of them is. The caller asserts treeness (`verify_tree`).
    """
    if nb.x_dists is None or nb.y_dists is None:
        raise NotATree("tree closed form needs center-to-neighbor distances")
    (xs, (dxy,), ys), den, rational = _lift_block((nb.x_dists, (nb.dxy,), nb.y_dists))
    value = Fraction(sum(xs), den * nb.p) + Fraction(dxy, den) + Fraction(sum(ys), den * nb.q)
    return _emit(value, rational)


# --------------------------------------------------------------------------
# assignment (p = q) routes
# --------------------------------------------------------------------------

def _lift_square(cost: Sequence[Sequence[Weight]]) -> tuple[list[list[int]], int, bool]:
    """_lift_block of a cost matrix that must be square (p = q)."""
    if any(len(row) != len(cost) for row in cost):
        widths = sorted({len(row) for row in cost})
        raise NotSquare(f"cost matrix must be square, got p={len(cost)}, "
                        f"q={widths[0] if len(widths) == 1 else widths}")
    return _lift_block(cost)


def w1_assignment(cost: Sequence[Sequence[Weight]]) -> AssignmentSolution:
    """Exact linear assignment on the bipartite transport core (p = q route).

    Ties go to the lexicographically smallest optimal permutation. The
    lifted block c is solved as c'[r][j] = c[r][j] * p^p + r * p^(p-1-j):
    pi's tie term is pi read as a base-p number, at most p^p - 1 < p^p,
    so it orders only permutations of equal cost, lexicographically, and
    c' has one optimum. Every push is p, so the flow is p times pi's
    permutation matrix; the dual certificate proves it optimal.
    """
    c, den, rational = _lift_square(cost)
    p = len(c)
    scale = p ** p
    tie = [p ** (p - 1 - j) for j in range(p)]
    tied = [[cij * scale + r * t for cij, t in zip(row, tie)] for r, row in enumerate(c)]
    flow, pot_r, pot_c = _transport(tied, p, p)
    _check_dual(tied, flow, pot_r, pot_c)
    cols = list(zip(*flow))
    if any(sorted(col) != [0] * (p - 1) + [p] for col in cols):
        raise AssertionError("assignment flow is not p times a permutation matrix")
    pi = tuple(col.index(p) for col in cols)
    total = sum(c[i][j] for j, i in enumerate(pi))
    return AssignmentSolution(p=p, pi=pi, cost_value=_emit(Fraction(total, den * p), rational))


def w1_bruteforce(cost: Sequence[Sequence[Weight]]) -> AssignmentSolution:
    """Exhaustive assignment minimum over all p! permutations (p <= 9).

    The first minimum in lexicographic order wins ties; independent of
    the transport core, it is the oracle for w1_assignment.
    """
    c, den, rational = _lift_square(cost)
    p = len(c)
    if p > _BRUTE_FORCE_CAP:
        raise TooLarge(f"brute force capped at p <= {_BRUTE_FORCE_CAP}, got {p}")
    def total(perm):
        return sum(c[i][j] for j, i in enumerate(perm))

    pi = min(itertools.permutations(range(p)), key=total)
    return AssignmentSolution(p=p, pi=pi, cost_value=_emit(Fraction(total(pi), den * p), rational))


# --------------------------------------------------------------------------
# curvature assembly
# --------------------------------------------------------------------------

def curvature(nb: LocalNeighborhood, method: str = "lp") -> CurvatureResult:
    """Edge curvature via the chosen classical W1 route.

    method is one of "lp", "tree", "assignment", "brute_force". The
    assignment routes refuse p != q with NotSquare; for "tree" the caller
    asserts that the graph is a tree (`verify_tree`).
    """
    if method not in CLASSICAL_METHODS:
        raise MethodMismatch(
            f"method {method!r} is not a classical solver; use the qsim pipeline")
    if method == "lp":
        w1 = w1_lp(nb).cost_value
    elif method == "tree":
        w1 = w1_tree(nb)
    elif method in ("assignment", "brute_force"):
        solver = w1_assignment if method == "assignment" else w1_bruteforce
        w1 = solver(nb.cost).cost_value
    return CurvatureResult.from_w1(w1=w1, dxy=nb.dxy, method=method,
                                   x=nb.x, y=nb.y)
