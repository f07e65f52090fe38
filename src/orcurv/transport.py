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
                  integers over one common denominator (a float block
                  scaled by a power of two, never one Fraction per entry).
                  A transportation simplex, kept nondegenerate by an
                  integer perturbation of the marginals, returns an
                  integer flow on a spanning tree of K_{p,q}: a vertex
                  of the transportation polytope.
                  TransportPlan checks its marginals in ints and builds
                  gamma = flow / (p*q) only when read; the final
                  potentials are a dual certificate, checked in ints,
                  that the plan is optimal.
  w1_tree         decomposable-cost closed form for tree graphs
  w1_assignment   lexicographically smallest optimal permutation for the
                  p = q case: the same simplex core on K_{p,p} and the
                  same certificate, on the lifted block with an integer
                  tie-break term that makes that permutation the only
                  optimum
  w1_bruteforce   exhaustive permutation minimum (oracle, p <= 9)
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property
from operator import rshift, sub
from typing import Sequence

from .errors import (
    CurvatureOverflow,
    InfiniteCost,
    MethodMismatch,
    NotATree,
    NotSquare,
    TooLarge,
)
from .graph import LocalNeighborhood, Weight, _Frozen, _is_rational

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

class TransportPlan(_Frozen):
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

    def __init__(self, p: int, q: int, flow: tuple[tuple[int, ...], ...],
                 cost_value: Weight) -> None:
        if len(flow) != p or any(len(row) != q for row in flow):
            raise AssertionError("flow shape does not match p x q")
        for i, row in enumerate(flow):
            if sum(row) != q:
                raise AssertionError(f"row {i} marginal violated")
        for j, col in enumerate(zip(*flow)):
            if sum(col) != p:
                raise AssertionError(f"column {j} marginal violated")
        if any(x < 0 for row in flow for x in row):
            raise AssertionError("negative transport mass")
        self._freeze(p=p, q=q, flow=flow, cost_value=cost_value)

    @cached_property
    def gamma(self) -> tuple[tuple[Fraction, ...], ...]:
        n = self.p * self.q
        return tuple(tuple(Fraction(f, n) for f in row) for row in self.flow)


class AssignmentSolution(_Frozen):
    """Optimal permutation for a square instance; cost_value = min / p."""

    p: int
    pi: tuple[int, ...]
    cost_value: Weight

    def __init__(self, p: int, pi: tuple[int, ...], cost_value: Weight) -> None:
        if sorted(pi) != list(range(p)):
            raise AssertionError("pi is not a permutation")
        self._freeze(p=p, pi=pi, cost_value=cost_value)


class CurvatureResult(_Frozen):
    """Edge curvature 1 - W1/d_G(x, y), derived from w1 and dxy. A float
    curvature that leaves float range is CurvatureOverflow."""

    x: int | None
    y: int | None
    w1: Weight
    dxy: Weight
    method: str
    diagnostics: object

    def __init__(self, x: int | None, y: int | None, w1: Weight, dxy: Weight, method: str,
                 diagnostics: object = None) -> None:
        if method not in ALL_METHODS:
            raise MethodMismatch(f"unknown method {method!r}")
        if not dxy > 0:
            raise AssertionError("dxy must be positive")
        if w1 < 0:
            raise AssertionError("w1 must be nonnegative")
        if (isinstance(w1, float) or isinstance(dxy, float)) and not math.isfinite(1 - w1 / dxy):
            raise CurvatureOverflow(f"1 - W1/d(x, y) with W1 = {w1!r}, d(x, y) = {dxy!r} "
                                    "leaves float range; rational weights keep it exact")
        self._freeze(x=x, y=y, w1=w1, dxy=dxy, method=method, diagnostics=diagnostics)

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
    """Rows of numbers, such as a cost block, lifted to (integer rows,
    least common denominator, rational); each row keeps its own length.

    block[i][j] / den == cost[i][j] exactly, and no entry becomes a
    Fraction. An all-int block is copied as is. An all-float block is
    lifted in builtin passes, not one ratio per entry: it is scaled by
    2**shift, which makes its least nonzero magnitude, and so every
    entry, an integer; then the power of two those integers share is
    divided out, so the block and den are the ones `_lift_entries` gives.
    Any other block, and a float block with a non-finite entry or a
    range that no one scale keeps in float range, goes entry by entry.
    rational is False when any entry is a float (or otherwise not an
    int or Fraction).
    """
    types = set(map(type, itertools.chain.from_iterable(cost)))
    if types <= {int}:
        return [list(row) for row in cost], 1, True
    if types == {float}:
        try:
            least = min(map(abs, filter(None, itertools.chain.from_iterable(cost))),
                        default=1.0)
            shift = max(0, 53 - math.frexp(least)[1])
            block = [list(map(int, map(math.ldexp, row, itertools.repeat(shift))))
                     for row in cost]
        except (OverflowError, ValueError):    # int() of an inf or a nan, or ldexp's range
            return _lift_entries(cost)
        common = math.gcd(*itertools.chain.from_iterable(block))
        spare = min(shift, (common & -common).bit_length() - 1) if common else shift
        if spare:
            block = [list(map(rshift, row, itertools.repeat(spare))) for row in block]
        return block, 1 << (shift - spare), False
    return _lift_entries(cost)


def _lift_entries(cost: Sequence[Sequence[Weight]]) -> tuple[list[list[int]], int, bool]:
    """_lift_block entry by entry: a float through float.as_integer_ratio(),
    whose denominator is a power of two, anything else through its
    numerator and denominator; den is their least common multiple.
    InfiniteCost for a non-finite float."""
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

    A transportation simplex (the network simplex on K_{p,q}), kept
    nondegenerate in integers by Orden's perturbation. With N = 2p + 1
    it solves supplies q*N + 1 per row and demands p*N per column, the
    last column p*N + p.

    No proper subset balances: r rows and s columns balance only if
    r*(q*N + 1) = s*p*N (+ p with the last column). Mod N that is r = 0
    without the last column, so s = 0, or r = p with it, so s = q. So
    every basis is a spanning tree with positive flow on all p + q - 1
    of its cells, and every pivot moves theta > 0: the cost strictly
    falls, no basis repeats, and the simplex terminates. The leaving
    cell is unique, since two would leave a zero on the next tree.

    Recovery: a tree cell carries the net supply of the side of the tree
    that holds its row, which is N times the unperturbed tree flow x0
    plus (rows on that side) - (p if the last column is there), a term
    within [-p, p]. As 0 <= that term + p <= 2p < N, x0 = (x + p) // N:
    the unperturbed basic solution on the final tree, a vertex of the
    original polytope that the final potentials prove optimal.

    Start: the least-cost method (cells in cost order, row-major on
    ties); its p + q - 1 fills form the tree. The tree is rooted at row
    0 with parent, depth and children; rows are nodes 0..p-1, column j
    is node p + j, and flow[k] is the flow on the cell from node k to
    its parent. Pricing scans the rows cyclically from the one after the
    last entering row and enters the most negative cell of the first row
    that has one; a full cycle without one is the optimality test. A
    pivot walks up from both ends of the entering cell to close the
    cycle, drops the minus cell of least flow, re-hangs the cut-off
    subtree under the entering cell's other end and shifts that
    subtree's potentials by the entering reduced cost.

    Returns the flow matrix and row and column potentials with
    c[i][j] + pot_r[i] - pot_c[j] >= 0 everywhere and = 0 on the tree.
    """
    big = 2 * p + 1
    n = p + q
    supply = [q * big + 1] * p
    demand = [p * big] * q
    demand[-1] += p
    flat = list(itertools.chain.from_iterable(c))
    tree: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    fills = n - 1
    for k in sorted(range(p * q), key=flat.__getitem__):
        i = k // q
        s = supply[i]
        if s:
            j = k - i * q
            d = demand[j]
            if d:
                x = s if s < d else d
                supply[i] = s - x
                demand[j] = d - x
                tree[i].append((p + j, x))
                tree[p + j].append((i, x))
                fills -= 1
                if not fills:
                    break
    parent = [-1] * n
    depth = [0] * n
    flow = [0] * n
    pot = [0] * n       # row potentials, then column potentials
    children: list[list[int]] = [[] for _ in range(n)]
    order = [0]
    for k in order:
        for m, x in tree[k]:
            if m != parent[k]:
                parent[m] = k
                depth[m] = depth[k] + 1
                flow[m] = x
                pot[m] = pot[k] + c[k][m - p] if k < p else pot[k] - c[m][k - p]
                children[k].append(m)
                order.append(m)
    bi = p - 1
    while True:
        cols = pot[p:]
        for i in itertools.chain(range(bi + 1, p), range(bi + 1)):
            best = min(map(sub, c[i], cols)) + pot[i]
            if best < 0:
                break
        else:
            break
        bi = i
        bj = list(map(sub, c[bi], cols)).index(best - pot[bi])
        # the cycle: the tree paths from both ends up to their meeting node
        a, b = bi, p + bj
        side_a: list[int] = []
        side_b: list[int] = []
        while a != b:
            if depth[a] >= depth[b]:
                side_a.append(a)
                a = parent[a]
            else:
                side_b.append(b)
                b = parent[b]
        # the cells keyed at even places from either end lose theta
        minus = side_a[::2] + side_b[::2]
        minus_flows = [flow[k] for k in minus]
        theta = min(minus_flows)
        out = minus[minus_flows.index(theta)]
        for k in minus:
            flow[k] -= theta
        for k in side_a[1::2] + side_b[1::2]:
            flow[k] += theta
        if out in side_a:
            path = side_a[:side_a.index(out) + 1]
            up, shift = p + bj, -best
        else:
            path = side_b[:side_b.index(out) + 1]
            up, shift = bi, best
        # re-hang the path from the entering end up to out, reversed
        f = theta
        for k in path:
            old, old_f = parent[k], flow[k]
            children[old].remove(k)
            parent[k], flow[k] = up, f
            children[up].append(k)
            up, f = k, old_f
        stack = [path[0]]
        while stack:
            k = stack.pop()
            depth[k] = depth[parent[k]] + 1
            pot[k] += shift
            stack += children[k]
    plan = [[0] * q for _ in range(p)]
    for k in range(1, n):
        x = (flow[k] + p) // big
        if x:
            if k < p:
                plan[k][parent[k] - p] = x
            else:
                plan[parent[k]][k - p] = x
    return plan, pot[:p], pot[p:]


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
    iff every one of them is. NotATree for a neighborhood not on a tree.
    """
    if nb.x_dists is None or nb.y_dists is None:
        raise NotATree("tree closed form needs a neighborhood taken on a tree")
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
    assignment routes refuse p != q with NotSquare, and "tree" refuses a
    neighborhood not taken on a tree with NotATree.
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
