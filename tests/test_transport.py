"""Exact transport solvers: golden values, oracle triangles, invariants."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import orcurv.transport
from helpers import (
    internal_edges,
    nwc_plan_cost,
    random_cost_matrix,
    random_neighborhood,
    random_tree,
    scale_nb,
    to_float_nb,
    transport_flows,
)
from orcurv.errors import (
    CurvatureOverflow,
    InfiniteCost,
    MethodMismatch,
    NotATree,
    NotSquare,
    TooLarge,
)
from orcurv.graph import (
    Graph,
    LocalNeighborhood,
    all_pairs_geodesic,
    load_graph,
    neighborhood,
    verify_tree,
)
from orcurv.transport import (
    CurvatureResult,
    TransportPlan,
    _lift_block,
    _lift_entries,
    curvature,
    w1_assignment,
    w1_bruteforce,
    w1_lp,
    w1_tree,
)
from reference import _UnionFind, lp_vertex_oracle, spanning_tree_count

APPENDIX_COST = [[1, 3, 3, 2], [2, 3, 3, 3], [3, 2, 2, 3]]


def appendix_nb() -> LocalNeighborhood:
    return LocalNeighborhood.from_cost(APPENDIX_COST, 1)


# --- general LP ----------------------------------------------------------------

def test_lp_appendix_golden():
    plan = w1_lp(appendix_nb())
    assert plan.cost_value == Fraction(25, 12)
    # plan cost recomputes to the reported value
    recomputed = sum(Fraction(APPENDIX_COST[i][j]) * plan.gamma[i][j]
                     for i in range(3) for j in range(4))
    assert recomputed == Fraction(25, 12)


def test_lp_matches_reference_plan_cost():
    # a known optimal plan for this instance; ours may differ but never its cost
    ref_gamma = {(0, 0): Fraction(1, 4), (0, 3): Fraction(1, 12),
                 (1, 2): Fraction(1, 6), (1, 3): Fraction(1, 6),
                 (2, 1): Fraction(1, 4), (2, 2): Fraction(1, 12)}
    ref_cost = sum(Fraction(APPENDIX_COST[i][j]) * g for (i, j), g in ref_gamma.items())
    assert ref_cost == Fraction(25, 12)
    assert w1_lp(appendix_nb()).cost_value == ref_cost


def test_lp_single_pair():
    nb = LocalNeighborhood.from_cost([[Fraction(7, 3)]], 2)
    plan = w1_lp(nb)
    assert plan.gamma == ((Fraction(1),),)
    assert plan.cost_value == Fraction(7, 3)


def test_lp_marginals_exact_random():
    rng = random.Random(2)
    for _ in range(40):
        p, q = rng.randint(1, 6), rng.randint(1, 6)
        nb = random_neighborhood(p, q, rng, denominators=(1, 2, 3, 7))
        plan = w1_lp(nb)
        for i in range(p):
            assert sum(plan.gamma[i]) == Fraction(1, p)
        for j in range(q):
            assert sum(row[j] for row in plan.gamma) == Fraction(1, q)


def test_lp_gamma_is_flow_over_pq():
    rng = random.Random(3)
    for _ in range(20):
        p, q = rng.randint(1, 7), rng.randint(1, 7)
        plan = w1_lp(random_neighborhood(p, q, rng, denominators=(1, 2, 9)))
        assert all(isinstance(f, int) for row in plan.flow for f in row)
        assert plan.gamma == tuple(tuple(Fraction(f, p * q) for f in row)
                                   for row in plan.flow)


@pytest.mark.parametrize("flow, problem", [
    (((2, 1), (1, 1)), "row 0 marginal"),
    (((2, 0), (2, 0)), "column 0 marginal"),
    (((3, -1), (-1, 3)), "negative transport mass"),
    (((1, 1),), "shape"),
], ids=["row-sum", "column-sum", "negative", "shape"])
def test_transport_plan_refuses_bad_flow(flow, problem):
    # p = q = 2: rows must sum to q = 2 and columns to p = 2
    with pytest.raises(AssertionError, match=problem):
        TransportPlan(p=2, q=2, flow=flow, cost_value=0)


@pytest.mark.parametrize("flow, pot_c", [
    ([[0, 2], [2, 0]], [0, 0]),
    ([[2, 0], [0, 2]], [0, 6]),
], ids=["suboptimal-flow", "negative-reduced-cost"])
def test_lp_dual_certificate_refuses(monkeypatch, flow, pot_c):
    # a feasible but costlier flow with zero potentials has positive flow
    # where the reduced cost is positive; the optimal flow with potentials
    # that leave a reduced cost below zero proves nothing either; both
    # flows are also 2 x a permutation matrix, as an assignment flow is
    nb = LocalNeighborhood.from_cost([[0, 5], [5, 0]], 1)
    assert w1_lp(nb).cost_value == 0
    assert w1_assignment(nb.cost).cost_value == 0
    monkeypatch.setattr(orcurv.transport, "_transport",
                        lambda c, p, q: (flow, [0, 0], pot_c))
    with pytest.raises(AssertionError, match="dual certificate"):
        w1_lp(nb)
    with pytest.raises(AssertionError, match="dual certificate"):
        w1_assignment(nb.cost)


def linprog_w1(cost) -> float:
    """The uniform-marginal transport LP of a p x q block, solved by scipy."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    p, q = len(cost), len(cost[0])
    # gamma[i][j] at index i*q + j; row sums 1/p, column sums 1/q
    a_eq = np.zeros((p + q, p * q))
    for i in range(p):
        a_eq[i, i * q:(i + 1) * q] = 1.0
    for j in range(q):
        a_eq[p + j, j::q] = 1.0
    b_eq = [1.0 / p] * p + [1.0 / q] * q
    ref = linprog(np.ravel(np.array(cost, dtype=float)), A_eq=a_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs")
    assert ref.status == 0
    return ref.fun


def test_lp_matches_scipy_linprog_on_float_blocks():
    rng = random.Random(47)
    for p, q in [(1, 40), (40, 1), (7, 11), (23, 17), (31, 40), (40, 38)]:
        cost = [[rng.uniform(0.5, 10.0) for _ in range(q)] for _ in range(p)]
        value = w1_lp(LocalNeighborhood.from_cost(cost, 1.0)).cost_value
        ref = linprog_w1(cost)
        assert isinstance(value, float)
        assert abs(value - ref) <= 1e-9 * max(1.0, ref)


def test_lp_matches_scipy_linprog_on_tied_integer_blocks():
    # entries in {0, 1, 2, 3}, the costs of an unweighted graph's
    # neighborhoods: many columns share their nearest row, and many
    # arcs are tight at once
    rng = random.Random(53)
    for p, q in [(1, 40), (40, 1), (1, 1), (3, 5), (12, 9), (17, 33), (29, 40), (40, 40)]:
        cost = [[rng.randint(0, 3) for _ in range(q)] for _ in range(p)]
        for block in (cost, [list(col) for col in zip(*cost)]):
            value = w1_lp(LocalNeighborhood.from_cost(block, 1)).cost_value
            ref = linprog_w1(block)
            assert isinstance(value, Fraction)
            assert abs(float(value) - ref) <= 1e-9 * max(1.0, ref)


@pytest.mark.parametrize("block", [
    [[4] * 4 for _ in range(3)],
    [[3, 1, 2, 1]] * 4,
    [[0] * 3 for _ in range(5)],
    [[1, 1, 2], [1, 1, 2], [2, 2, 1], [2, 2, 1]],
    [[(i + j) % 2 for j in range(4)] for i in range(4)],
    [[1, 2, 3, 4, 5, 6, 7, 8]],
], ids=["all-equal", "repeated-row", "all-zero", "paired-ties", "checkerboard", "single-row"])
def test_lp_equals_vertex_oracle_on_degenerate_blocks(block):
    nb = LocalNeighborhood.from_cost(block, 1)
    assert w1_lp(nb).cost_value == lp_vertex_oracle(nb)
    transposed = LocalNeighborhood.from_cost([list(col) for col in zip(*block)], 1)
    assert w1_lp(transposed).cost_value == lp_vertex_oracle(nb)


def assert_forest(flow, p, q):
    """The positive cells of a p x q flow form a forest of K_{p,q}."""
    cells = [(i, j) for i, row in enumerate(flow) for j, f in enumerate(row) if f]
    assert len(cells) <= p + q - 1
    uf = _UnionFind(p + q)
    assert all(uf.union(i, p + j) for i, j in cells)


ROW_80 = [7 * j % 10 for j in range(80)]


@pytest.mark.parametrize("block, value", [
    pytest.param([[7] * 60 for _ in range(60)], 7, id="all-equal-60x60"),
    pytest.param([ROW_80], Fraction(sum(ROW_80), 80), id="one-row-80"),
    pytest.param([[x] for x in ROW_80], Fraction(sum(ROW_80), 80), id="one-column-80"),
    pytest.param([[(i + j) % 2 for j in range(40)] for i in range(40)], 0,
                 id="checkerboard-40x40"),
])
def test_lp_degenerate_blocks_beyond_the_oracles(block, value):
    # every cell of the all-equal block is tight, half of the
    # checkerboard's are, and a single row or column fixes the plan
    plan = w1_lp(LocalNeighborhood.from_cost(block, 1))
    assert plan.cost_value == value
    assert_forest(plan.flow, plan.p, plan.q)


def test_lp_tied_60x45_blocks_match_scipy_linprog():
    rng = random.Random(67)
    for _ in range(2):
        cost = [[rng.randint(0, 3) for _ in range(45)] for _ in range(60)]
        for block in (cost, [list(col) for col in zip(*cost)]):
            plan = w1_lp(LocalNeighborhood.from_cost(block, 1))
            ref = linprog_w1(block)
            assert plan.cost_value == Fraction(round(ref * 60 * 45), 60 * 45)
            assert_forest(plan.flow, plan.p, plan.q)


def test_assignment_all_equal_p9_is_the_identity():
    with transport_flows() as flows:
        sol = w1_assignment([[5] * 9 for _ in range(9)])
    assert sol.pi == tuple(range(9))
    assert sol.cost_value == 5
    assert flows == [[[9 if i == j else 0 for j in range(9)] for i in range(9)]]
    assert_forest(flows[0], 9, 9)


def test_lp_float_mode_consistency():
    rng = random.Random(8)
    for _ in range(20):
        nb = random_neighborhood(rng.randint(1, 5), rng.randint(1, 5), rng)
        exact = w1_lp(nb).cost_value
        fl = w1_lp(to_float_nb(nb)).cost_value
        assert isinstance(fl, float)
        assert abs(fl - float(exact)) <= 1e-12 * max(1.0, float(exact))


def test_lp_infinite_cost():
    nb = LocalNeighborhood.from_cost([[1.0, math.inf]], 1.0)
    with pytest.raises(InfiniteCost):
        w1_lp(nb)


def test_lp_never_beaten_by_greedy_filler():
    rng = random.Random(13)
    for _ in range(200):
        p, q = rng.randint(1, 6), rng.randint(1, 6)
        nb = random_neighborhood(p, q, rng, denominators=(1, 2, 5))
        assert w1_lp(nb).cost_value <= nwc_plan_cost(nb.cost)


# --- tree closed form -----------------------------------------------------------

def test_tree_path_fixture():
    g = load_graph("0 1\n1 2\n2 3")  # x1-x-y-y1
    dg = all_pairs_geodesic(g)
    nb = neighborhood(g, dg, 1, 2)
    assert w1_tree(nb) == 3
    res = curvature(nb, method="tree")
    assert res.curvature == -2


def test_tree_star_fixture():
    g = load_graph("1 0\n2 0\n0 3\n3 4")  # x=0 with neighbors {1,2}, y=3 with {4}
    dg = all_pairs_geodesic(g)
    nb = neighborhood(g, dg, 0, 3)
    assert w1_tree(nb) == 3


def test_tree_needs_center_distances():
    with pytest.raises(NotATree):
        w1_tree(appendix_nb())
    # a neighborhood off a tree carries none: on the 4-cycle the closed
    # form would read 3, where W1 is 1
    g = load_graph("0 1\n1 2\n2 3\n3 0")
    nb = neighborhood(g, all_pairs_geodesic(g), 0, 1)
    for route in (w1_tree, lambda nb: curvature(nb, method="tree")):
        with pytest.raises(NotATree):
            route(nb)
    assert w1_lp(nb).cost_value == 1


def test_tree_equals_lp_on_random_trees():
    rng = random.Random(17)
    for _ in range(10):
        exact = random_tree(rng.randint(4, 60), rng, max_weight=7)
        # the same tree in float mode, its weights quarters so that every
        # float path sum is exact; w1_tree lifts ragged rows there
        floats = Graph(exact.vertex_count, [(u, v, w / 4) for u, v, w in exact.edges])
        for g, kind in ((exact, (int, Fraction)), (floats, float)):
            dg = all_pairs_geodesic(g)
            for x, y in internal_edges(g):
                nb = neighborhood(g, dg, x, y)
                w1, lp = w1_tree(nb), w1_lp(nb).cost_value
                assert isinstance(w1, kind) and type(w1) is type(lp)
                assert w1 == lp


def test_finite_float_blocks_lift_without_a_ratio_per_entry(monkeypatch):
    entries = []
    monkeypatch.setattr(orcurv.transport, "_lift_entries",
                        lambda cost: entries.append(cost) or _lift_entries(cost))
    # 0.1 = 3602879701896397 / 2^55, so 2^55 is the least den of the block
    assert _lift_block(((0.1, 0.0), (3.0,), (-0.0, 0.5, 2.0 ** 60))) == (
        [[3602879701896397, 0], [3 * 2 ** 55], [0, 2 ** 54, 2 ** 115]], 2 ** 55, False)
    assert _lift_block([[1.0, 3.0], [0.0, 2.0 ** 70]]) == ([[1, 3], [0, 2 ** 70]], 1, False)
    assert entries == []
    # only a non-finite entry or a range beyond one scale reads ratios
    for block in ([[1.0, math.inf]], [[math.nan, 1.0]], [[1.0], [-math.inf]]):
        with pytest.raises(InfiniteCost):
            _lift_block(block)
    wide = [[2.0 ** -1000, 2.0 ** 1000]]
    assert _lift_block(wide) == ([[1, 2 ** 2000]], 2 ** 1000, False)
    assert len(entries) == 4


def test_tree_equals_mean_cost_identity():
    # on decomposable costs any feasible plan is optimal, e.g. the uniform one
    rng = random.Random(23)
    g = random_tree(30, rng, max_weight=5)
    dg = all_pairs_geodesic(g)
    for x, y in internal_edges(g):
        nb = neighborhood(g, dg, x, y)
        uniform = sum(Fraction(v) for row in nb.cost for v in row)
        assert w1_tree(nb) == uniform / (nb.p * nb.q)


# --- assignment routes -----------------------------------------------------------

def test_assignment_tie_toward_identity():
    sol = w1_assignment([[1, 2], [3, 4]])
    assert sol.cost_value == Fraction(5, 2)
    assert sol.pi == (0, 1)


def test_assignment_constant_matrix():
    for p in (1, 2, 4):
        c = [[7] * p for _ in range(p)]
        assert w1_assignment(c).cost_value == 7


def test_assignment_non_square():
    with pytest.raises(NotSquare):
        w1_assignment([[1, 2, 3], [4, 5, 6]])


def test_assignment_rational_exact():
    cost = [[Fraction(1, 3), Fraction(2, 7)], [Fraction(5, 11), Fraction(1, 13)]]
    sol = w1_assignment(cost)
    assert sol.cost_value == min(
        (cost[0][0] + cost[1][1]) / 2, (cost[1][0] + cost[0][1]) / 2)


def test_bruteforce_trivia():
    assert w1_bruteforce([[1, 2], [3, 4]]).cost_value == Fraction(5, 2)
    assert w1_bruteforce([[0, 9], [9, 0]]).cost_value == 0
    assert w1_bruteforce([[1, 2, 3], [2, 1, 3], [3, 3, 1]]).cost_value == 1


def test_bruteforce_cap():
    with pytest.raises(TooLarge):
        w1_bruteforce([[1] * 10 for _ in range(10)])


def test_assignment_runs_the_transport_core_once(monkeypatch):
    calls = []
    solve = orcurv.transport._transport

    def counted(c, p, q):
        calls.append((p, q))
        return solve(c, p, q)

    monkeypatch.setattr(orcurv.transport, "_transport", counted)
    rng = random.Random(41)
    for p in range(1, 7):
        w1_assignment(random_cost_matrix(p, p, rng, max_value=2))
        assert calls == [(p, p)]
        calls.clear()


def test_assignment_refuses_a_flow_that_is_not_a_permutation(monkeypatch):
    # zero potentials certify this flow (its one positive entry has reduced
    # cost 0), but column 1 receives nothing, so it is no assignment
    monkeypatch.setattr(orcurv.transport, "_transport",
                        lambda c, p, q: ([[2, 0], [0, 0]], [0, 0], [0, 0]))
    with pytest.raises(AssertionError, match="permutation matrix"):
        w1_assignment([[0, 5], [5, 0]])


def test_assignment_matches_bruteforce():
    rng = random.Random(29)
    for _ in range(60):
        p = rng.randint(1, 6)
        cost = random_cost_matrix(p, p, rng, denominators=(1, 2, 3))
        a = w1_assignment(cost)
        b = w1_bruteforce(cost)
        assert a.cost_value == b.cost_value
        assert a.pi == b.pi  # both break ties lexicographically


# --- vertex oracle ----------------------------------------------------------------

def test_vertex_oracle_appendix():
    assert lp_vertex_oracle(appendix_nb()) == Fraction(25, 12)


def test_vertex_oracle_single():
    nb = LocalNeighborhood.from_cost([[Fraction(9, 4)]], 1)
    assert lp_vertex_oracle(nb) == Fraction(9, 4)


def test_vertex_oracle_cap():
    nb = random_neighborhood(5, 5, random.Random(0))
    with pytest.raises(TooLarge):
        lp_vertex_oracle(nb)


def test_vertex_oracle_cross_check():
    rng = random.Random(31)
    for _ in range(40):
        p, q = rng.randint(1, 4), rng.randint(1, 4)
        nb = random_neighborhood(p, q, rng, denominators=(1, 3, 4))
        assert lp_vertex_oracle(nb) == w1_lp(nb).cost_value


def test_spanning_tree_counts_match_formula():
    for p, q in [(1, 1), (1, 4), (2, 2), (2, 3), (3, 3), (2, 5), (3, 4)]:
        assert spanning_tree_count(p, q) == p ** (q - 1) * q ** (p - 1)


# --- curvature assembly ----------------------------------------------------------

def test_curvature_appendix():
    res = curvature(appendix_nb(), method="lp")
    assert res.curvature == Fraction(-13, 12)
    assert res.w1 == Fraction(25, 12)
    assert res.dxy == 1


def test_curvature_zero_cost():
    nb = LocalNeighborhood.from_cost([[0, 0], [0, 0]], 2)
    assert curvature(nb, method="lp").curvature == 1


def test_curvature_method_mismatch():
    nb = appendix_nb()  # p=3, q=4
    for method in ("assignment", "brute_force"):
        with pytest.raises(NotSquare, match="p=3, q=4"):
            curvature(nb, method=method)
    with pytest.raises(MethodMismatch):
        curvature(nb, method="qsim_pq")


def test_float_curvature_beyond_float_range_is_refused():
    # 1 - W1/d(x, y) overflows to -inf, or is nan, which no report may carry
    for w1, dxy in ((2e200, 1e-200), (1e308, 0.5), (math.inf, math.inf)):
        with pytest.raises(CurvatureOverflow, match="leaves float range"):
            CurvatureResult(x=1, y=2, w1=w1, dxy=dxy, method="lp")
    assert CurvatureResult(x=1, y=2, w1=1e308, dxy=1.0, method="lp").curvature == 1 - 1e308
    # rational results are exact, however large
    big = CurvatureResult(x=1, y=2, w1=2 * 10 ** 400, dxy=Fraction(1, 10 ** 400), method="lp")
    assert big.curvature == 1 - 2 * 10 ** 800


def test_curvature_square_methods_agree():
    rng = random.Random(37)
    for _ in range(15):
        p = rng.randint(1, 5)
        nb = random_neighborhood(p, p, rng)
        r1 = curvature(nb, method="lp")
        r2 = curvature(nb, method="assignment")
        r3 = curvature(nb, method="brute_force")
        assert r1.curvature == r2.curvature == r3.curvature


def test_verify_tree_cases():
    assert verify_tree(load_graph("0 1\n1 2"))
    assert not verify_tree(load_graph("0 1\n1 2\n0 2"))


# --- global invariants -----------------------------------------------------------

def test_scale_equivariance_exact():
    rng = random.Random(41)
    for _ in range(25):
        nb = random_neighborhood(rng.randint(1, 4), rng.randint(1, 4), rng,
                                 denominators=(1, 2))
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        scaled = scale_nb(nb, lam)
        base = curvature(nb, method="lp")
        big = curvature(scaled, method="lp")
        assert big.w1 == lam * base.w1
        assert big.dxy == lam * base.dxy
        assert big.curvature == base.curvature


def test_curvature_never_exceeds_one():
    rng = random.Random(43)
    for _ in range(50):
        nb = random_neighborhood(rng.randint(1, 5), rng.randint(1, 5), rng,
                                 max_value=6, denominators=(1, 2, 3))
        assert curvature(nb, method="lp").curvature <= 1
