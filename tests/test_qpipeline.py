"""Quantum-pipeline simulation: stages, recovery scaling, oracles."""

import math
import random

import numpy as np
import pytest

import orcurv.qpipeline
from helpers import (
    corrupt_alpha_q,
    full_route_overlap,
    internal_edges,
    random_cost_matrix,
    random_tree,
)
from orcurv.blockenc import be_product, be_wrap
from orcurv.errors import (
    DegenerateAllZero,
    DigitOutOfRange,
    DimensionCap,
    IndexOutOfRange,
    InfiniteDistance,
    NotATree,
    NotSquare,
    SizeMismatch,
)
from orcurv.graph import LocalNeighborhood, all_pairs_geodesic, load_graph, neighborhood
from orcurv.qpipeline import (
    AuditTrail,
    QsimConfig,
    build_distance_encoding,
    build_DP,
    build_Pi,
    extract_Di,
    localize_DG,
    min_eigen_power,
    perm_index,
    pq_qsim_from_cost,
    tree_overlap_sum,
    tree_qsim_standard_error,
    w1_pq_qsim,
    w1_tree_qsim,
)
from orcurv.transport import w1_assignment, w1_bruteforce, w1_tree

APPENDIX_COST = [[1, 3, 3, 2], [2, 3, 3, 3], [3, 2, 2, 3]]


def two_block_grid(cost):
    p, q = len(cost), len(cost[0])
    rows = np.zeros((p + q, p + q))
    block = np.array([[float(v) for v in row] for row in cost])
    rows[:p, p:] = block
    rows[p:, :p] = block.T
    return rows


def localized_for(cost, margin=0.0):
    p = len(cost)
    grid = two_block_grid(cost)
    be, meta = build_distance_encoding(grid, margin=margin)
    local = localize_DG(be, meta, list(range(p)), list(range(p, 2 * p)))
    return local, meta


# --- distance encoding -----------------------------------------------------------

def test_encoding_constant_distances():
    d = np.array([[0.0, 4.0], [4.0, 0.0]])
    be, meta = build_distance_encoding(d, margin=0.0)
    encoded = be.encoded
    nonzero = encoded[encoded != 0]
    assert np.allclose(nonzero, 0.5)
    assert meta.kappa == 1.0


def test_encoding_two_values():
    d = np.array([[0.0, 1.0], [1.0, 2.0]])  # synthetic; values {1, 2}
    be, meta = build_distance_encoding(d, margin=0.0)
    encoded = np.sort(np.unique(be.encoded[be.encoded != 0]))
    assert np.allclose(encoded, [0.25, 0.5])
    assert meta.kappa == pytest.approx(16.0)
    assert meta.alpha == pytest.approx(16.0)
    assert meta.alpha_q == pytest.approx(4.0)


def test_encoding_appendix_distance_set():
    grid = two_block_grid(APPENDIX_COST)
    be, meta = build_distance_encoding(grid, margin=0.0)
    assert meta.alpha_q == pytest.approx(6.0)
    nz = be.op[be.op != 0]
    flat = grid.ravel()
    assert np.allclose(be.op, flat, atol=1e-12)  # encoded * alpha_q == d
    assert set(np.round(nz, 9)) == {1.0, 2.0, 3.0}
    assert np.allclose(be.encoded[be.op != 0], nz / 6.0)


def test_encoding_margin_keeps_spectrum_interior():
    d = np.array([[0.0, 3.0], [3.0, 0.0]])
    be, _ = build_distance_encoding(d, margin=0.05)
    assert float(np.max(be.encoded)) < 0.5


def test_encoding_chebyshev_mode_reports_error():
    grid = two_block_grid(APPENDIX_COST)
    exact, _ = build_distance_encoding(grid, margin=0.0)
    approx, _ = build_distance_encoding(grid, margin=0.0, power_mode="chebyshev")
    assert approx.err > 0
    assert float(np.max(np.abs(approx.encoded - exact.encoded))) <= approx.err


def test_encoding_rejects_bad_input():
    with pytest.raises(InfiniteDistance):
        build_distance_encoding(np.array([[0.0, math.inf], [math.inf, 0.0]]))
    with pytest.raises(DegenerateAllZero):
        build_distance_encoding(np.zeros((2, 2)))


# --- tree-case overlaps ------------------------------------------------------------

def test_overlap_sum_p1_formula():
    d = np.array([[0.0, 5.0], [5.0, 0.0]])
    be, meta = build_distance_encoding(d, margin=0.0)
    ov = tree_overlap_sum(be, meta, 0, [1])
    assert ov == pytest.approx(5.0 / (2 * meta.alpha_q))


def test_overlap_sum_p2_formula():
    d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 9.0], [2.0, 9.0, 0.0]])
    be, meta = build_distance_encoding(d, margin=0.0)
    ov = tree_overlap_sum(be, meta, 0, [1, 2])
    assert ov == pytest.approx(3.0 / (3 * meta.alpha_q))


def test_overlap_sum_random_recovery():
    rng = random.Random(19)
    g = random_tree(20, rng, max_weight=4)
    dg = all_pairs_geodesic(g)
    be, meta = build_distance_encoding(dg)
    for x, y in internal_edges(g)[:6]:
        nb = neighborhood(g, dg, x, y)
        ov = tree_overlap_sum(be, meta, x, nb.X)
        recovered = ov * meta.alpha_q * (nb.p + 1)
        assert recovered == pytest.approx(sum(float(v) for v in nb.x_dists), abs=1e-10)


def test_tree_overlaps_match_full_vector_route():
    # the support-only overlaps against the N^2-vector dilation they replace
    rng = random.Random(23)
    g = random_tree(30, rng, max_weight=3)
    dg = all_pairs_geodesic(g)
    be, meta = build_distance_encoding(dg)
    n = g.vertex_count
    pair_overlap = orcurv.qpipeline._basis_pair_overlap
    for x, y in internal_edges(g):
        nb = neighborhood(g, dg, x, y)
        for center, nbrs in ((x, nb.X), (y, nb.Y)):
            p = len(nbrs)
            support, amps = [center * n + v for v in nbrs], np.full(p, 1 / math.sqrt(p))
            unit = full_route_overlap(be, support, amps)
            assert abs(tree_overlap_sum(be, meta, center, nbrs) - unit * p / (p + 1)) <= 1e-15
            drawn = full_route_overlap(be, support, amps, shots=1000, seed=center)
            assert tree_overlap_sum(be, meta, center, nbrs, shots=1000, seed=center) == \
                drawn * p / (p + 1)
        assert pair_overlap(be, x, y) == full_route_overlap(be, [x * n + y], [1.0])
        assert pair_overlap(be, x, y, shots=1000, seed=x) == \
            full_route_overlap(be, [x * n + y], [1.0], shots=1000, seed=x)


def test_overlap_sum_index_validation():
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    be, meta = build_distance_encoding(d)
    with pytest.raises(IndexOutOfRange):
        tree_overlap_sum(be, meta, 5, [0])
    with pytest.raises(IndexOutOfRange):
        tree_overlap_sum(be, meta, 0, [1, 1])


def test_tree_qsim_path_fixture():
    g = load_graph("0 1\n1 2\n2 3")
    dg = all_pairs_geodesic(g)
    res = w1_tree_qsim(neighborhood(g, dg, 1, 2), build_distance_encoding(dg),
                       QsimConfig(seed=0))
    assert res.w1 == pytest.approx(3.0, abs=1e-12)
    assert res.curvature == pytest.approx(-2.0, abs=1e-12)
    assert res.method == "qsim_tree"


def test_tree_qsim_needs_graph_neighborhood():
    nb = LocalNeighborhood.from_cost([[1, 2], [3, 4]], 1)
    with pytest.raises(NotATree):
        w1_tree_qsim(nb, build_distance_encoding(two_block_grid(nb.cost)))


def test_tree_qsim_matches_closed_form():
    rng = random.Random(99)
    for _ in range(5):
        g = random_tree(rng.randint(6, 40), rng, max_weight=5)
        dg = all_pairs_geodesic(g)
        encoding = build_distance_encoding(dg)
        for x, y in internal_edges(g):
            nb = neighborhood(g, dg, x, y)
            res = w1_tree_qsim(nb, encoding, QsimConfig(seed=1))
            assert abs(res.w1 - float(w1_tree(nb))) <= 1e-10


def test_tree_qsim_shot_noise_within_five_se():
    rng = random.Random(7)
    g = random_tree(24, rng)
    dg = all_pairs_geodesic(g)
    encoding = build_distance_encoding(dg)
    shots = 10 ** 6
    for i, (x, y) in enumerate(internal_edges(g)):
        cfg = QsimConfig(shots=shots, seed=1000 + i)
        nb = neighborhood(g, dg, x, y)
        res = w1_tree_qsim(nb, encoding, cfg)
        se = tree_qsim_standard_error(nb, encoding, cfg)
        assert se > 0
        assert abs(res.w1 - float(w1_tree(nb))) <= 5 * se


def test_tree_qsim_audit_exposes_conventions():
    g = load_graph("0 1\n1 2\n2 3")
    dg = all_pairs_geodesic(g)
    audit = AuditTrail()
    w1_tree_qsim(neighborhood(g, dg, 1, 2), build_distance_encoding(dg, audit=audit),
                 QsimConfig(seed=0), audit=audit)
    stages = [r["stage"] for r in audit.records]
    assert "distance_encoding" in stages and "tree_recovery" in stages
    ov = next(r for r in audit.records if r["stage"] == "tree_overlap")
    assert ov["overlap_p1"] == pytest.approx(ov["overlap_unit"] * ov["p"] / (ov["p"] + 1))


# --- localization and extraction ----------------------------------------------------

def test_localize_p1():
    local, meta = localized_for([[4]])
    assert local.dim == 1
    assert local.op[0] == pytest.approx(4.0, abs=1e-12)
    assert local.subnorm == pytest.approx(meta.alpha_q)


def test_localize_ji_order():
    local, meta = localized_for([[1, 2], [3, 4]])
    assert np.allclose(local.op, [1, 3, 2, 4], atol=1e-12)


def test_localize_preserves_spectrum_multiset():
    cost = [[1, 2, 5], [3, 4, 6], [7, 8, 9]]
    grid = two_block_grid(cost)
    be, meta = build_distance_encoding(grid, margin=0.0)
    local = localize_DG(be, meta, [0, 1, 2], [3, 4, 5])
    got = sorted(np.round(local.op, 9))
    assert got == sorted(float(v) for row in cost for v in row)


def test_localize_size_mismatch():
    grid = two_block_grid([[1, 2], [3, 4]])
    be, meta = build_distance_encoding(grid)
    with pytest.raises(SizeMismatch):
        localize_DG(be, meta, [0], [2, 3])


def test_extract_columns():
    local, meta = localized_for([[1, 2], [3, 4]])
    d1 = extract_Di(local, 1)
    d2 = extract_Di(local, 2)
    assert np.allclose(d1.op, [1, 3], atol=1e-12)
    assert np.allclose(d2.op, [2, 4], atol=1e-12)
    with pytest.raises(IndexOutOfRange):
        extract_Di(local, 3)


def test_extract_multiset_covers_cost():
    rng = random.Random(3)
    cost = random_cost_matrix(3, 3, rng)
    local, _ = localized_for(cost)
    entries = []
    for i in range(1, 4):
        entries.extend(np.round(extract_Di(local, i).op, 9))
    assert sorted(entries) == sorted(float(v) for row in cost for v in row)


# --- tensor sum and projector --------------------------------------------------------

def test_build_dp_p2_hand_enumeration():
    local, meta = localized_for([[1, 2], [3, 4]])
    ds = [extract_Di(local, i) for i in (1, 2)]
    dp = build_DP(ds)
    assert np.allclose(dp.op, [3, 5, 5, 7], atol=1e-12)
    assert dp.subnorm == pytest.approx(2 * meta.alpha_q)


def test_build_dp_first_nine_block_pattern():
    rng = random.Random(5)
    cost = random_cost_matrix(3, 3, rng, max_value=9)
    c = [[float(v) for v in row] for row in cost]
    local, _ = localized_for(cost)
    dp = build_DP([extract_Di(local, i) for i in (1, 2, 3)])
    for k in range(9):
        expected = c[0][0] + c[k // 3][1] + c[k % 3][2]
        assert dp.op[k] == pytest.approx(expected, abs=1e-10)


def test_build_dp_random_index_decode():
    rng = random.Random(6)
    cost = random_cost_matrix(3, 3, rng)
    c = [[float(v) for v in row] for row in cost]
    local, _ = localized_for(cost)
    dp = build_DP([extract_Di(local, i) for i in (1, 2, 3)])
    for k in range(27):
        digits = [(k // 9) % 3 + 1, (k // 3) % 3 + 1, k % 3 + 1]
        expected = sum(c[digits[j] - 1][j] for j in range(3))
        assert dp.op[k] == pytest.approx(expected, abs=1e-10)


def test_build_dp_dimension_cap():
    local, _ = localized_for([[1, 2], [3, 4]])
    ds = [extract_Di(local, i) for i in (1, 2)]
    with pytest.raises(DimensionCap):
        build_DP(ds, dim_cap=3)


def test_perm_index_values():
    assert perm_index((1, 1, 1), 3) == 0
    assert perm_index((3, 3, 3), 3) == 26
    assert perm_index((1, 2, 3), 3) == 5  # 0*9 + 1*3 + 2, zero-based throughout


def test_perm_index_bijective():
    p = 3
    seen = {perm_index((a, b, c), p)
            for a in range(1, 4) for b in range(1, 4) for c in range(1, 4)}
    assert seen == set(range(27))
    with pytest.raises(DigitOutOfRange):
        perm_index((0, 1, 2), 3)
    with pytest.raises(DigitOutOfRange):
        perm_index((1, 2), 3)


def test_build_pi_p2_support():
    pi = build_Pi(2)
    assert np.flatnonzero(pi.op).tolist() == [1, 2]
    assert pi.subnorm == 2.0


def test_build_pi_rank_is_factorial():
    for p in (2, 3, 4):
        assert int(np.count_nonzero(build_Pi(p).op)) == math.factorial(p)


def test_build_pi_purified_equals_direct():
    for p in (2, 3):
        direct = build_Pi(p, route="direct")
        purified = build_Pi(p, route="purified")
        assert purified.is_diagonal
        assert np.allclose(purified.encoded, direct.encoded, atol=1e-14)


def test_build_pi_purified_cap():
    with pytest.raises(DimensionCap):
        build_Pi(5, route="purified")


# --- eigen stage -----------------------------------------------------------------------

def test_min_eigen_smallest_nonzero_entry():
    be = be_wrap([0.0, 0.5, 0.25], 1.0)
    est = min_eigen_power(be, kappa_a=4.0 * (1 + 1e-9), seed=0)
    assert est.value == pytest.approx(0.25, abs=1e-9)
    assert est.converged


def test_min_eigen_degenerate_converges_first_iteration():
    be = be_wrap([0.5, 0.5, 0.0, 0.5], 1.0)
    est = min_eigen_power(be, kappa_a=2.0 * (1 + 1e-9), seed=1)
    assert est.iterations == 1
    assert est.value == pytest.approx(0.5, abs=1e-12)
    assert est.gap_proxy == math.inf


def test_min_eigen_matches_bruteforce_scaling():
    rng = random.Random(44)
    for _ in range(5):
        cost = random_cost_matrix(3, 3, rng)
        local, meta = localized_for(cost)
        dp = build_DP([extract_Di(local, i) for i in (1, 2, 3)])
        comp = be_product(build_Pi(3), dp)
        enc = comp.encoded
        kappa = (1 + 1e-9) / float(np.min(enc[enc != 0]))
        est = min_eigen_power(comp, kappa, eps=1e-12, seed=9)
        got = est.value * math.factorial(3) * 3 * meta.alpha_q
        expected = 3 * float(w1_bruteforce(cost).cost_value)
        assert got == pytest.approx(expected, abs=1e-8)


def test_min_eigen_geometric_decay_bound():
    be = be_wrap([0.0, 0.2, 0.5, 1.0], 1.0)
    kappa = 5.0 * (1 + 1e-9)
    est = min_eigen_power(be, kappa, eps=1e-13, seed=3)
    assert est.gap_proxy == pytest.approx(2.5)
    lam1 = 1.0 / (kappa * 0.2)
    rho = 1.0 / est.gap_proxy
    bound0 = lam1 / est.initial_overlap ** 2
    for k, r in enumerate(est.rayleigh_trace):
        assert lam1 - r <= bound0 * rho ** (2 * k) * (1 + 1e-9) + 1e-15


def test_projector_masks_exactly_permutation_sums():
    rng = random.Random(50)
    cost = random_cost_matrix(3, 3, rng)
    c = [[float(v) for v in row] for row in cost]
    local, meta = localized_for(cost)
    dp = build_DP([extract_Di(local, i) for i in (1, 2, 3)])
    comp = be_product(build_Pi(3), dp)
    import itertools
    sums = {}
    for perm in itertools.permutations(range(1, 4)):
        k = perm_index(perm, 3)
        sums[k] = sum(c[perm[j] - 1][j] for j in range(3))
    nz = {int(k): comp.op[k] for k in np.flatnonzero(comp.op)}
    assert set(nz) == set(sums)
    for k, v in sums.items():
        assert nz[k] == pytest.approx(v, abs=1e-9)
    # min nonzero encoded entry times p! * p * alpha_q is p * W1 = min sum
    min_sum = min(sums.values())
    enc = comp.encoded
    assert float(np.min(enc[enc != 0])) * math.factorial(3) * 3 * meta.alpha_q == \
        pytest.approx(min_sum, abs=1e-8)


# --- end-to-end p = q --------------------------------------------------------------------

def test_pq_qsim_p1_exact():
    res = pq_qsim_from_cost([[7]], 2, QsimConfig(seed=0))
    assert res.w1 == pytest.approx(7.0, abs=1e-10)
    assert res.curvature == pytest.approx(1 - 7.0 / 2.0, abs=1e-10)


def test_pq_qsim_p2_hand_example():
    res = pq_qsim_from_cost([[1, 2], [3, 4]], 1, QsimConfig(seed=0))
    assert res.w1 == pytest.approx(2.5, abs=1e-10)
    assert res.diagnostics is not None
    assert res.diagnostics.converged


def test_pq_qsim_matches_assignment():
    rng = random.Random(61)
    for p in (2, 3, 4):
        for _ in range(8):
            cost = random_cost_matrix(p, p, rng)
            res = pq_qsim_from_cost(cost, rng.randint(1, 4),
                                    QsimConfig(seed=rng.randint(0, 10 ** 6)))
            expected = float(w1_assignment(cost).cost_value)
            assert abs(res.w1 - expected) <= 1e-8


def test_pq_qsim_graph_route():
    # 4-cycle with a chord gives inner edges with p = q
    g = load_graph("0 1\n1 2\n2 3\n3 0")
    dg = all_pairs_geodesic(g)
    nb = neighborhood(g, dg, 0, 1)
    res = w1_pq_qsim(nb, build_distance_encoding(dg), QsimConfig(seed=2))
    expected = float(w1_assignment(nb.cost).cost_value)
    assert abs(res.w1 - expected) <= 1e-8


def test_pq_qsim_rejects_non_square():
    g = load_graph("0 1\n1 2\n2 3\n3 0\n0 4")
    dg = all_pairs_geodesic(g)
    with pytest.raises(NotSquare):
        w1_pq_qsim(neighborhood(g, dg, 0, 1), build_distance_encoding(dg), QsimConfig())


def test_pq_qsim_dimension_cap():
    with pytest.raises(DimensionCap):
        pq_qsim_from_cost([[1] * 5 for _ in range(5)], 1, QsimConfig(dim_cap=100))


def test_pq_qsim_corrupted_alpha_detected(monkeypatch):
    cost = [[1, 2], [3, 4]]
    honest = pq_qsim_from_cost(cost, 1, QsimConfig(seed=0))
    corrupt_alpha_q(monkeypatch, orcurv.qpipeline, 1.01)
    corrupt = pq_qsim_from_cost(cost, 1, QsimConfig(seed=0))
    assert abs(corrupt.w1 - honest.w1) > 1e-3


def test_include_endpoints_variant():
    # inclusive lists turn the path's (1, 2) edge into a 2x2 instance
    g = load_graph("0 1\n1 2\n2 3")
    dg = all_pairs_geodesic(g)
    cfg = QsimConfig(seed=3)
    nb = neighborhood(g, dg, 1, 2, include_endpoints=True)
    assert (nb.p, nb.q) == (2, 2)
    expected = float(w1_assignment(nb.cost).cost_value)
    assert expected == 2.0
    encoding = build_distance_encoding(dg)
    res = w1_pq_qsim(nb, encoding, cfg)
    assert abs(res.w1 - expected) <= 1e-8
    # decomposable costs keep the closed form valid on the extended lists
    tree_res = w1_tree_qsim(nb, encoding, cfg)
    assert abs(tree_res.w1 - float(w1_tree(nb))) <= 1e-10


# --- ledger and scaling --------------------------------------------------------------------

def test_subnorm_ledger_stage_by_stage():
    rng = random.Random(71)
    cost = random_cost_matrix(3, 3, rng)
    c = np.array([[float(v) for v in row] for row in cost])
    grid = two_block_grid(cost)
    audit = AuditTrail()
    be, meta = build_distance_encoding(grid, margin=0.0, audit=audit)
    local = localize_DG(be, meta, [0, 1, 2], [3, 4, 5], audit=audit)
    ds = [extract_Di(local, i, audit=audit) for i in (1, 2, 3)]
    dp = build_DP(ds, audit=audit)
    pi = build_Pi(3, audit=audit)
    comp = be_product(pi, dp)

    # encoded * subnorm reproduces the intended raw operator at each stage
    assert np.allclose(be.encoded * be.subnorm, grid.ravel(), atol=1e-12)
    assert np.allclose(local.encoded * local.subnorm, c.T.ravel(), atol=1e-12)
    for i, d_i in enumerate(ds):
        assert np.allclose(d_i.encoded * d_i.subnorm, c[:, i], atol=1e-12)
    sums = np.array([c[(k // 9) % 3, 0] + c[(k // 3) % 3, 1] + c[k % 3, 2]
                     for k in range(27)])
    assert np.allclose(dp.encoded * dp.subnorm, sums, atol=1e-12)
    mask = np.zeros(27)
    import itertools
    for perm in itertools.permutations(range(1, 4)):
        mask[perm_index(perm, 3)] = 1.0
    assert np.allclose(pi.encoded * pi.subnorm, mask, atol=1e-12)
    assert np.allclose(comp.encoded * comp.subnorm, mask * sums, atol=1e-12)

    # the audit records mirror the encodings
    by_stage = {r["stage"]: r for r in audit.records}
    assert by_stage["distance_encoding"]["subnorm"] == pytest.approx(meta.alpha_q)
    assert by_stage["build_DP"]["subnorm"] == pytest.approx(3 * meta.alpha_q)
    assert by_stage["build_DP"]["dim"] == 27
    rec = by_stage["localize_DG"]
    enc = local.encoded
    assert rec["min_entry"] == pytest.approx(float(np.min(enc[enc != 0])))
    assert rec["max_entry"] == pytest.approx(float(np.max(enc[enc != 0])))


def test_scale_property():
    rng = random.Random(83)
    cost = random_cost_matrix(3, 3, rng)
    lam = 3.5
    scaled = [[float(v) * lam for v in row] for row in cost]
    base = pq_qsim_from_cost(cost, 2, QsimConfig(seed=4))
    big = pq_qsim_from_cost(scaled, 2 * lam, QsimConfig(seed=4))
    _, meta_base = build_distance_encoding(two_block_grid(cost))
    _, meta_big = build_distance_encoding(two_block_grid(scaled))
    assert meta_big.alpha_q == pytest.approx(lam * meta_base.alpha_q, rel=1e-12)
    assert big.w1 == pytest.approx(lam * base.w1, rel=1e-10)
    assert big.curvature == pytest.approx(base.curvature, abs=1e-10)
