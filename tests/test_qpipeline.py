"""Quantum-pipeline simulation: stages, recovery scaling, oracles."""

import dataclasses
import itertools
import math
import random
import re
import tracemalloc

import numpy as np
import pytest

import orcurv.qpipeline
from full_route import (
    build_dp_full,
    build_pi_full,
    distinct_digit_mask,
    perm_index,
    permutation_indices,
    w1_pq_qsim_full,
)
from helpers import (
    chebyshev_distance_encoding,
    corrupt_encoding,
    full_route_overlap,
    internal_edges,
    pq_qsim_from_cost,
    random_connected_graph,
    random_cost_matrix,
    random_tree,
)
from orcurv.blockenc import BlockEncoding, be_product
from orcurv.errors import (
    DegenerateAllZero,
    DimensionCap,
    DimMismatch,
    IndexOutOfRange,
    InfiniteDistance,
    NotATree,
    NotSquare,
    OrcError,
    SizeMismatch,
    SpectrumOutOfRange,
    SubnormTooSmall,
    ZeroOverlap,
)
from orcurv.graph import Graph, LocalNeighborhood, all_pairs_geodesic, load_graph, neighborhood
from orcurv.qpipeline import (
    _permutations,
    AuditTrail,
    build_distance_encoding,
    build_DP,
    build_Pi,
    cost_rows,
    extract_Di,
    localize_DG,
    min_eigen_power,
    tree_overlap_sum,
    tree_qsim_standard_error,
    w1_pq_qsim,
    w1_tree_qsim,
)
from orcurv.transport import DEFAULT_DIM_CAP, w1_assignment, w1_bruteforce, w1_tree
from reference import (
    ApproxEncoding,
    DigitOutOfRange,
    be_identity,
    be_lcu,
    be_tensor,
    err_of,
    grid_distance_encoding,
    min_eigen_power_loop,
)

APPENDIX_COST = [[1, 3, 3, 2], [2, 3, 3, 3], [3, 2, 2, 3]]

#: the distance encoding `orc` builds, and one whose power stage is the
#: Chebyshev interpolant, with err > 0 and polynomial-image entries
ENCODERS = {"exact": build_distance_encoding, "chebyshev": chebyshev_distance_encoding}


def every_entry(be, grid):
    """The entries of a distance encoding at every distance of the grid,
    in grid order."""
    return be.entries([d for row in grid for d in row]).op


def localized_for(cost, margin=0.0):
    p = len(cost)
    be = build_distance_encoding(cost_rows(cost), margin=margin)
    return localize_DG(be, cost), be


# --- distance encoding -----------------------------------------------------------

def test_encoding_constant_distances():
    d = np.array([[0.0, 4.0], [4.0, 0.0]])
    audit = AuditTrail()
    be = build_distance_encoding(d, margin=0.0, audit=audit)
    encoded = every_entry(be, d) / be.subnorm
    nonzero = encoded[encoded != 0]
    assert np.allclose(nonzero, 0.5)
    assert audit.records[0]["kappa"] == 1.0


def test_encoding_two_values():
    d = np.array([[0.0, 1.0], [1.0, 2.0]])  # synthetic; values {1, 2}
    audit = AuditTrail()
    be = build_distance_encoding(d, margin=0.0, audit=audit)
    encoded = every_entry(be, d) / be.subnorm
    encoded = np.sort(np.unique(encoded[encoded != 0]))
    assert np.allclose(encoded, [0.25, 0.5])
    assert audit.records[0]["kappa"] == pytest.approx(16.0)
    assert audit.records[0]["alpha"] == pytest.approx(16.0)
    assert be.subnorm == pytest.approx(4.0)


def test_encoding_appendix_distance_set():
    grid = cost_rows(APPENDIX_COST)
    be = build_distance_encoding(grid, margin=0.0)
    assert be.subnorm == pytest.approx(6.0)
    op = every_entry(be, grid)
    nz = op[op != 0]
    flat = np.array(grid, dtype=float).ravel()
    assert np.allclose(op, flat, atol=1e-12)  # encoded * alpha_q == d
    assert set(np.round(nz, 9)) == {1.0, 2.0, 3.0}


def test_encoding_margin_keeps_spectrum_interior():
    d = np.array([[0.0, 3.0], [3.0, 0.0]])
    be = build_distance_encoding(d, margin=0.05)
    assert float(np.max(every_entry(be, d))) / be.subnorm < 0.5


def test_encoding_chebyshev_mode_reports_error():
    grid = cost_rows(APPENDIX_COST)
    exact = build_distance_encoding(grid, margin=0.0)
    approx = chebyshev_distance_encoding(grid, margin=0.0)
    assert approx.err > 0
    assert (approx.subnorm, approx.ancilla_dim) == (exact.subnorm, exact.ancilla_dim)
    flat = [d for row in grid for d in row]
    assert float(np.max(np.abs(approx.entries(flat).encoded
                               - exact.entries(flat).encoded))) <= approx.err


def test_encoding_rejects_bad_input():
    with pytest.raises(InfiniteDistance):
        build_distance_encoding(np.array([[0.0, math.inf], [math.inf, 0.0]]))
    with pytest.raises(InfiniteDistance, match="non-finite"):
        build_distance_encoding([[0.0, math.nan], [1.0, 0.0]])
    with pytest.raises(DegenerateAllZero):
        build_distance_encoding(np.zeros((2, 2)))
    with pytest.raises(DimMismatch, match="must be square"):
        build_distance_encoding([])


def test_encoding_allocates_no_grid():
    # N = 400: the encoding reads the caller's rows a row at a time and
    # keeps none; one float64 copy of the grid alone would take 1.28 MB
    rng = random.Random(43)
    build_distance_encoding(all_pairs_geodesic(random_connected_graph(8, 4, rng)))
    dg = all_pairs_geodesic(random_connected_graph(400, 400, rng))
    audit = AuditTrail()
    tracemalloc.start()
    try:
        build_distance_encoding(dg, audit=audit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert audit.records[0]["dim"] == 400 ** 2
    assert peak < 64 * 1024


def test_encoding_refuses_a_disconnected_graph():
    g = load_graph("0 1\n1 2\n2 3\n3 0\n4 5\n")
    with pytest.raises(InfiniteDistance, match="non-finite"):
        build_distance_encoding(all_pairs_geodesic(g))


@pytest.mark.parametrize("margin", [math.nan, math.inf, -math.inf])
def test_encoding_refuses_a_non_finite_margin(margin):
    # the margin is at fault, not the distances
    with pytest.raises(ValueError, match=re.escape(f"margin must be a finite number >= 0, "
                                                   f"got {margin!r}")):
        build_distance_encoding([[0, 1], [1, 0]], margin=margin)


# --- tree-case overlaps ------------------------------------------------------------

def test_overlap_sum_p1_formula():
    d = np.array([[0.0, 5.0], [5.0, 0.0]])
    be = build_distance_encoding(d, margin=0.0)
    ov = tree_overlap_sum(be, 0, d[0, 1:])
    assert ov == pytest.approx(5.0 / (2 * be.subnorm))


def test_overlap_sum_p2_formula():
    d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 9.0], [2.0, 9.0, 0.0]])
    be = build_distance_encoding(d, margin=0.0)
    ov = tree_overlap_sum(be, 0, d[0, 1:])
    assert ov == pytest.approx(3.0 / (3 * be.subnorm))


def test_overlap_sum_random_recovery():
    rng = random.Random(19)
    g = random_tree(20, rng, max_weight=4)
    dg = all_pairs_geodesic(g)
    be = build_distance_encoding(dg)
    for x, y in internal_edges(g)[:6]:
        nb = neighborhood(g, dg, x, y)
        ov = tree_overlap_sum(be, x, nb.x_dists)
        recovered = ov * be.subnorm * (nb.p + 1)
        assert recovered == pytest.approx(sum(float(v) for v in nb.x_dists), abs=1e-10)


def test_tree_overlaps_match_full_vector_route():
    # the support-only overlaps against the N^2-vector dilation they replace,
    # the d(x, y) overlap read back from the recovery note
    rng = random.Random(23)
    g = random_tree(30, rng, max_weight=3)
    dg = all_pairs_geodesic(g)
    be, grid = build_distance_encoding(dg), grid_distance_encoding(dg)
    n = g.vertex_count
    for x, y in internal_edges(g):
        nb = neighborhood(g, dg, x, y)
        for center, nbrs in ((x, nb.X), (y, nb.Y)):
            p, dists = len(nbrs), [dg[center][v] for v in nbrs]
            support, amps = [center * n + v for v in nbrs], np.full(p, 1 / math.sqrt(p))
            unit = full_route_overlap(grid, support, amps)
            assert abs(tree_overlap_sum(be, center, dists) - unit * p / (p + 1)) <= 1e-15
            drawn = full_route_overlap(grid, support, amps, shots=1000, seed=center)
            assert tree_overlap_sum(be, center, dists, shots=1000, seed=center) == \
                drawn * p / (p + 1)
        for shots in (None, 10 ** 6):
            audit = AuditTrail()
            w1_tree_qsim(nb, be, shots=shots, seed=x, audit=audit)
            seed = None if shots is None else np.random.SeedSequence(x).spawn(3)[2]
            dxy = full_route_overlap(grid, [x * n + y], [1.0], shots=shots, seed=seed)
            assert audit.records[-1]["dxy"] == dxy * be.subnorm


def test_stages_read_no_distance_but_the_neighborhood_and_the_two_extremes():
    # two grids that share max d and the least nonzero d and no other entry:
    # every stage encodes the distances its neighborhood holds, so both
    # pipelines and their trace records are bit-equal on the two encodings
    g = load_graph("0 1\n3 1\n1 2\n2 4\n2 5")    # a tree; (1, 2) has p = q = 2
    dg = all_pairs_geodesic(g)
    other = [[2.5] * 6 for _ in range(6)]
    other[0][0], other[0][1] = 1, 3    # dg's least nonzero d and its max d
    nb = neighborhood(g, dg, 1, 2)
    runs = []
    for rows in (dg, other):
        audit = AuditTrail()
        be = build_distance_encoding(rows, audit=audit)
        results = (w1_tree_qsim(nb, be, audit=audit),
                   w1_tree_qsim(nb, be, shots=10 ** 4, seed=1, audit=audit),
                   w1_pq_qsim(nb, be, seed=0, audit=audit))
        runs.append(repr((be, results, audit.records)))    # floats by their shortest repr
    assert runs[0] == runs[1]


def test_a_distance_above_the_subnorm_is_refused():
    # an encoding built from other distances than the neighborhood's: the
    # norm check of BlockEncoding refuses the entry, whichever stage reads it
    g = Graph(4, [(0, 1, 5), (1, 2, 5), (2, 3, 5)])
    nb = neighborhood(g, all_pairs_geodesic(g), 1, 2)
    be = build_distance_encoding([[0, 1], [1, 0]], margin=0.0)
    for run in (lambda: w1_tree_qsim(nb, be), lambda: w1_pq_qsim(nb, be, seed=0)):
        with pytest.raises(SubnormTooSmall, match="exceeds subnorm 2.0") as info:
            run()
        assert isinstance(info.value, OrcError)


def test_tree_qsim_path_fixture():
    g = load_graph("0 1\n1 2\n2 3")
    dg = all_pairs_geodesic(g)
    res = w1_tree_qsim(neighborhood(g, dg, 1, 2), build_distance_encoding(dg), seed=0)
    assert res.w1 == pytest.approx(3.0, abs=1e-12)
    assert res.curvature == pytest.approx(-2.0, abs=1e-12)
    assert res.method == "qsim_tree"


def test_tree_qsim_needs_graph_neighborhood():
    nb = LocalNeighborhood.from_cost([[1, 2], [3, 4]], 1)
    be = build_distance_encoding(cost_rows(nb.cost))
    # nor one taken off a tree: on the 4-cycle the closed form would read 3, where W1 is 1
    g = load_graph("0 1\n1 2\n2 3\n3 0")
    dg = all_pairs_geodesic(g)
    for nb, be in ((nb, be), (neighborhood(g, dg, 0, 1), build_distance_encoding(dg))):
        with pytest.raises(NotATree):
            w1_tree_qsim(nb, be)
        with pytest.raises(NotATree):
            tree_qsim_standard_error(nb, be, 1000)


def test_tree_qsim_matches_closed_form():
    rng = random.Random(99)
    for _ in range(5):
        g = random_tree(rng.randint(6, 40), rng, max_weight=5)
        dg = all_pairs_geodesic(g)
        be = build_distance_encoding(dg)
        for x, y in internal_edges(g):
            nb = neighborhood(g, dg, x, y)
            res = w1_tree_qsim(nb, be, seed=1)
            assert abs(res.w1 - float(w1_tree(nb))) <= 1e-10


def test_tree_qsim_shot_noise_within_five_se():
    rng = random.Random(7)
    g = random_tree(24, rng)
    dg = all_pairs_geodesic(g)
    be = build_distance_encoding(dg)
    shots = 10 ** 6
    for i, (x, y) in enumerate(internal_edges(g)):
        nb = neighborhood(g, dg, x, y)
        res = w1_tree_qsim(nb, be, shots=shots, seed=1000 + i)
        se = tree_qsim_standard_error(nb, be, shots)
        assert se > 0
        assert abs(res.w1 - float(w1_tree(nb))) <= 5 * se


def test_tree_qsim_audit_exposes_conventions():
    g = load_graph("0 1\n1 2\n2 3")
    dg = all_pairs_geodesic(g)
    audit = AuditTrail()
    w1_tree_qsim(neighborhood(g, dg, 1, 2), build_distance_encoding(dg, audit=audit),
                 seed=0, audit=audit)
    stages = [r["stage"] for r in audit.records]
    assert "distance_encoding" in stages and "tree_recovery" in stages
    ov = next(r for r in audit.records if r["stage"] == "tree_overlap")
    assert ov["overlap_p1"] == pytest.approx(ov["overlap_unit"] * ov["p"] / (ov["p"] + 1))


# --- localization and extraction ----------------------------------------------------

def test_localize_p1():
    local, be = localized_for([[4]])
    assert local.dim == 1
    assert local.op[0] == pytest.approx(4.0, abs=1e-12)
    assert local.subnorm == pytest.approx(be.subnorm)


def test_localize_ji_order():
    local, be = localized_for([[1, 2], [3, 4]])
    assert np.allclose(local.op, [1, 3, 2, 4], atol=1e-12)


def test_localize_preserves_spectrum_multiset():
    cost = [[1, 2, 5], [3, 4, 6], [7, 8, 9]]
    be = build_distance_encoding(cost_rows(cost), margin=0.0)
    local = localize_DG(be, cost)
    got = sorted(np.round(local.op, 9))
    assert got == sorted(float(v) for row in cost for v in row)


def test_localize_size_mismatch():
    grid = cost_rows([[1, 2], [3, 4]])
    be = build_distance_encoding(grid)
    with pytest.raises(NotSquare, match="p=1, q=2"):
        localize_DG(be, [[1, 2]])


GRID = [[0, 1], [1, 0]]


@pytest.mark.parametrize("call, error, message", [
    (lambda: build_distance_encoding(GRID, margin=-0.1), ValueError,
     "margin must be a finite number >= 0, got -0.1"),
    (lambda: build_distance_encoding([[0, 1, 2], [1, 0, 1]]), DimMismatch, "must be square"),
    (lambda: build_distance_encoding([[0, -1], [-1, 0]]), InfiniteDistance, "nonnegative"),
    (lambda: tree_overlap_sum(build_distance_encoding(GRID), 0, []), IndexOutOfRange,
     "at least one neighbor"),
    (lambda: build_DP([]), SizeMismatch, "at least one column"),
    (lambda: build_DP([BlockEncoding([1.0, 2.0, 3.0], 3.0)] * 2), DimMismatch,
     "dimension p = len"),
    (lambda: build_Pi(0), SizeMismatch, "p must be >= 1"),
    (lambda: pq_qsim_from_cost([[1, 2, 3], [4, 5, 6], [7, 8, 9]], 1, dim_cap=26),
     DimensionCap, "p^p = 27 exceeds cap 26"),
    (lambda: min_eigen_power(BlockEncoding(np.zeros(3), 1.0), 2.0, np.ones(3)),
     SpectrumOutOfRange, "no nonzero spectrum"),
], ids=["encoding-negative-margin", "encoding-not-square", "encoding-negative-distance",
        "overlap-no-neighbors", "dp-no-columns", "dp-wrong-column-dim", "pi-p-zero",
        "pi-over-cap", "eigen-all-zero"])
def test_library_refusals(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def completion_permutation_matrix(n, targets):
    """Dense P sending basis index targets[i] to i and the remaining
    indices, ascending, to len(targets), len(targets) + 1, ..."""
    rest = [v for v in range(n) if v not in targets]
    m = np.zeros((n, n))
    for dst, src in enumerate(list(targets) + rest):
        m[dst, src] = 1.0
    return m


def localize_by_conjugation(be, X, Y):
    """The paper's localization with explicit matrices: conjugate the N^2
    grid diagonal (an encoding from grid_distance_encoding) by
    P_X (x) P_Y, keep the top-left p x p block, conjugate by the SWAP of
    the two p-dimensional registers."""
    n, p = math.isqrt(be.dim), len(X)
    perm = np.kron(completion_permutation_matrix(n, X), completion_permutation_matrix(n, Y))
    relabeled = np.diagonal(perm @ np.diag(be.op) @ perm.T)
    block = relabeled.reshape(n, n)[:p, :p].ravel()
    swap = np.zeros((p * p, p * p))
    for i in range(p):
        for j in range(p):
            swap[j * p + i, i * p + j] = 1.0
    return np.diagonal(swap @ np.diag(block) @ swap.T)


def test_localize_matches_dense_permutation_conjugation():
    rng = np.random.default_rng(11)
    for n, X, Y in [(4, [2], [0]), (5, [3, 0], [1, 4]), (6, [1, 4, 2], [4, 0, 1]),
                    (6, [5, 2, 3], [5, 2, 3]), (7, [6, 0, 3, 1], [2, 5, 6, 0])]:
        # an asymmetric grid, so a row/column mix-up cannot hide
        dist = rng.integers(1, 20, size=(n, n)).astype(float)
        np.fill_diagonal(dist, 0.0)
        be, grid = build_distance_encoding(dist), grid_distance_encoding(dist)
        local = localize_DG(be, [[dist[a][b] for b in Y] for a in X])
        assert np.array_equal(local.op, localize_by_conjugation(grid, X, Y))
        assert (local.subnorm, local.ancilla_dim) == (grid.subnorm, grid.ancilla_dim)


def test_localize_reads_only_the_block():
    n = 300
    dist = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)
    be = build_distance_encoding(dist)
    X, Y = [3, 70, 150, 299], [0, 5, 200, 298]
    tracemalloc.start()
    try:
        local = localize_DG(be, [[dist[a][b] for b in Y] for a in X])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert local.op[1 * 4 + 2] == pytest.approx(145.0)   # d(X[2], Y[1])
    assert peak < 64 * 1024


def test_extract_columns():
    local, be = localized_for([[1, 2], [3, 4]])
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
    local, be = localized_for([[1, 2], [3, 4]])
    ds = [extract_Di(local, i) for i in (1, 2)]
    dp = build_dp_full(ds)
    assert np.allclose(dp.op, [3, 5, 5, 7], atol=1e-12)
    assert dp.subnorm == pytest.approx(2 * be.subnorm)
    # on the support: the two permutations (1, 2) and (2, 1), indices 1 and 2
    dp = build_DP(ds)
    assert np.allclose(dp.op, [5, 5], atol=1e-12)
    assert dp.subnorm == pytest.approx(2 * be.subnorm)


def test_build_dp_first_nine_block_pattern():
    rng = random.Random(5)
    cost = random_cost_matrix(3, 3, rng, max_value=9)
    c = [[float(v) for v in row] for row in cost]
    local, _ = localized_for(cost)
    ds = [extract_Di(local, i) for i in (1, 2, 3)]
    dp = build_dp_full(ds)
    for k in range(9):
        expected = c[0][0] + c[k // 3][1] + c[k % 3][2]
        assert dp.op[k] == pytest.approx(expected, abs=1e-10)
    # on the support, the first nine indices hold the permutations 0 1 2 and 0 2 1
    dp = build_DP(ds)
    digits, flat = _permutations(3), permutation_indices(3)
    assert flat[:2].tolist() == [5, 7]
    for k in range(2):
        expected = c[0][0] + c[digits[k, 1]][1] + c[digits[k, 2]][2]
        assert dp.op[k] == pytest.approx(expected, abs=1e-10)


def test_build_dp_random_index_decode():
    rng = random.Random(6)
    cost = random_cost_matrix(3, 3, rng)
    c = [[float(v) for v in row] for row in cost]
    local, _ = localized_for(cost)
    ds = [extract_Di(local, i) for i in (1, 2, 3)]
    dp = build_dp_full(ds)
    for k in range(27):
        digits = [(k // 9) % 3 + 1, (k // 3) % 3 + 1, k % 3 + 1]
        expected = sum(c[digits[j] - 1][j] for j in range(3))
        assert dp.op[k] == pytest.approx(expected, abs=1e-10)
    # on the support, entry m decodes from its flat index the same way
    dp = build_DP(ds)
    flat = permutation_indices(3)
    for m, k in enumerate(flat):
        digits = [(k // 9) % 3 + 1, (k // 3) % 3 + 1, k % 3 + 1]
        expected = sum(c[digits[j] - 1][j] for j in range(3))
        assert dp.op[m] == pytest.approx(expected, abs=1e-10)


def test_build_dp_dimension_cap():
    local, _ = localized_for([[1, 2], [3, 4]])
    ds = [extract_Di(local, i) for i in (1, 2)]
    with pytest.raises(DimensionCap, match=re.escape("p^p = 4 exceeds cap 3")):
        pq_qsim_from_cost([[1, 2], [3, 4]], 1, dim_cap=3)
    with pytest.raises(DimensionCap):
        build_dp_full(ds, dim_cap=3)


def tensor_sum_by_composition(ds):
    """D_P through the block-encoding algebra: the p terms I (x) D_i (x) I,
    their uniform LCU, and the rescale by alpha_q that makes op raw."""
    p = len(ds)
    terms = []
    for i, d_i in enumerate(ds):
        term = d_i
        if i > 0:
            term = be_tensor(be_identity(p ** i), term)
        if i < p - 1:
            term = be_tensor(term, be_identity(p ** (p - 1 - i)))
        terms.append(term)
    lcu = be_lcu(terms, [1] * p)
    a = ds[0].subnorm
    return dataclasses.replace(lcu, op=lcu.op * a, subnorm=lcu.subnorm * a)


def restrict(be, p):
    """be with its p^p-vector op cut to the p! permutation indices."""
    return dataclasses.replace(be, op=be.op[permutation_indices(p)])


def assert_same_encoding(got, want):
    assert got.op.dtype == want.op.dtype
    assert np.array_equal(got.op, want.op)
    assert (got.subnorm, got.ancilla_dim) == (want.subnorm, want.ancilla_dim)


@pytest.mark.parametrize("power_mode", ["exact", "chebyshev"])
def test_build_dp_equals_tensor_lcu_composition(power_mode):
    rng = random.Random(17)
    for p in range(1, 6):
        cost = random_cost_matrix(p, p, rng, max_value=4)
        be = ENCODERS[power_mode](cost_rows(cost))
        local = localize_DG(be, cost)
        ds = [extract_Di(local, i) for i in range(1, p + 1)]
        assert (err_of(be) > 0) == (power_mode == "chebyshev")
        dp = build_dp_full(ds)
        support = build_DP(ds)
        if p == 1:
            assert dp is ds[0]
            assert support is ds[0]
        else:
            composed = tensor_sum_by_composition(ds)
            assert_same_encoding(dp, composed)
            assert_same_encoding(support, restrict(composed, p))


def test_build_dp_composition_with_unequal_columns():
    # columns with their own subnorm, err and ancilla size exercise every
    # term of the composition formulas; the program's build_DP is exact
    # and carries no err, the full route carries the tensor and LCU rules'
    rng = np.random.default_rng(23)
    for p in range(2, 6):
        ds = [ApproxEncoding(op=rng.uniform(0.0, 1.0, p), subnorm=rng.uniform(1.0, 3.0),
                             err=rng.uniform(0.0, 1e-3), ancilla_dim=int(rng.integers(1, 5)))
              for _ in range(p)]
        composed = tensor_sum_by_composition(ds)
        full = build_dp_full(ds)
        assert_same_encoding(full, composed)
        assert full.err == composed.err > 0
        assert_same_encoding(build_DP(ds), restrict(composed, p))


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


def test_permutations_are_the_distinct_digit_indices():
    for p in range(1, 7):
        digits, flat = _permutations(p), permutation_indices(p)
        assert digits.shape == (math.factorial(p), p)
        assert [tuple(d) for d in digits] == list(itertools.permutations(range(p)))
        assert flat.tolist() == [perm_index([d + 1 for d in row], p) for row in digits]
        assert np.array_equal(flat, np.flatnonzero(distinct_digit_mask(p)))
        assert not digits.flags.writeable
        assert _permutations(p) is digits      # built once per p


def test_build_pi_p2_support():
    pi = build_pi_full(2)
    assert np.flatnonzero(pi.op).tolist() == [1, 2]
    assert pi.subnorm == 2.0
    # on the support: ones at those two indices
    pi = build_Pi(2)
    assert permutation_indices(2).tolist() == [1, 2]
    assert pi.op.tolist() == [1.0, 1.0]
    assert pi.subnorm == 2.0


def test_build_pi_rank_is_factorial():
    for p in (2, 3, 4):
        assert int(np.count_nonzero(build_pi_full(p).op)) == math.factorial(p)
        pi = build_Pi(p)
        assert pi.dim == int(np.count_nonzero(pi.op)) == math.factorial(p)


def test_build_pi_purified_equals_direct():
    for p in (2, 3):
        direct = build_pi_full(p, route="direct")
        purified = build_pi_full(p, route="purified")
        assert purified.op.ndim == 1
        assert np.allclose(purified.encoded, direct.encoded, atol=1e-14)
        flat = permutation_indices(p)
        assert np.allclose(build_Pi(p).encoded, purified.encoded[flat], atol=1e-14)


def test_build_pi_purified_cap():
    with pytest.raises(DimensionCap):
        build_pi_full(5, route="purified")


# --- eigen stage -----------------------------------------------------------------------

def test_min_eigen_smallest_nonzero_entry():
    be = BlockEncoding([0.0, 0.5, 0.25], 1.0)
    est = min_eigen_power(be, kappa_a=4.0 * (1 + 1e-9),
                          start=np.random.default_rng(0).standard_normal(be.dim))
    assert est.value == pytest.approx(0.25, abs=1e-9)
    assert est.converged


def test_min_eigen_degenerate_converges_first_iteration():
    be = BlockEncoding([0.5, 0.5, 0.0, 0.5], 1.0)
    est = min_eigen_power(be, kappa_a=2.0 * (1 + 1e-9),
                          start=np.random.default_rng(1).standard_normal(be.dim))
    assert est.iterations == 1
    assert est.value == pytest.approx(0.5, abs=1e-12)
    assert est.gap_proxy == math.inf
    # no second eigenvalue: reports and traces write the gap as null
    assert est.fields() == {**dataclasses.asdict(est), "gap_proxy": None}


def test_min_eigen_refuses_a_start_that_vanishes_on_the_support():
    # the start is nonzero only where the spectrum is 0, outside the support
    be = BlockEncoding([0.0, 0.5, 0.25], 1.0)
    with pytest.raises(ZeroOverlap, match="vanished on the support"):
        min_eigen_power(be, kappa_a=4.0 * (1 + 1e-9), start=np.array([3.0, 0.0, 0.0]))


def test_min_eigen_refuses_a_start_orthogonal_to_the_target():
    # the target is the smallest nonzero entry, 0.25 at index 2; the start
    # lives on the support but only on the 0.5 entry
    be = BlockEncoding([0.0, 0.5, 0.25], 1.0)
    with pytest.raises(ZeroOverlap, match="orthogonal to the target eigenspace"):
        min_eigen_power(be, kappa_a=4.0 * (1 + 1e-9), start=np.array([1.0, 2.0, 0.0]))


def test_min_eigen_matches_bruteforce_scaling():
    rng = random.Random(44)
    for _ in range(5):
        cost = random_cost_matrix(3, 3, rng)
        local, be = localized_for(cost)
        ds = [extract_Di(local, i) for i in (1, 2, 3)]
        comp = be_product(build_pi_full(3), build_dp_full(ds))
        enc = comp.encoded
        kappa = (1 + 1e-9) / float(np.min(enc[enc != 0]))
        est = min_eigen_power(comp, kappa, eps=1e-12,
                              start=np.random.default_rng(9).standard_normal(comp.dim))
        got = est.value * math.factorial(3) * 3 * be.subnorm
        expected = 3 * float(w1_bruteforce(cost).cost_value)
        assert got == pytest.approx(expected, abs=1e-8)
        # on the support, from the same draw gathered at the permutations
        comp = be_product(build_Pi(3), build_DP(ds))
        assert float(np.min(comp.encoded)) == float(np.min(enc[enc != 0]))
        start = np.random.default_rng(9).standard_normal(27)[permutation_indices(3)]
        est = min_eigen_power(comp, kappa, eps=1e-12, start=start)
        got = est.value * math.factorial(3) * 3 * be.subnorm
        assert got == pytest.approx(expected, abs=1e-8)


def test_min_eigen_geometric_decay_bound(monkeypatch):
    be = BlockEncoding([0.0, 0.2, 0.5, 1.0], 1.0)
    kappa = 5.0 * (1 + 1e-9)

    def run():
        return min_eigen_power(be, kappa, eps=1e-13,
                               start=np.random.default_rng(3).standard_normal(be.dim))

    est = run()
    assert est.converged and est.gap_proxy == pytest.approx(2.5)
    assert est.fields() == dataclasses.asdict(est)
    lam1 = 1.0 / (kappa * 0.2)
    rho = 1.0 / est.gap_proxy
    bound0 = lam1 / est.initial_overlap ** 2
    # the Rayleigh quotient after k + 1 iterations is the last one of a run
    # capped there; value = 1 / (kappa * r) gives it back to within an ulp
    for k in range(est.iterations):
        monkeypatch.setattr(orcurv.qpipeline, "MAX_POWER_ITERATIONS", k + 1)
        capped = run()
        assert capped.iterations == k + 1
        assert capped.converged == (k + 1 == est.iterations)
        r = 1.0 / (kappa * capped.value)
        assert lam1 - r <= bound0 * rho ** (2 * k) * (1 + 1e-9) + 1e-15


def test_min_eigen_converged_meets_the_kato_temple_bound():
    # a gap of 1.001: successive Rayleigh quotients differ by about 2e-3
    # times their error, so they agree within eps while r is 5e-8 short
    be = BlockEncoding([0.0, 0.2, 0.2 * 1.001, 0.5, 1.0], 1.0)
    kappa = 5.0 * (1 + 1e-9)
    lam1 = 1.0 / (kappa * 0.2)
    eps = 1e-10
    for seed in range(5):
        est = min_eigen_power(be, kappa, eps=eps,
                              start=np.random.default_rng(seed).standard_normal(be.dim))
        assert est.converged and est.gap_proxy == pytest.approx(1.001)
        r = 1.0 / (kappa * est.value)
        assert lam1 - r <= eps * r + 4 * math.ulp(lam1)


def test_projector_masks_exactly_permutation_sums():
    rng = random.Random(50)
    cost = random_cost_matrix(3, 3, rng)
    c = [[float(v) for v in row] for row in cost]
    local, be = localized_for(cost)
    ds = [extract_Di(local, i) for i in (1, 2, 3)]
    comp = be_product(build_pi_full(3), build_dp_full(ds))
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
    assert float(np.min(enc[enc != 0])) * math.factorial(3) * 3 * be.subnorm == \
        pytest.approx(min_sum, abs=1e-8)
    # on the support, entry m is the sum of the m-th permutation, none masked
    support = be_product(build_Pi(3), build_DP(ds))
    flat = permutation_indices(3)
    assert support.dim == len(sums)
    for m, k in enumerate(flat):
        assert support.op[m] == pytest.approx(sums[int(k)], abs=1e-9)
    assert float(np.min(support.encoded)) * math.factorial(3) * 3 * be.subnorm == \
        pytest.approx(min_sum, abs=1e-8)


# --- end-to-end p = q --------------------------------------------------------------------

def test_pq_qsim_p1_exact():
    res = pq_qsim_from_cost([[7]], 2, seed=0)
    assert res.w1 == pytest.approx(7.0, abs=1e-10)
    assert res.curvature == pytest.approx(1 - 7.0 / 2.0, abs=1e-10)


def test_pq_qsim_p2_hand_example():
    res = pq_qsim_from_cost([[1, 2], [3, 4]], 1, seed=0)
    assert res.w1 == pytest.approx(2.5, abs=1e-10)
    assert res.diagnostics is not None
    assert res.diagnostics.converged


def test_pq_qsim_matches_assignment():
    rng = random.Random(61)
    for p in (2, 3, 4):
        for _ in range(8):
            cost = random_cost_matrix(p, p, rng)
            res = pq_qsim_from_cost(cost, rng.randint(1, 4), seed=rng.randint(0, 10 ** 6))
            expected = float(w1_assignment(cost).cost_value)
            assert abs(res.w1 - expected) <= 1e-8


def test_pq_qsim_graph_route():
    # 4-cycle with a chord gives inner edges with p = q
    g = load_graph("0 1\n1 2\n2 3\n3 0")
    dg = all_pairs_geodesic(g)
    nb = neighborhood(g, dg, 0, 1)
    res = w1_pq_qsim(nb, build_distance_encoding(dg), seed=2)
    expected = float(w1_assignment(nb.cost).cost_value)
    assert abs(res.w1 - expected) <= 1e-8


def test_pq_qsim_rejects_non_square():
    g = load_graph("0 1\n1 2\n2 3\n3 0\n0 4")
    dg = all_pairs_geodesic(g)
    with pytest.raises(NotSquare):
        w1_pq_qsim(neighborhood(g, dg, 0, 1), build_distance_encoding(dg))


def test_pq_qsim_dimension_cap():
    with pytest.raises(DimensionCap):
        pq_qsim_from_cost([[1] * 5 for _ in range(5)], 1, dim_cap=100)


def test_pq_qsim_corrupted_alpha_detected(monkeypatch):
    cost = [[1, 2], [3, 4]]
    honest = pq_qsim_from_cost(cost, 1, seed=0)
    corrupt_encoding(monkeypatch, orcurv.qpipeline, 1.01)
    corrupt = pq_qsim_from_cost(cost, 1, seed=0)
    assert abs(corrupt.w1 - honest.w1) > 1e-3


def test_include_endpoints_variant():
    # inclusive lists turn the path's (1, 2) edge into a 2x2 instance
    g = load_graph("0 1\n1 2\n2 3")
    dg = all_pairs_geodesic(g)
    nb = neighborhood(g, dg, 1, 2, include_endpoints=True)
    assert (nb.p, nb.q) == (2, 2)
    expected = float(w1_assignment(nb.cost).cost_value)
    assert expected == 2.0
    be = build_distance_encoding(dg)
    res = w1_pq_qsim(nb, be, seed=3)
    assert abs(res.w1 - expected) <= 1e-8
    # decomposable costs keep the closed form valid on the extended lists
    tree_res = w1_tree_qsim(nb, be, seed=3)
    assert abs(tree_res.w1 - float(w1_tree(nb))) <= 1e-10


# --- the p! support route against the full-length p^p route -------------------------------

@pytest.mark.parametrize("power_mode", ["exact", "chebyshev"])
def test_build_dp_support_equals_full_route_at_permutations(power_mode):
    rng = random.Random(29)
    for p in range(1, 6):
        cost = random_cost_matrix(p, p, rng)
        be = ENCODERS[power_mode](cost_rows(cost))
        local = localize_DG(be, cost)
        ds = [extract_Di(local, i) for i in range(1, p + 1)]
        support, full = build_DP(ds), build_dp_full(ds)
        flat = permutation_indices(p)
        assert support.dim == math.factorial(p) and full.dim == p ** p
        assert support.op.dtype == full.op.dtype
        assert np.array_equal(support.op, full.op[flat])      # bit for bit
        assert (support.subnorm, support.ancilla_dim) == (full.subnorm, full.ancilla_dim)


@pytest.mark.parametrize("power_mode", ["exact", "chebyshev"])
def test_pq_pipeline_matches_full_route(power_mode):
    # same seeded p! draw, at the support and zero elsewhere: the same
    # iteration count and gap, and W1 up to the rounding of dot products
    # that now sum fewer zeros
    rng = random.Random(31)
    for p in range(1, 6):
        for _ in range(6):
            nb = LocalNeighborhood.from_cost(random_cost_matrix(p, p, rng), 1)
            be = ENCODERS[power_mode](cost_rows(nb.cost))
            seed = rng.randint(0, 10 ** 6)
            got = w1_pq_qsim(nb, be, seed=seed)
            want = w1_pq_qsim_full(nb, be, seed=seed)
            assert got.diagnostics.iterations == want.diagnostics.iterations
            assert got.diagnostics.gap_proxy == want.diagnostics.gap_proxy
            assert got.diagnostics.converged == want.diagnostics.converged
            assert abs(got.w1 - want.w1) <= 4 * math.ulp(want.w1)


def pq_qsim_peak(p, dim_cap):
    """tracemalloc peak of one p x p run, with its W1 checked against
    w1_assignment."""
    cost = random_cost_matrix(p, p, random.Random(37))
    # a first run loads numpy code lazily; clearing the cache keeps the
    # p! tables in the measured run
    pq_qsim_from_cost(cost, 1, seed=0, dim_cap=dim_cap)
    _permutations.cache_clear()
    tracemalloc.start()
    try:
        res = pq_qsim_from_cost(cost, 1, seed=0, dim_cap=dim_cap)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(res.w1 - float(w1_assignment(cost).cost_value)) <= 1e-8
    return peak


def test_pq_qsim_p7_allocates_no_pp_operator():
    # p^p = 823 543: the full route peaked at 150 MB; the support route
    # holds p! = 5040 entries per stage, its start included, so it stays
    # below one p^p float64 vector (6.28 MiB)
    assert pq_qsim_peak(7, DEFAULT_DIM_CAP) < 7 ** 7 * 8


def test_pq_qsim_p8_allocates_no_pp_array():
    # p^p = 16 777 216 is admitted by a raised cap; a p^p start alone
    # would take 128 MiB
    assert pq_qsim_peak(8, 10 ** 8) < 16 * 1024 * 1024


def test_pq_audit_trail_records_every_stage_in_order():
    p = 3
    audit = AuditTrail()
    nb = LocalNeighborhood.from_cost(random_cost_matrix(p, p, random.Random(41)), 1)
    be = build_distance_encoding(cost_rows(nb.cost))
    w1_pq_qsim(nb, be, seed=0, audit=audit)
    stages = [r["stage"] for r in audit.records]
    assert stages == ["localize_DG", "extract_D1", "extract_D2", "extract_D3",
                      "build_DP", "build_Pi[direct]", "composite", "min_eigen_power"]
    by_stage = {r["stage"]: r for r in audit.records}
    for stage in ("build_DP", "build_Pi[direct]", "composite"):
        assert by_stage[stage]["dim"] == p ** p
        assert by_stage[stage]["support"] == math.factorial(p)
    assert by_stage["build_Pi[direct]"]["rank"] == math.factorial(p)
    assert by_stage["build_Pi[direct]"]["subnorm"] == math.factorial(p)


def test_pq_qsim_refuses_a_zero_cost_permutation():
    # X = Y: the identity permutation costs 0, a zero eigenvalue that the
    # pseudoinverse does not see; the full route reports the next sum
    cost = [[0, 1], [1, 0]]
    nb = LocalNeighborhood.from_cost(cost, 1)
    be = build_distance_encoding(cost_rows(cost))
    assert w1_pq_qsim_full(nb, be, seed=0).w1 == pytest.approx(1.0)
    with pytest.raises(SpectrumOutOfRange, match="a permutation of the cost block sums to 0"):
        w1_pq_qsim(nb, be, seed=0)
    with pytest.raises(SpectrumOutOfRange):
        pq_qsim_from_cost([[2, 0, 1], [0, 3, 1], [1, 1, 0]], 1, seed=0)
    # on a graph, X = Y whenever x and y have the same other neighbors (K4)
    g = load_graph("0 1\n0 2\n0 3\n1 2\n1 3\n2 3")
    dg = all_pairs_geodesic(g)
    with pytest.raises(SpectrumOutOfRange, match="a permutation of the cost block sums to 0"):
        w1_pq_qsim(neighborhood(g, dg, 0, 1), build_distance_encoding(dg))


#: the stop tolerances the power stage is checked at, down to float64's
#: resolution, the smallest --eps that `orc` accepts
POWER_EPS = (1e-2, 1e-6, 1e-10, 1e-14, 2.0 ** -52)


def power_stage_inputs(seed):
    """(encoding, kappa_a, start) for the power stage, as w1_pq_qsim feeds
    it: random p x p cost blocks, p = 1..6, on the p! support; for p <= 4
    also the full route's p^p composite, zero off the permutations, with a
    start that is not; blocks of fractions, where nearly every
    permutation sum is distinct; and a block whose permutations all cost
    the same, where the gap is infinite."""
    rng = random.Random(seed)
    costs = [random_cost_matrix(p, p, rng, max_value=rng.choice((3, 10, 40)))
             for p in range(1, 7) for _ in range(3)]
    costs += [random_cost_matrix(p, p, rng, denominators=(1, 3, 7, 11, 13))
              for p in (4, 5, 6) for _ in range(2)]
    costs.append([[2, 5, 1], [5, 8, 4], [3, 6, 2]])    # c_ij = r_i + s_j
    for cost in costs:
        p = len(cost)
        local, _ = localized_for(cost, margin=0.05)
        ds = [extract_Di(local, i) for i in range(1, p + 1)]
        routes = [(build_Pi(p), build_DP(ds))]
        if p <= 4:
            routes.append((build_pi_full(p), build_dp_full(ds)))
        for pi, dp in routes:
            comp = be_product(pi, dp)
            enc = comp.encoded
            kappa_a = (1 + 1e-9) / float(np.min(enc[enc != 0.0]))
            start = np.random.default_rng(rng.randrange(2 ** 32)).standard_normal(comp.dim)
            yield comp, kappa_a, start


def assert_same_estimate(got, want):
    assert (got.iterations, got.converged, got.gap_proxy, got.initial_overlap) == \
        (want.iterations, want.converged, want.gap_proxy, want.initial_overlap)
    assert abs(got.value - want.value) <= 8 * math.ulp(want.value)


@pytest.mark.parametrize("eps", POWER_EPS)
def test_min_eigen_matches_the_per_vector_loop(eps):
    gaps = set()
    for comp, kappa_a, start in power_stage_inputs(61):
        got = min_eigen_power(comp, kappa_a, start, eps=eps)
        assert_same_estimate(got, min_eigen_power_loop(comp, kappa_a, start, eps=eps))
        assert got.converged
        gaps.add(got.gap_proxy)
    assert math.inf in gaps and len(gaps) > 10


@pytest.mark.parametrize("cap", [1, 2, 31, 32, 33, 96, 97])
def test_min_eigen_matches_the_per_vector_loop_under_the_cap(monkeypatch, cap):
    # the cap cuts runs inside and at the edges of the evaluated blocks
    monkeypatch.setattr(orcurv.qpipeline, "MAX_POWER_ITERATIONS", cap)
    stopped = 0
    for comp, kappa_a, start in power_stage_inputs(67):
        got = min_eigen_power(comp, kappa_a, start, eps=2.0 ** -52)
        assert_same_estimate(got, min_eigen_power_loop(comp, kappa_a, start, eps=2.0 ** -52))
        assert got.iterations <= cap
        stopped += not got.converged
    assert stopped > 0


def test_min_eigen_start_vector():
    be = BlockEncoding([0.5, 0.25, 1.0], 1.0)
    kappa = 4.0 * (1 + 1e-9)
    start = np.random.default_rng(5).standard_normal(3)
    with pytest.raises(DimMismatch):
        min_eigen_power(be, kappa, start=start[:2])


# --- ledger and scaling --------------------------------------------------------------------

def test_subnorm_ledger_stage_by_stage():
    rng = random.Random(71)
    cost = random_cost_matrix(3, 3, rng)
    c = np.array([[float(v) for v in row] for row in cost])
    grid = cost_rows(cost)
    audit = AuditTrail()
    be = build_distance_encoding(grid, margin=0.0, audit=audit)
    local = localize_DG(be, cost)
    ds = [extract_Di(local, i) for i in (1, 2, 3)]
    dp = build_dp_full(ds, audit=audit)
    pi = build_pi_full(3, audit=audit)
    comp = be_product(pi, dp)

    # encoded * subnorm reproduces the intended raw operator at each stage
    assert np.allclose(every_entry(be, grid), np.array(grid, dtype=float).ravel(), atol=1e-12)
    assert np.allclose(local.encoded * local.subnorm, c.T.ravel(), atol=1e-12)
    for i, d_i in enumerate(ds):
        assert np.allclose(d_i.encoded * d_i.subnorm, c[:, i], atol=1e-12)
    sums = np.array([c[(k // 9) % 3, 0] + c[(k // 3) % 3, 1] + c[k % 3, 2]
                     for k in range(27)])
    assert np.allclose(dp.encoded * dp.subnorm, sums, atol=1e-12)
    mask = np.zeros(27)
    for perm in itertools.permutations(range(1, 4)):
        mask[perm_index(perm, 3)] = 1.0
    assert np.allclose(pi.encoded * pi.subnorm, mask, atol=1e-12)
    assert np.allclose(comp.encoded * comp.subnorm, mask * sums, atol=1e-12)

    # the audit records mirror the encodings
    by_stage = {r["stage"]: r for r in audit.records}
    assert by_stage["distance_encoding"]["subnorm"] == pytest.approx(be.subnorm)
    assert by_stage["build_DP"]["subnorm"] == pytest.approx(3 * be.subnorm)
    assert by_stage["build_DP"]["dim"] == 27

    # on the support, each stage equals its p^p counterpart at the permutations
    flat = permutation_indices(3)
    dp_s = build_DP(ds)
    pi_s = build_Pi(3)
    comp_s = be_product(pi_s, dp_s)
    assert np.allclose(dp_s.encoded * dp_s.subnorm, sums[flat], atol=1e-12)
    assert np.allclose(pi_s.encoded * pi_s.subnorm, mask[flat], atol=1e-12)
    assert np.allclose(comp_s.encoded * comp_s.subnorm, (mask * sums)[flat], atol=1e-12)

    # w1_pq_qsim writes the support-side ledger, one record per stage in order
    trail = AuditTrail()
    res = w1_pq_qsim(LocalNeighborhood.from_cost(cost, 1), be, seed=0, audit=trail)
    assert [r["stage"] for r in trail.records] == [
        "localize_DG", "extract_D1", "extract_D2", "extract_D3", "build_DP",
        "build_Pi[direct]", "composite", "min_eigen_power"]
    by_stage = {r["stage"]: r for r in trail.records}
    for stage, enc in [("localize_DG", local), ("build_DP", dp_s), ("build_Pi[direct]", pi_s),
                       ("composite", comp_s)] + [(f"extract_D{i}", d_i)
                                                  for i, d_i in enumerate(ds, start=1)]:
        rec, nonzero = by_stage[stage], enc.encoded[enc.encoded != 0]
        assert rec["subnorm"] == pytest.approx(enc.subnorm)
        assert rec["min_entry"] == pytest.approx(float(np.min(nonzero)))
        assert rec["max_entry"] == pytest.approx(float(np.max(nonzero)))
    assert by_stage["localize_DG"]["p"] == 3
    assert by_stage["build_DP"]["subnorm"] == pytest.approx(3 * be.subnorm)
    for stage in ("build_DP", "build_Pi[direct]", "composite"):
        assert (by_stage[stage]["dim"], by_stage[stage]["support"]) == (27, 6)
    assert by_stage["build_Pi[direct]"]["subnorm"] == 6.0
    assert by_stage["build_Pi[direct]"]["rank"] == 6
    note = dict(by_stage["min_eigen_power"])
    assert note.pop("stage") == "min_eigen_power"
    assert note == dataclasses.asdict(res.diagnostics)


def test_scale_property():
    rng = random.Random(83)
    cost = random_cost_matrix(3, 3, rng)
    lam = 3.5
    scaled = [[float(v) * lam for v in row] for row in cost]
    base = pq_qsim_from_cost(cost, 2, seed=4)
    big = pq_qsim_from_cost(scaled, 2 * lam, seed=4)
    be_base = build_distance_encoding(cost_rows(cost))
    be_big = build_distance_encoding(cost_rows(scaled))
    assert be_big.subnorm == pytest.approx(lam * be_base.subnorm, rel=1e-12)
    assert big.w1 == pytest.approx(lam * base.w1, rel=1e-10)
    assert big.curvature == pytest.approx(base.curvature, abs=1e-10)
