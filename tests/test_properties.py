"""Property tests: ingest never raises outside OrcError; solver identities;
the distance encoding's entry reads against its N^2 form.

Derandomized and bounded, so the suite stays deterministic and quick.
"""

import contextlib
import io
import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import orcurv.transport
from helpers import internal_edges, transport_flows
from orcurv.cli import main
from orcurv.errors import EmptyNeighborhood, InfiniteCost, OrcError
from orcurv.graph import (
    INF,
    Graph,
    LocalNeighborhood,
    _dijkstra_row,
    all_pairs_geodesic,
    load_graph,
    neighborhood,
    verify_tree,
)
from orcurv.qpipeline import AuditTrail, build_distance_encoding, cost_rows, localize_DG
from orcurv.transport import (
    _lift_block,
    _lift_entries,
    curvature,
    w1_assignment,
    w1_bruteforce,
    w1_lp,
    w1_tree,
)
from reference import _UnionFind, _basic_solutions, grid_distance_encoding, lp_vertex_oracle

BOUNDED = settings(max_examples=150, derandomize=True, database=None, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])

#: characters that matter to the parsers, plus a few unicode look-alikes
#: (an Arabic-Indic digit, a no-break space, a line separator, a BOM, NUL);
#: a fixed alphabet also spares hypothesis its unicode tables
ALPHABET = list("0123456789 -+.eE/#\n\t{}[]\":,nNaIfxy\u0663\u00a0\u2028\ufeff\x00")
texts = st.text(alphabet=ALPHABET, max_size=60)

json_scalars = (st.none() | st.booleans() | st.integers(-10 ** 30, 10 ** 30)
                | st.floats(allow_nan=True, allow_infinity=True)
                | st.text(alphabet=ALPHABET, max_size=4))
json_values = st.recursive(
    json_scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(alphabet=ALPHABET, max_size=4), inner, max_size=3)),
    max_leaves=12)
small_numbers = (st.integers(-3, 12) | st.floats(-1.0, 1e3) | st.booleans()
                 | st.just(float("nan")) | st.just(float("inf"))
                 | st.text(alphabet=ALPHABET, max_size=2))


@st.composite
def json_graphs(draw):
    """Text shaped like a JSON graph, well-formed or not."""
    edge = st.lists(small_numbers, min_size=0, max_size=4)
    n = draw(st.integers(0, 8) if draw(st.booleans()) else small_numbers)
    edges = draw(st.sampled_from([st.lists(edge, max_size=6), st.lists(json_values, max_size=3),
                                  json_scalars, json_values]))
    return json.dumps({"n": n, "edges": draw(edges)})


@st.composite
def edge_lists(draw):
    """Text shaped like an edge list: lines of tokens, well-formed or not."""
    token = (st.integers(-2, 9).map(str) | st.sampled_from(["1.5", "2/3", "0", "-1", "nan",
                                                            "inf", "1e400", "x", "#", "1/0"])
             | st.text(alphabet=ALPHABET, max_size=3))
    lines = st.lists(st.lists(token, max_size=4).map(" ".join), max_size=8)
    return "\n".join(draw(lines))


@st.composite
def cost_fixtures(draw):
    """Text shaped like a cost-matrix fixture, well-formed or not."""
    p, q = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    cost = draw(st.lists(st.lists(small_numbers, min_size=q, max_size=q), min_size=p,
                         max_size=p) | json_values)
    obj = {"cost": cost, "dxy": draw(small_numbers)}
    if draw(st.booleans()):
        obj = draw(st.sampled_from([{"cost": cost}, [cost]]) | json_values)
    return json.dumps(obj)


@BOUNDED
@given(texts | edge_lists(), st.sampled_from(["rational", "float"]))
def test_edge_list_ingest_succeeds_or_raises_orc_error(text, numeric):
    try:
        g = load_graph(text, format="edge_list", numeric=numeric)
    except OrcError:
        return
    assert g.edge_count >= 1


@BOUNDED
@given(texts | json_graphs() | json_values.map(json.dumps),
       st.sampled_from(["rational", "float"]))
def test_json_ingest_succeeds_or_raises_orc_error(text, numeric):
    try:
        g = load_graph(text, format="json", numeric=numeric)
    except OrcError:
        return
    assert g.vertex_count >= 1


@pytest.fixture(scope="module")
def fixture_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fixture.json"


@BOUNDED
@given(text=texts | cost_fixtures(),
       numeric=st.sampled_from(["rational", "float"]))
def test_cost_matrix_cli_exits_0_2_or_3(fixture_path, text, numeric):
    fixture_path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["compute", "--input", str(fixture_path), "--format", "cost_matrix",
                     "--numeric", numeric])
    assert code in (0, 2, 3)
    assert (out.getvalue() != "") == (code == 0)


@st.composite
def cost_blocks(draw):
    p = draw(st.integers(1, 8))
    q = draw(st.integers(1, 9 - p))
    cost = draw(st.lists(st.lists(st.integers(0, 20), min_size=q, max_size=q),
                         min_size=p, max_size=p))
    return LocalNeighborhood.from_cost(cost, draw(st.integers(1, 5)))


@st.composite
def tied_cost_blocks(draw):
    """A cost_blocks shape with entries in {0, 1, 2, 3}, an unweighted
    graph's costs: nearest rows and tight arcs tie often."""
    p = draw(st.integers(1, 8))
    q = draw(st.integers(1, 9 - p))
    cost = draw(st.lists(st.lists(st.integers(0, 3), min_size=q, max_size=q),
                         min_size=p, max_size=p))
    return LocalNeighborhood.from_cost(cost, draw(st.integers(1, 3)))


@settings(BOUNDED, max_examples=80)
@given(cost_blocks())
def test_w1_lp_equals_vertex_oracle(nb):
    assert w1_lp(nb).cost_value == lp_vertex_oracle(nb)


@settings(BOUNDED, max_examples=80)
@given(tied_cost_blocks())
def test_w1_lp_equals_vertex_oracle_on_tied_blocks(nb):
    assert w1_lp(nb).cost_value == lp_vertex_oracle(nb)


@settings(BOUNDED, max_examples=80)
@given(tied_cost_blocks())
@example(LocalNeighborhood.from_cost([[0] * 3 for _ in range(5)], 1))
@example(LocalNeighborhood.from_cost([[2, 0, 3, 1], [0, 2, 1, 3], [3, 1, 2, 0], [1, 3, 0, 2]], 1))
@example(LocalNeighborhood.from_cost([[1] * 5 for _ in range(3)], 1))
@example(LocalNeighborhood.from_cost([[1, 1], [1, 1]], 1))
def test_transport_flows_are_vertices_on_tied_blocks(nb):
    # w1_lp's flow is a basic solution of the transportation polytope;
    # on a square block, w1_assignment's is p times the oracle's permutation
    flow = w1_lp(nb).flow
    cells = tuple((i, j, f) for i, row in enumerate(flow) for j, f in enumerate(row) if f)
    assert cells in _basic_solutions(nb.p, nb.q)[0]
    if nb.p == nb.q:
        p = nb.p
        with transport_flows() as flows:
            w1_assignment(nb.cost)
        pi = w1_bruteforce(nb.cost).pi
        assert flows == [[[p if pi[j] == i else 0 for j in range(p)] for i in range(p)]]


@st.composite
def tied_square_blocks(draw):
    """A p x p block, p <= 6, of entries in {0, 1, 2} (ints, or floats over 10):
    optimal permutations tie often."""
    p = draw(st.integers(1, 6))
    entry = st.sampled_from([0, 1, 2])
    if draw(st.booleans()):
        entry = entry.map(lambda v: v / 10)
    return draw(st.lists(st.lists(entry, min_size=p, max_size=p), min_size=p, max_size=p))


@settings(BOUNDED, max_examples=120)
@given(tied_square_blocks())
def test_w1_assignment_equals_bruteforce_and_lp(cost):
    a, b = w1_assignment(cost), w1_bruteforce(cost)
    assert a.pi == b.pi
    assert a.cost_value == b.cost_value
    assert type(a.cost_value) is type(b.cost_value)
    assert a.cost_value == w1_lp(LocalNeighborhood.from_cost(cost, 1)).cost_value


#: floats at the edges of the lift: zeros of both signs, the least
#: subnormal and normal, a 2^+-1000 pair that no one 2^shift scales into
#: float range (the entry-by-entry route), and the non-finite values
EDGE_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 2.0 ** -1000, 2.0 ** 1000,
               0.1, 1.0, 2.0 ** 53 + 2, math.inf, math.nan]
float_entries = (st.floats(-1e6, 1e6) | st.sampled_from(EDGE_FLOATS)
                 | st.floats(allow_nan=False, allow_infinity=False))
mixed_entries = float_entries | st.integers(-5, 20) | st.fractions(max_denominator=12)


@st.composite
def lift_cases(draw):
    """(p x q block, x_dists, dxy, y_dists), mostly floats: each part is
    all floats or, now and then, mixed with ints and Fractions."""
    def numbers(size):
        mixed = draw(st.integers(0, 5)) == 0
        return draw(st.lists(mixed_entries if mixed else float_entries,
                             min_size=size, max_size=size))

    p, q = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cost = [numbers(q) for _ in range(p)]
    dxy = draw(st.sampled_from([0.25, 1.0, 0.1, 3, Fraction(1, 3), 2.0 ** -1000, 5e-324]))
    return cost, numbers(p), dxy, numbers(q)


def _or_refused(fn, *args):
    """fn(*args), or InfiniteCost where it raises that."""
    try:
        return fn(*args)
    except InfiniteCost:
        return InfiniteCost


@settings(BOUNDED, max_examples=300)
@given(lift_cases())
@example(([[0.1, 0.0], [-0.0, 3.0]], [0.5, 5e-324], 1.0, [2.0 ** 1000, 1.0]))
@example(([[math.inf]], [1.0], 1.0, [math.nan]))
def test_lift_is_exact_and_solves_as_the_entry_by_entry_lift(case):
    cost, x_dists, dxy, y_dists = case
    for rows in (cost, (x_dists, (dxy,), y_dists)):
        got = _or_refused(_lift_block, rows)
        assert got == _or_refused(_lift_entries, rows)
        if got is InfiniteCost:
            continue
        block, den, _ = got
        assert [len(row) for row in block] == [len(row) for row in rows]
        assert all(Fraction(b, den) == x
                   for brow, row in zip(block, rows) for b, x in zip(brow, row))
    nb = LocalNeighborhood(x=0, y=1, X=tuple(range(len(cost))),
                           Y=tuple(range(len(cost[0]))), cost=tuple(map(tuple, cost)),
                           dxy=dxy, x_dists=tuple(x_dists), y_dists=tuple(y_dists))
    for solve in (lambda: w1_lp(nb).cost_value, lambda: w1_tree(nb)):
        got = _or_refused(solve)
        with mock.patch.object(orcurv.transport, "_lift_block", _lift_entries):
            assert _typed(got) == _typed(_or_refused(solve))


@st.composite
def weighted_graphs(draw):
    """A connected integer-weighted graph: a random tree plus a few chords."""
    n = draw(st.integers(3, 9))
    weight = st.integers(1, 9)
    edges = {(draw(st.integers(0, v - 1)), v): draw(weight) for v in range(1, n)}
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=6)):
        if u != v:
            edges.setdefault((min(u, v), max(u, v)), draw(weight))
    return Graph(n, [(u, v, w) for (u, v), w in sorted(edges.items())])


@settings(BOUNDED, max_examples=60)
@given(weighted_graphs(), st.integers(1, 12), st.integers(1, 5))
def test_scaling_weights_scales_w1_and_keeps_curvature(g, num, den):
    k = Fraction(num, den)
    scaled = Graph(g.vertex_count, [(u, v, w * k) for u, v, w in g.edges])
    dg, dg_k = all_pairs_geodesic(g), all_pairs_geodesic(scaled)
    for x, y in internal_edges(g):
        base = curvature(neighborhood(g, dg, x, y), method="lp")
        big = curvature(neighborhood(scaled, dg_k, x, y), method="lp")
        assert big.w1 == k * base.w1
        assert big.curvature == base.curvature


#: weights of each number type a run's distances can hold
WEIGHTS = {
    "int": st.integers(1, 9),
    "fraction": st.builds(Fraction, st.integers(1, 60), st.integers(1, 13)),
    "float": st.floats(1e-3, 1e3),
}


@st.composite
def encoded_runs(draw):
    """(rows, nbs): the distance rows a qsim run encodes and the
    neighborhoods whose distances its stages encode. Either a square cost
    matrix's cost_rows with its one from_cost neighborhood; or the APSP
    rows of a tree (`trees`) or of a connected graph that mostly has
    cycles, with the neighborhood of every edge in both orientations,
    with or without the endpoints, where it is not empty."""
    kind = draw(st.sampled_from(["cost", "tree", "graph"]))
    if kind == "cost":
        weight = WEIGHTS[draw(st.sampled_from(sorted(WEIGHTS)))]
        p = draw(st.integers(1, 6))
        cost = draw(st.lists(st.lists(st.just(0) | weight, min_size=p, max_size=p),
                             min_size=p, max_size=p))
        return cost_rows(cost), [LocalNeighborhood.from_cost(cost, 1)]
    if kind == "tree":
        g = draw(trees())
    else:
        weight = WEIGHTS[draw(st.sampled_from(sorted(WEIGHTS)))]
        n = draw(st.integers(3, 10))
        edges = {(draw(st.integers(0, v - 1)), v): draw(weight) for v in range(1, n)}
        for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                  min_size=1, max_size=8)):
            if u != v:
                edges.setdefault((min(u, v), max(u, v)), draw(weight))
        g = Graph(n, [(u, v, w) for (u, v), w in sorted(edges.items())])
    dg = all_pairs_geodesic(g)
    include_endpoints = draw(st.booleans())
    nbs = []
    for u, v, _ in g.edges:
        for x, y in ((u, v), (v, u)):
            with contextlib.suppress(EmptyNeighborhood):
                nbs.append(neighborhood(g, dg, x, y, include_endpoints))
    return dg, nbs


def _bits(a: np.ndarray) -> bytes:
    assert a.dtype == np.float64
    return a.tobytes()


@settings(BOUNDED, max_examples=120)
@given(encoded_runs(), st.sampled_from([0.0, 0.05, 0.3]))
def test_distance_encoding_reads_equal_the_grid_oracle(case, margin):
    # the scalars, the trace record and every distance of the grid mapped
    # through entries(d), bit for bit against the N^2 grid, its fourth
    # powers and be_power on them
    rows, _ = case
    want_audit = AuditTrail()
    try:
        want = grid_distance_encoding(rows, margin, audit=want_audit)
    except OrcError as exc:    # an all-zero cost matrix, a one-vertex tree
        with pytest.raises(type(exc)):
            build_distance_encoding(rows, margin)
        return
    audit = AuditTrail()
    be = build_distance_encoding(rows, margin, audit=audit)
    assert audit.records == want_audit.records
    assert (be.subnorm, be.ancilla_dim) == (want.subnorm, want.ancilla_dim)
    assert _bits(be.entries([d for row in rows for d in row]).op) == _bits(want.op)


@settings(BOUNDED, max_examples=200)
@given(encoded_runs(), st.sampled_from([0.0, 0.05, 0.3]))
def test_stage_reads_equal_the_grid_oracle_at_the_vertex_indices(case, margin):
    # what each stage encodes from its neighborhood (the cost block, and
    # on a graph the centre distances and d(x, y)) against the N^2 grid at
    # the vertex indices, bit for bit: the stages lose nothing by reading
    # the neighborhood instead of the rows
    rows, nbs = case
    try:
        grid = grid_distance_encoding(rows, margin).op.reshape(len(rows), len(rows))
    except OrcError:    # refused alike, as the test above checks
        return
    be = build_distance_encoding(rows, margin)
    for nb in nbs:
        X, Y = list(nb.X), list(nb.Y)
        block = grid[np.ix_(X, Y)]
        assert _bits(be.entries([d for row in nb.cost for d in row]).op) == _bits(block.ravel())
        if nb.p == nb.q:
            assert _bits(localize_DG(be, nb.cost).op) == _bits(block.T.ravel())
        if nb.x is not None:    # a graph's edge: d(x, y) is a grid entry
            assert _bits(be.entries([nb.dxy]).op) == _bits(grid[nb.x, [nb.y]])
        if nb.x_dists is not None:    # a tree's: the tree stage's centre distances
            assert _bits(be.entries(nb.x_dists).op) == _bits(grid[nb.x, X])
            assert _bits(be.entries(nb.y_dists).op) == _bits(grid[nb.y, Y])


#: tree weights of each number type, with magnitudes 2^40 apart, so that a
#: float path sum rounds and the order of its additions shows in the bits
TREE_WEIGHTS = {
    "int": st.integers(1, 9) | st.integers(2 ** 40, 2 ** 41),
    "fraction": st.integers(1, 9) | st.builds(Fraction, st.integers(1, 2 ** 45),
                                              st.integers(1, 13)),
    "float": (st.sampled_from([2.0 ** -20, 0.1, 1.0, 2.0 ** 20, 3.0 * 2.0 ** 20])
              | st.floats(2.0 ** -20, 2.0 ** 20)),
}


@st.composite
def trees(draw):
    """A tree on 1-12 vertices, relabelled at random, with weights of one
    kind of TREE_WEIGHTS."""
    weight = TREE_WEIGHTS[draw(st.sampled_from(sorted(TREE_WEIGHTS)))]
    n = draw(st.integers(1, 12))
    label = draw(st.permutations(range(n)))
    return Graph(n, [(label[draw(st.integers(0, v - 1))], label[v], draw(weight))
                     for v in range(1, n)])


@st.composite
def cyclic_forests(draw):
    """A graph with N - 1 edges that is not a tree: a tree on N - 1
    vertices plus one chord, and one isolated vertex, relabelled."""
    weight = TREE_WEIGHTS[draw(st.sampled_from(sorted(TREE_WEIGHTS)))]
    n = draw(st.integers(4, 12))
    label = draw(st.permutations(range(n)))
    edges = {(draw(st.integers(0, v - 1)), v): draw(weight) for v in range(1, n - 1)}
    chord = draw(st.sampled_from([(u, v) for u in range(n - 1) for v in range(u + 1, n - 1)
                                  if (u, v) not in edges]))
    edges[chord] = draw(weight)
    return Graph(n, [(label[u], label[v], w) for (u, v), w in edges.items()])


def _fields(nb: LocalNeighborhood) -> tuple:
    return (nb.x, nb.y, nb.X, nb.Y, nb.cost, nb.dxy, nb.x_dists, nb.y_dists)


def _typed(v):
    """v with the type of every number in it, each float by its bits."""
    if isinstance(v, tuple):
        return tuple(_typed(x) for x in v)
    return type(v), v.hex() if isinstance(v, float) else v


def _dijkstra_rows(g: Graph) -> tuple:
    zero = 0 if g.rational else 0.0
    return tuple(_dijkstra_row(g._adjacency, g.vertex_count, s, zero)
                 for s in range(g.vertex_count))


@BOUNDED
@given(trees())
def test_tree_rows_equal_dijkstra_rows_bit_for_bit(g):
    assert _typed(all_pairs_geodesic(g)) == _typed(_dijkstra_rows(g))


@settings(BOUNDED, max_examples=60)
@given(cyclic_forests())
def test_n_minus_one_edges_with_a_cycle_get_dijkstra_rows(g):
    rows = all_pairs_geodesic(g)
    assert _typed(rows) == _typed(_dijkstra_rows(g))
    assert all(INF in row for row in rows)


@BOUNDED
@given(trees(), st.booleans())
def test_tree_neighborhood_from_adjacency_equals_the_one_from_rows(g, include_endpoints):
    # every field against the rows indexed directly, bits and type: a tree
    # neighborhood sums its distances from the edge weights, rows or none
    dg = all_pairs_geodesic(g)
    adjacent = {v: set() for v in range(g.vertex_count)}
    for u, v, _ in g.edges:
        adjacent[u].add(v)
        adjacent[v].add(u)
    for u, v, _ in g.edges:
        for x, y in ((u, v), (v, u)):
            X = sorted(adjacent[x] - {y} | ({x} if include_endpoints else set()))
            Y = sorted(adjacent[y] - {x} | ({y} if include_endpoints else set()))
            for rows in (None, dg):
                if not X or not Y:
                    with pytest.raises(EmptyNeighborhood):
                        neighborhood(g, rows, x, y, include_endpoints)
                    continue
                want = (x, y, tuple(X), tuple(Y), tuple(tuple(dg[a][b] for b in Y) for a in X),
                        dg[x][y], tuple(dg[x][a] for a in X), tuple(dg[y][b] for b in Y))
                got = neighborhood(g, rows, x, y, include_endpoints)
                assert _typed(_fields(got)) == _typed(want)


@st.composite
def forests_and_a_chord(draw):
    """A forest on 1-12 vertices, relabelled, with or without one more
    edge: a tree, a forest, or either plus a chord (which may join two of
    the forest's trees into one)."""
    n = draw(st.integers(1, 12))
    label = draw(st.permutations(range(n)))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n) if draw(st.booleans())}
    free = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    if free and draw(st.booleans()):
        edges.add(draw(st.sampled_from(free)))
    return Graph(n, [(label[u], label[v]) for u, v in sorted(edges)])


@settings(BOUNDED, max_examples=300)
@given(trees() | cyclic_forests() | forests_and_a_chord())
@example(load_graph('{"n": 1, "edges": []}', format="json"))
def test_verify_tree_against_union_find(g):
    uf = _UnionFind(g.vertex_count)
    acyclic = all(uf.union(u, v) for u, v, _ in g.edges)
    assert verify_tree(g) == (acyclic and g.edge_count == g.vertex_count - 1)
