"""Graph ingestion, geodesics, and neighborhood extraction."""

import json
import math
import random
import time
from fractions import Fraction
from functools import cached_property

import pytest

import orcurv.graph
from helpers import bellman_ford_row, floyd_warshall_rows, random_connected_graph
from orcurv.cli import main
from orcurv.errors import (
    DuplicateEdge,
    EmptyNeighborhood,
    InvalidWeight,
    NotAnEdge,
    NotATree,
    ParseError,
    SelfLoop,
)
from orcurv.graph import (
    MAX_DECIMAL_EXPONENT,
    Graph,
    LocalNeighborhood,
    all_pairs_geodesic,
    load_graph,
    neighborhood,
    verify_tree,
)
from reference import all_finite

INF = math.inf


# --- parsing -----------------------------------------------------------------

def test_edge_list_unit_weight_default():
    g = load_graph("0 1\n1 2")
    assert g.vertex_count == 3
    assert g.edges == ((0, 1, 1), (1, 2, 1))


def test_edge_list_explicit_weight():
    g = load_graph("0 1 2.5")
    assert g.vertex_count == 2
    assert g.edges == ((0, 1, Fraction(5, 2)),)
    assert g.edges[0][2] == 2.5


def test_edge_list_negative_weight_rejected():
    with pytest.raises(InvalidWeight):
        load_graph("0 1 -1")
    with pytest.raises(InvalidWeight):
        load_graph("0 1 0")


def test_edge_list_comments_and_blanks():
    g = load_graph("# header\n\n0 1  # trailing\n 1 2 3 \n")
    assert g.edges == ((0, 1, 1), (1, 2, 3))


def test_edge_list_malformed():
    with pytest.raises(ParseError):
        load_graph("0\n")
    with pytest.raises(ParseError):
        load_graph("0 1 2 3\n")
    with pytest.raises(ParseError):
        load_graph("a b\n")
    with pytest.raises(ParseError):
        load_graph("")


def test_self_loop_and_duplicate():
    with pytest.raises(SelfLoop):
        load_graph("2 2")
    with pytest.raises(DuplicateEdge):
        load_graph("0 1\n1 0")


@pytest.mark.parametrize("vertex_count, edges", [
    (4, [(0, True), (True, 2), (2, 3)]),
    (4, [(False, 1, 2)]),
    (True, []),
    (4, [(0, 1.0)]),
], ids=["true-vertex", "false-vertex", "bool-count", "float-vertex"])
def test_graph_refuses_a_non_integer_vertex(vertex_count, edges):
    # bool is an int subclass, so True would pass for vertex 1
    with pytest.raises(ParseError):
        Graph(vertex_count, edges)


def test_json_format():
    g = load_graph(json.dumps({"n": 4, "edges": [[0, 1], [1, 2, 2.5]]}), format="json")
    assert g.vertex_count == 4
    assert g.edges == ((0, 1, 1), (1, 2, Fraction(5, 2)))


def test_json_malformed():
    with pytest.raises(ParseError):
        load_graph("{", format="json")
    with pytest.raises(ParseError):
        load_graph(json.dumps({"edges": []}), format="json")
    with pytest.raises(ParseError):
        load_graph(json.dumps({"n": 2, "edges": [[0]]}), format="json")


def test_auto_numeric_mode_is_refused():
    # rational is the default; "auto" was a second name for it
    assert load_graph("0 1 1/2\n1 2").edges[0][2] == Fraction(1, 2)
    for source, fmt in (("0 1 1/2\n1 2", "edge_list"), ('{"n": 2, "edges": [[0, 1]]}', "json")):
        with pytest.raises(ParseError, match="numeric mode 'auto'"):
            load_graph(source, format=fmt, numeric="auto")


def test_float_numeric_mode():
    g = load_graph("0 1 2.5\n1 2", numeric="float")
    assert all(isinstance(w, float) for _, _, w in g.edges)
    assert not g.rational


# --- all-pairs geodesics ------------------------------------------------------

def test_triangle_shortcut():
    g = load_graph("0 1 1\n1 2 1\n0 2 3")
    dg = all_pairs_geodesic(g)
    assert dg[0][2] == 2
    # the direct edge is undercut by the two-hop path
    assert dg[0][2] < 3


def test_path_distance():
    g = load_graph("0 1\n1 2")
    dg = all_pairs_geodesic(g)
    assert dg[0][2] == 2


def test_disconnected_is_inf():
    g = load_graph(json.dumps({"n": 2, "edges": []}), format="json")
    dg = all_pairs_geodesic(g)
    assert dg[0][1] == INF
    assert not all_finite(dg)


def test_matches_bellman_ford_oracle():
    rng = random.Random(11)
    for trial in range(8):
        n = rng.randint(4, 40)
        g = random_connected_graph(n, extra=rng.randint(0, n), rng=rng)
        dg = all_pairs_geodesic(g)
        for s in range(n):
            assert list(dg[s]) == bellman_ford_row(g, s)


def test_metric_invariants_exhaustive():
    rng = random.Random(7)
    for trial in range(4):
        n = rng.randint(5, 24)
        g = random_connected_graph(n, extra=rng.randint(0, 2 * n), rng=rng)
        d = all_pairs_geodesic(g)
        for i in range(n):
            assert d[i][i] == 0
            for j in range(n):
                assert d[i][j] == d[j][i]
                for k in range(n):
                    assert d[i][j] <= d[i][k] + d[k][j]
        for u, v, w in g.edges:
            assert d[u][v] <= w


def test_metric_invariants_sampled_large():
    rng = random.Random(101)
    g = random_connected_graph(150, extra=120, rng=rng)
    d = all_pairs_geodesic(g)
    n = g.vertex_count
    for _ in range(3000):
        i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        assert d[i][j] == d[j][i]
        assert d[i][j] <= d[i][k] + d[k][j]
    assert all(d[i][i] == 0 for i in range(n))


def test_dijkstra_equals_floyd_warshall():
    rng = random.Random(3)
    for trial in range(5):
        g = random_connected_graph(rng.randint(4, 20), extra=10, rng=rng)
        a = all_pairs_geodesic(g)
        b = floyd_warshall_rows(g)
        assert list(a) == b


@pytest.mark.parametrize("algorithm", ["dijkstra", "floyd_warshall"])
def test_weight_beyond_float_range_stays_exact(algorithm):
    g = load_graph("0 1 1e400\n1 2\n2 3\n")
    d = all_pairs_geodesic(g) if algorithm == "dijkstra" else floyd_warshall_rows(g)
    assert d[0][3] == 10 ** 400 + 2
    assert d[3][0] == 10 ** 400 + 2
    assert d[1][3] == 2


def _dense_float_graph(rng: random.Random) -> Graph:
    """A float graph of density >= 0.5 whose last `split` vertices form a
    second component (split = 0: one component, 1: an isolated vertex)."""
    while True:
        n = rng.randint(2, 60)
        split = rng.choice([0, 0, 1, 2, 3]) if n > 4 else 0
        keep = rng.uniform(0.5, 1.0)
        edges = [(u, v, rng.random() * 10 ** rng.randint(-3, 3))
                 for u in range(n) for v in range(u + 1, n)
                 if (u < n - split) == (v < n - split) and rng.random() < keep]
        if 2 * len(edges) >= n * (n - 1) * 0.5:
            return Graph(n, edges)


def test_dense_float_apsp_rows_are_relaxation_fixed_points():
    # fl(a + w) >= a for w >= 0, so each float row is the fixed point of
    # float relaxation from its source, bit for bit, inf where unreachable
    rng = random.Random(8)
    disconnected = 0
    for trial in range(80):
        g = _dense_float_graph(rng)
        d = all_pairs_geodesic(g)
        adj = g._adjacency
        for s, row in enumerate(d):
            assert row[s] == 0.0
            for v in range(g.vertex_count):
                if v != s:
                    assert row[v] == min((row[u] + w for u, w in adj[v]), default=INF)
        assert all(type(x) is float for row in d for x in row)
        disconnected += not all_finite(d)
    assert disconnected >= 10


def test_dense_float_apsp_is_within_rounding_of_exact():
    # each float sum along a path of fewer than n edges rounds once per
    # edge, so each entry lies within n * 2^-53 relative of the exact
    # distance on the same weights lifted to Fractions
    rng = random.Random(8)
    for trial in range(5):
        g = _dense_float_graph(rng)
        n = g.vertex_count
        exact = floyd_warshall_rows(Graph(n, [(u, v, Fraction(w)) for u, v, w in g.edges]))
        for row, exact_row in zip(all_pairs_geodesic(g), exact):
            for x, e in zip(row, exact_row):
                if e == INF:
                    assert x == INF
                else:
                    assert abs(Fraction(x) - e) <= n * Fraction(1, 2 ** 53) * e


@pytest.mark.parametrize("kind", ["int-beyond-2^53", "fraction"])
def test_dense_exact_apsp_stays_exact(kind):
    rng = random.Random(9)
    n = 14
    weight = ((lambda: 2 ** 60 + rng.randint(0, 1000)) if kind == "int-beyond-2^53"
              else (lambda: Fraction(rng.randint(1, 50), rng.randint(1, 7))))
    g = Graph(n, [(u, v, weight()) for u in range(n) for v in range(u + 1, n)
                  if rng.random() < 0.7])
    assert 2 * g.edge_count >= n * (n - 1) * 0.5 and g.rational
    dg = all_pairs_geodesic(g)
    for s in range(n):
        assert list(dg[s]) == bellman_ford_row(g, s)
    exact = int if kind == "int-beyond-2^53" else (int, Fraction)
    assert all(isinstance(x, exact) and not isinstance(x, bool)
               for row in dg for x in row)
    assert all(type(dg[i][i]) is int and dg[i][i] == 0 for i in range(n))


@pytest.mark.parametrize("rational, extra", [
    (False, 300),
    (True, 300),
    (False, 20),
], ids=["dense-float", "dense-exact", "sparse-float"])
def test_apsp_runs_dijkstra_once_per_source(monkeypatch, rational, extra):
    g = random_connected_graph(30, extra=extra, rng=random.Random(11), rational=rational)
    sources = []
    real = orcurv.graph._dijkstra_row
    monkeypatch.setattr(orcurv.graph, "_dijkstra_row",
                        lambda adj, n, source, zero: sources.append(source)
                        or real(adj, n, source, zero))
    d = all_pairs_geodesic(g)
    assert sources == list(range(30))
    # one number type per graph: a float graph's rows hold only floats,
    # the zero diagonal included; an int graph's only ints
    assert all(type(x) is (int if rational else float) for row in d for x in row)


@pytest.mark.parametrize("n, edges, dijkstra_sources, connected", [
    (5, [(0, 1, 2), (1, 2, Fraction(1, 3)), (1, 3, 5), (3, 4, 1)], [], True),   # a tree
    (2, [(0, 1)], [], True),                                                    # one edge
    (4, [(0, 1), (1, 2), (0, 2)], [0, 1, 2, 3], False),    # N - 1 edges, 3 isolated
    (4, [(1, 2), (2, 3), (1, 3)], [0, 1, 2, 3], False),    # N - 1 edges, 0 isolated
    (4, [(0, 1), (1, 2), (2, 3), (3, 0)], [0, 1, 2, 3], True),                  # N edges
], ids=["tree", "one-edge", "cycle-isolated-last", "cycle-isolated-first", "cycle"])
def test_apsp_runs_dijkstra_only_off_trees(monkeypatch, n, edges, dijkstra_sources, connected):
    g = Graph(n, edges)
    sources = []
    real = orcurv.graph._dijkstra_row
    monkeypatch.setattr(orcurv.graph, "_dijkstra_row",
                        lambda adj, n, source, zero: sources.append(source)
                        or real(adj, n, source, zero))
    d = all_pairs_geodesic(g)
    assert sources == dijkstra_sources
    assert all(type(row[i]) is int and row[i] == 0 for i, row in enumerate(d))
    assert all_finite(d) == connected


@pytest.mark.parametrize("text, fmt", [
    ("0 1 1e1000000\n", "edge_list"),
    ("0 1 1e999999999\n", "edge_list"),
    ("0 1 2.5E-999999999\n", "edge_list"),
    ('{"n": 2, "edges": [[0, 1, 1e999999999]]}', "json"),
], ids=["1e1000000", "1e999999999", "negative-exponent", "json"])
def test_huge_decimal_exponent_refused_quickly(text, fmt):
    start = time.perf_counter()
    with pytest.raises(InvalidWeight, match="exponent"):
        load_graph(text, format=fmt)
    assert time.perf_counter() - start < 0.1


def test_decimal_exponent_limit_is_inclusive():
    limit = MAX_DECIMAL_EXPONENT
    g = load_graph(f"0 1 1e{limit}\n1 2 1e-{limit}\n")
    assert g.edges[0][2] == 10 ** limit
    assert g.edges[1][2] == Fraction(1, 10 ** limit)
    with pytest.raises(InvalidWeight):
        load_graph(f"0 1 1e{limit + 1}\n")


def test_parallel_identical():
    # the thread pool is gone: workers=1 is the default route, and more
    # workers are refused rather than silently run on one thread
    rng = random.Random(5)
    for rational in (True, False):
        g = random_connected_graph(30, extra=25, rng=rng, rational=rational)
        assert all_pairs_geodesic(g, workers=1) == all_pairs_geodesic(g)
        with pytest.raises(ValueError, match="workers"):
            all_pairs_geodesic(g, workers=4)


# --- neighborhoods ------------------------------------------------------------

def test_appendix_fixture_shape():
    nb = LocalNeighborhood.from_cost([[1, 3, 3, 2], [2, 3, 3, 3], [3, 2, 2, 3]], 1)
    assert (nb.p, nb.q) == (3, 4)
    assert nb.cost[0] == (1, 3, 3, 2)
    assert nb.dxy == 1


def test_path_neighborhood():
    g = load_graph("0 1\n1 2\n2 3")
    dg = all_pairs_geodesic(g)
    nb = neighborhood(g, dg, 1, 2)
    assert nb.X == (0,)
    assert nb.Y == (3,)
    assert nb.cost == ((3,),)
    assert nb.dxy == 1
    assert nb.x_dists == (1,)
    assert nb.y_dists == (1,)
    # a tree's neighborhood reads the edge weights alone, no rows
    assert neighborhood(g, None, 1, 2) == nb


def test_star_leaf_empty_neighborhood():
    g = load_graph("0 1\n0 2\n0 3")
    dg = all_pairs_geodesic(g)
    with pytest.raises(EmptyNeighborhood):
        neighborhood(g, dg, 0, 1)


def test_not_an_edge():
    g = load_graph("0 1\n1 2")
    dg = all_pairs_geodesic(g)
    with pytest.raises(NotAnEdge):
        neighborhood(g, dg, 0, 2)


def test_neighbor_lists_sorted():
    g = load_graph("3 1\n0 1\n1 5\n5 2\n5 4\n5 6")
    dg = all_pairs_geodesic(g)
    nb = neighborhood(g, dg, 1, 5)
    assert nb.X == (0, 3)
    assert nb.Y == (2, 4, 6)
    assert nb.cost == tuple(tuple(dg[a][b] for b in nb.Y) for a in nb.X)


def test_include_endpoints_extends_lists():
    g = load_graph("0 1\n1 2\n2 3")
    dg = all_pairs_geodesic(g)
    nb = neighborhood(g, dg, 1, 2, include_endpoints=True)
    assert nb.X == (0, 1)
    assert nb.Y == (2, 3)
    # a leaf endpoint still carries its own mass in this mode
    nb_leaf = neighborhood(g, dg, 0, 1, include_endpoints=True)
    assert nb_leaf.X == (0,)
    assert nb_leaf.Y == (1, 2)


def test_dxy_is_geodesic_not_edge_weight():
    g = load_graph("0 1 5\n0 2 1\n2 1 1\n0 3\n1 4")
    dg = all_pairs_geodesic(g)
    nb = neighborhood(g, dg, 0, 1)
    assert nb.dxy == 2  # shortcut through vertex 2 undercuts the direct edge


#: graphs that are not trees, each with an edge (0, 1) whose neighborhood
#: is not empty
NOT_TREES = {
    "triangle": "0 1\n1 2\n0 2\n",
    "4-cycle": "0 1\n1 2\n2 3\n3 0\n",
    # N - 1 edges: a triangle and the isolated vertex 3
    "cycle-isolated": '{"n": 4, "edges": [[0, 1], [1, 2], [0, 2]]}',
}


@pytest.mark.parametrize("name", sorted(NOT_TREES))
def test_neighborhood_without_rows_refuses_a_graph_that_is_not_a_tree(name):
    text = NOT_TREES[name]
    g = load_graph(text, format="json" if text.startswith("{") else "edge_list")
    with pytest.raises(NotATree):
        neighborhood(g, None, 0, 1)
    # with its rows it reads them, and carries no tree distances
    nb = neighborhood(g, all_pairs_geodesic(g), 0, 1)
    assert (nb.dxy, nb.x_dists, nb.y_dists) == (1, None, None)


def test_tree_neighborhood_ignores_the_rows():
    g = load_graph("0 1 2\n1 2 3\n1 3 5\n0 4 7\n")
    rows = tuple(tuple(-1 for _ in range(5)) for _ in range(5))
    assert neighborhood(g, rows, 0, 1) == neighborhood(g, None, 0, 1)
    assert neighborhood(g, None, 0, 1).cost == ((12, 14),)


@pytest.mark.parametrize("x_dists, y_dists", [
    ((1, 2, 3), (1,)),
    ((), (1,)),
    ((1,), (1, 2)),
], ids=["x-long", "x-short", "y-long"])
def test_neighborhood_refuses_center_distances_of_the_wrong_length(x_dists, y_dists):
    with pytest.raises(ParseError, match="x_dists / y_dists"):
        LocalNeighborhood(x=None, y=None, X=(0,), Y=(1,), cost=((1,),), dxy=1,
                          x_dists=x_dists, y_dists=y_dists)


class _ReadLog(tuple):
    """Adjacency rows that log the index of every row read."""

    def __new__(cls, rows, log):
        self = super().__new__(cls, rows)
        self.log = log
        return self

    def __getitem__(self, i):
        self.log.append(i)
        return super().__getitem__(i)


@pytest.fixture()
def traversals(monkeypatch):
    """The graphs that Graph._tree traverses, once per traversal: an
    evaluation counts when it reads the graph's adjacency."""
    real = Graph.__dict__["_tree"].func
    traversed = []

    def spy(g):
        adj = g._adjacency
        log = []
        g.__dict__["_adjacency"] = _ReadLog(adj, log)
        try:
            return real(g)
        finally:
            g.__dict__["_adjacency"] = adj
            if log:
                traversed.append(g)

    prop = cached_property(spy)
    prop.__set_name__(Graph, "_tree")
    monkeypatch.setattr(Graph, "_tree", prop)
    return traversed


@pytest.mark.parametrize("text, count", [
    ("0 1\n1 2\n2 3\n1 4\n", 1),
    ('{"n": 4, "edges": [[0, 1], [1, 2], [0, 2]]}', 1),    # N - 1 edges, not a tree
    ("0 1\n1 2\n2 3\n3 0\n", 0),
    ("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n", 0),
], ids=["tree", "cycle-isolated", "4-cycle", "K4"])
def test_setup_sequence_traverses_once_per_graph(traversals, text, count):
    # load_graph, all_pairs_geodesic, verify_tree: the benchmark's setup
    g = load_graph(text, format="json" if text.startswith("{") else "edge_list")
    all_pairs_geodesic(g, workers=1)
    verify_tree(g)
    assert traversals == [g] * count


def test_tree_compare_traverses_once(traversals, tmp_path, capsys):
    path = tmp_path / "tree.txt"
    path.write_text("0 1\n1 2 3/2\n2 3\n1 4 2\n4 5\n")
    assert main(["compare", "--input", str(path), "--all-edges"]) == 0
    assert len(json.loads(capsys.readouterr().out)["records"]) == 2
    assert len(traversals) == 1


def test_verify_tree():
    assert verify_tree(load_graph("0 1\n1 2"))
    assert not verify_tree(load_graph("0 1\n1 2\n0 2"))
    forest = load_graph(json.dumps({"n": 4, "edges": [[0, 1], [2, 3]]}), format="json")
    assert not verify_tree(forest)
