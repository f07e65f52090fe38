"""Weighted undirected graphs, every input format, and exact all-pairs
geodesic distances.

load_graph reads edge lists and JSON graphs, load_cost_matrix cost-matrix
fixtures; every number of every format passes one rule, `_number`.

Two numeric modes are supported. In rational mode (the default) weights
are kept as int / Fraction and every distance is exact, which makes the
golden tests equality-based. In float mode everything, the zero
diagonal included, is a 64-bit float. The distances are plain rows in
that one number type. Disconnected pairs are encoded as a float +inf in
either mode; downstream transport code refuses to consume infinite
costs.

A graph is found to be a tree once, by the one traversal it caches,
`Graph._tree`. A tree's rows are summed outward from each source along
it; every other graph's, exact or float, sparse or dense, are per-source
Dijkstra with a binary heap. A tree's neighborhoods read no rows: every
distance one reads lies on a path of at most three edges, and
`neighborhood` sums it from the edge weights. The module needs only
the standard library, and neither `dataclasses` nor `inspect`: every
orcurv record type, this module's and the others', shares the private
base `_Frozen`.

`all_pairs_geodesic(g, workers=k)` computes the rows in k processes on
a system with os.fork: `spread.spread` forks k - 1 children, each runs
the same row code over a contiguous share of the sources and pickles
its rows back through a pipe, so the rows are the serial ones in value,
type and bits.
"""

from __future__ import annotations

import heapq
import json
import math
from fractions import Fraction
from functools import cached_property, partial
from typing import Iterable, Sequence, Union

from .errors import (
    DuplicateEdge,
    EmptyNeighborhood,
    InvalidWeight,
    NotAnEdge,
    NotATree,
    ParseError,
    SelfLoop,
)

Weight = Union[int, Fraction, float]

INF = math.inf

#: largest decimal exponent magnitude a rational weight may carry. It is
#: three times float range, yet Fraction("1e1000") expands in microseconds,
#: where an unbounded exponent (1e999999999) would stall on a 10^9-digit int.
MAX_DECIMAL_EXPONENT = 1000


def _is_rational(value: Weight) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def _is_index(v) -> bool:
    """A vertex index or count is an int, and a bool is not one."""
    return isinstance(v, int) and not isinstance(v, bool)


def _number(v, numeric: str = "rational", what: str = "weight") -> Weight:
    """v as a number of the numeric mode, the one number rule of every
    input: not a bool, finite, and float(v) in float mode (in rational
    mode v is kept as given). InvalidWeight otherwise, naming v as `what`."""
    if isinstance(v, bool) or not isinstance(v, (int, Fraction, float)):
        raise InvalidWeight(f"{what} {v!r} is not a number")
    if numeric == "float":
        try:
            v = float(v)
        except OverflowError as exc:
            raise InvalidWeight(f"{what} too large for float mode: a number of "
                                f"{len(str(v))} digits does not fit a float") from exc
    if isinstance(v, float) and not math.isfinite(v):
        raise InvalidWeight(f"{what} {v!r} is not finite")
    return v


class _Frozen:
    """A record of the fields its class annotates: equal to a record of
    the same type with equal fields, hashed and shown by those fields, and
    refusing assignment with an AttributeError. A subclass's __init__
    checks its arguments and stores the fields by name with `_freeze`;
    its cached properties write the instance __dict__, as they may."""

    _fields = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        cls._fields += tuple(name for name in own if name not in cls._fields)

    def _freeze(self, **fields) -> None:
        self.__dict__.update(fields)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Graph(_Frozen):
    """Undirected weighted graph on vertex indices [0, vertex_count).

    Edges are normalized to u < v, stored once, and validated on
    construction: no self-loops, no duplicates, strictly positive finite
    weights.
    """

    vertex_count: int
    edges: tuple[tuple[int, int, Weight], ...]

    def __init__(self, vertex_count: int, edges: Iterable[Sequence]) -> None:
        if not _is_index(vertex_count) or vertex_count < 1:
            raise ParseError(f"vertex_count must be a positive integer, got {vertex_count!r}")
        normalized: list[tuple[int, int, Weight]] = []
        seen: set[tuple[int, int]] = set()
        for e in edges:
            if len(e) == 2:
                u, v = e
                w: Weight = 1
            elif len(e) == 3:
                u, v, w = e
            else:
                raise ParseError(f"edge {e!r} must be (u, v) or (u, v, w)")
            if not (_is_index(u) and _is_index(v)):
                raise ParseError(f"vertex indices must be integers, got {e!r}")
            if u == v:
                raise SelfLoop(f"self-loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ParseError(f"edge {e!r} out of range for N={vertex_count}")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise DuplicateEdge(f"edge ({u}, {v}) appears more than once")
            seen.add((u, v))
            w = _number(w)
            if w <= 0:
                raise InvalidWeight(f"weight {w!r} must be > 0")
            normalized.append((u, v, w))
        self._freeze(vertex_count=vertex_count, edges=tuple(normalized))
        self.__dict__["_edge_set"] = frozenset(seen)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def rational(self) -> bool:
        """True when every weight is exact (int or Fraction)."""
        return all(_is_rational(w) for _, _, w in self.edges)

    @cached_property
    def _zero(self) -> Weight:
        """The distance from a vertex to itself: the int 0 in a rational
        graph, 0.0 in any other."""
        return 0 if self.rational else 0.0

    @cached_property
    def _adjacency(self) -> tuple[tuple[tuple[int, Weight], ...], ...]:
        adj: list[list[tuple[int, Weight]]] = [[] for _ in range(self.vertex_count)]
        for u, v, w in self.edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def _tree(self) -> tuple[tuple[int, int, Weight], ...] | None:
        """A tree's traversal from vertex 0: each other vertex after its
        parent, as (vertex, parent, weight between them). None off a tree:
        with other than N - 1 edges (not traversed) or a vertex not reached."""
        n = self.vertex_count
        if self.edge_count != n - 1:
            return None
        adj = self._adjacency
        seen = [False] * n
        seen[0] = True
        steps = []
        stack = [0]
        while stack:
            u = stack.pop()
            for v, w in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    steps.append((v, u, w))
                    stack.append(v)
        return tuple(steps) if len(steps) == n - 1 else None

    def neighbors(self, u: int) -> tuple[int, ...]:
        return tuple(v for v, _ in self._adjacency[u])

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self._edge_set


class LocalNeighborhood(_Frozen):
    """Local context of an edge (x, y): neighbor lists and the cost block.

    X holds the neighbors of x excluding y, Y the neighbors of y excluding
    x, both sorted ascending. cost[i][j] is the geodesic distance from
    X[i] to Y[j] and dxy the geodesic distance between the endpoints.
    x_dists / y_dists, of lengths p and q, carry the center-to-neighbor
    geodesics that the tree routes read; `neighborhood` sets them only on
    a tree, and they are None on any other graph and for instances built
    from a bare cost matrix. x and y are None for such synthetic
    instances.
    """

    x: int | None
    y: int | None
    X: tuple[int, ...]
    Y: tuple[int, ...]
    cost: tuple[tuple[Weight, ...], ...]
    dxy: Weight
    x_dists: tuple[Weight, ...] | None
    y_dists: tuple[Weight, ...] | None

    def __init__(self, x: int | None, y: int | None, X: tuple[int, ...],
                 Y: tuple[int, ...], cost: tuple[tuple[Weight, ...], ...], dxy: Weight,
                 x_dists: tuple[Weight, ...] | None = None,
                 y_dists: tuple[Weight, ...] | None = None) -> None:
        p, q = len(X), len(Y)
        if p < 1 or q < 1:
            raise EmptyNeighborhood("p and q must both be at least 1")
        if len(cost) != p or any(len(row) != q for row in cost):
            raise ParseError("cost matrix shape does not match |X| x |Y|")
        if (x_dists is not None and len(x_dists) != p
                or y_dists is not None and len(y_dists) != q):
            raise ParseError("x_dists / y_dists lengths do not match |X| / |Y|")
        if not dxy > 0:
            raise InvalidWeight(f"dxy must be > 0, got {dxy!r}")
        self._freeze(x=x, y=y, X=X, Y=Y, cost=cost, dxy=dxy, x_dists=x_dists,
                     y_dists=y_dists)

    @property
    def p(self) -> int:
        return len(self.X)

    @property
    def q(self) -> int:
        return len(self.Y)

    @classmethod
    def from_cost(cls, cost: Sequence[Sequence[Weight]], dxy: Weight) -> "LocalNeighborhood":
        """Synthetic neighborhood for cost-matrix fixtures (no graph). It checks
        only the shape and dxy > 0; load_cost_matrix checks the numbers."""
        p = len(cost)
        q = len(cost[0]) if p else 0
        return cls(
            x=None,
            y=None,
            X=tuple(range(p)),
            Y=tuple(range(p, p + q)),
            cost=tuple(tuple(row) for row in cost),
            dxy=dxy,
        )


# --------------------------------------------------------------------------
# ingestion
# --------------------------------------------------------------------------

def parse_fraction(text: str) -> Fraction:
    """Fraction(text), refusing a decimal exponent beyond MAX_DECIMAL_EXPONENT.

    The exponent is read before the number is expanded, so a refusal
    costs no more than reading the text. Raises InvalidWeight for a large
    exponent and ValueError (or ZeroDivisionError) for text that is not a
    number.
    """
    _, marker, exponent = text.lower().partition("e")
    if marker:
        try:
            magnitude = abs(int(exponent))
        except ValueError:
            magnitude = 0    # not an exponent: Fraction refuses the text below
        if magnitude > MAX_DECIMAL_EXPONENT:
            raise InvalidWeight(f"exponent of {text[:40]!r} is beyond "
                                f"+-{MAX_DECIMAL_EXPONENT}")
    return Fraction(text)


def _parse_float(text: str, what: str = "number") -> float:
    """float(text), refusing with InvalidWeight, as `what`, a text whose
    nonzero digits read as a float zero: 1e-400 underflows to 0.0, a value
    the text does not hold. ValueError for text that is not a number."""
    v = float(text)
    if v == 0 and any(c in "123456789" for c in text.lower().partition("e")[0]):
        raise InvalidWeight(f"{what} {text!r} underflows to {v!r} in float mode")
    return v


def _parse_weight_token(tok: str, numeric: str) -> Weight:
    try:
        if numeric == "float":
            w = _parse_float(tok, "weight")
        else:
            try:
                w = int(tok)
            except ValueError:
                w = parse_fraction(tok)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidWeight(f"cannot parse weight {tok!r}") from exc
    return w


def load_graph(text: str, format: str = "edge_list",
               numeric: str = "rational") -> Graph:
    """Parse a graph from edge-list or JSON text.

    Edge list: one "u v [w]" per line, '#' comments, weights default to 1.
    JSON: {"n": N, "edges": [[u, v, w], ...]} with w optional per edge.
    numeric is "rational" (exact int / Fraction weights) or "float". In
    rational mode a decimal exponent beyond MAX_DECIMAL_EXPONENT is
    refused with InvalidWeight.
    """
    if numeric not in ("rational", "float"):
        raise ParseError(f"unknown numeric mode {numeric!r}")
    if format == "edge_list":
        return _load_edge_list(text, numeric)
    if format == "json":
        return _load_json(text, numeric)
    raise ParseError(f"unknown graph format {format!r}")


def _load_edge_list(text: str, numeric: str) -> Graph:
    edges: list[tuple[int, int, Weight]] = []
    max_vertex = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ParseError(f"line {lineno}: expected 'u v [w]', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad vertex index in {raw!r}") from exc
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: negative vertex index in {raw!r}")
        if len(parts) == 3:
            w = _parse_weight_token(parts[2], numeric)
        else:
            w = 1.0 if numeric == "float" else 1
        edges.append((u, v, w))
        max_vertex = max(max_vertex, u, v)
    if max_vertex < 0:
        raise ParseError("edge list contains no edges")
    return Graph(max_vertex + 1, edges)


def load_cost_matrix(text: str, numeric: str = "rational") -> LocalNeighborhood:
    """The one neighborhood of a cost-matrix fixture, {"cost": [[...]], "dxy": r}.

    Decoded as a JSON graph is, in the numeric mode of load_graph; each
    entry and dxy passes the number rule of a graph weight, entries must
    be >= 0 and dxy > 0. ParseError or InvalidWeight for a malformed one.
    """
    if numeric not in ("rational", "float"):
        raise ParseError(f"unknown numeric mode {numeric!r}")
    obj = _decode(text, numeric)
    if not isinstance(obj, dict) or "cost" not in obj or "dxy" not in obj:
        raise ParseError('cost-matrix input must be {"cost": [[...]], "dxy": r}')
    cost = obj["cost"]
    if not isinstance(cost, list) or not all(isinstance(row, list) for row in cost):
        raise ParseError(f'"cost" must be a list of rows, got {type(cost).__name__}')
    rows = [[_number(v, numeric, "cost-matrix entry") for v in row] for row in cost]
    for v in (v for row in rows for v in row):
        if v < 0:
            raise InvalidWeight(f"cost-matrix entry {v!r} is negative")
    return LocalNeighborhood.from_cost(rows, _number(obj["dxy"], numeric, '"dxy"'))


def _decode(text: str, numeric: str):
    """JSON text with its decimals read in the numeric mode."""
    try:
        return json.loads(text, parse_float=_parse_float if numeric == "float" else parse_fraction)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an over-long integer, or nesting past the recursion limit
        raise ParseError(f"invalid JSON: {exc}") from exc


def _load_json(text: str, numeric: str) -> Graph:
    obj = _decode(text, numeric)
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ParseError('JSON graph must be {"n": N, "edges": [...]}')
    n = obj["n"]
    if not _is_index(n):
        raise ParseError(f'"n" must be an integer, got {n!r}')
    if not isinstance(obj["edges"], list):
        raise ParseError(f'"edges" must be a list, got {type(obj["edges"]).__name__}')
    edges = []
    for e in obj["edges"]:
        if not isinstance(e, (list, tuple)) or len(e) not in (2, 3):
            raise ParseError(f"edge {e!r} must be [u, v] or [u, v, w]")
        # the default weight 1 takes the mode's type by the same rule
        edges.append((e[0], e[1], _number(e[2] if len(e) == 3 else 1, numeric)))
    return Graph(n, edges)


# --------------------------------------------------------------------------
# all-pairs geodesics
# --------------------------------------------------------------------------

def _dijkstra_row(adj, n: int, source: int, zero: Weight) -> tuple[Weight, ...]:
    dist: list[Weight] = [INF] * n
    dist[source] = zero
    heap: list[tuple[Weight, int]] = [(zero, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return tuple(dist)


def _tree_row(steps, up: dict, n: int, s: int, zero: Weight) -> tuple[Weight, ...]:
    """The row of source s of a tree, from its traversal `Graph._tree`
    and `up`, each vertex's (parent, weight) in it.

    The row sets the source's ancestors, walking up to vertex 0, then
    every other vertex in traversal order, each as its parent's distance
    plus the weight between them: the sum Dijkstra forms on the one path.
    """
    dist = [None] * n
    dist[s] = zero
    u = s
    while u:
        p, w = up[u]
        dist[p] = dist[u] + w
        u = p
    for v, p, w in steps:
        if dist[v] is None:
            dist[v] = dist[p] + w
    return tuple(dist)


def all_pairs_geodesic(g: Graph, workers: int | None = None) -> tuple[tuple[Weight, ...], ...]:
    """Exact shortest-path distances, one row per source vertex.

    The rows hold the graph's one number type: int / Fraction for a
    rational graph (its diagonal is the int 0), float for any other (its
    diagonal is 0.0); a disconnected pair is a float +inf either way.
    A tree (N - 1 edges, all reached from vertex 0) sums each row along
    its paths from the source outward, with no heap; every other graph
    runs per-source Dijkstra. Both add the weights of a path in the same
    order, so a float row is the fixed point of float relaxation from its
    source either way. workers (None is 1) is the number of processes
    that compute the rows: with more than one, `spread.spread` forks
    children for contiguous shares of the sources where the process may
    fork, and the rows are the serial ones in value, type and bits.
    Anything but None or an int >= 1 is a ValueError.
    """
    if workers is None:
        workers = 1
    if not _is_index(workers) or workers < 1:
        raise ValueError(f"workers must be None or an integer >= 1, got {workers!r}")
    n, zero = g.vertex_count, g._zero
    if g._tree is not None:
        up = {v: (p, w) for v, p, w in g._tree}
        row = partial(_tree_row, g._tree, up, n, zero=zero)
    else:
        row = partial(_dijkstra_row, g._adjacency, n, zero=zero)
    if workers == 1:
        return tuple(map(row, range(n)))
    from .spread import spread
    return tuple(spread(row, n, workers))


def neighborhood(g: Graph, dg: Sequence[Sequence[Weight]] | None, x: int, y: int,
                 include_endpoints: bool = False) -> LocalNeighborhood:
    """Local (x, y) edge context with the geodesic cost block.

    On a tree (`verify_tree`) dg is not read: each distance lies on the
    one path a-x-y-b and is summed from the edge weights, from a outward
    as the rows sum it, (w(a, x) + w(x, y)) + w(y, b), with w(v, v) the
    graph's zero; only a tree's neighborhood sets x_dists and y_dists.
    Off a tree dg holds the rows all_pairs_geodesic(g) returns (None is
    NotATree) and the cost block and dxy are read from them as they are.

    With include_endpoints=True, x is appended to its own neighbor list
    and y to its own (the inclusive-measure variant); masses stay uniform
    over the extended lists.
    """
    if not g.has_edge(x, y):
        raise NotAnEdge(f"({x}, {y}) is not an edge")
    tree = g._tree is not None
    if not tree and dg is None:
        raise NotATree(f"({x}, {y}): a graph that is not a tree needs its distance rows")
    X = [v for v in g.neighbors(x) if v != y]
    Y = [v for v in g.neighbors(y) if v != x]
    if include_endpoints:
        X = sorted(X + [x])
        Y = sorted(Y + [y])
    if not X or not Y:
        raise EmptyNeighborhood(f"p={len(X)}, q={len(Y)}: an endpoint has no other neighbor")
    if tree:
        wx = dict(g._adjacency[x])
        wy = dict(g._adjacency[y])
        wx[x] = wy[y] = g._zero
        x_dists = tuple(wx[a] for a in X)
        y_dists = tuple(wy[b] for b in Y)
        dxy = wx[y]
        cost = tuple(tuple((wa + dxy) + wy[b] for b in Y) for wa in x_dists)
    else:
        x_dists = y_dists = None
        dxy = dg[x][y]
        cost = tuple(tuple(dg[a][b] for b in Y) for a in X)
    return LocalNeighborhood(
        x=x,
        y=y,
        X=tuple(X),
        Y=tuple(Y),
        cost=cost,
        dxy=dxy,
        x_dists=x_dists,
        y_dists=y_dists,
    )


def verify_tree(g: Graph) -> bool:
    """True iff g is connected and has exactly N - 1 edges."""
    return g._tree is not None
