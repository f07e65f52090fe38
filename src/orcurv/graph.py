"""Weighted undirected graphs and exact all-pairs geodesic distances.

Two numeric modes are supported. In rational mode (the default) weights
are kept as int / Fraction and every distance is exact, which makes the
golden tests equality-based. In float mode everything, the zero
diagonal included, is a 64-bit float. The distances are plain rows in
that one number type. Disconnected pairs are encoded as a float +inf in
either mode; downstream transport code refuses to consume infinite
costs.

Shortest paths use per-source Dijkstra with a binary heap, one source
after another; dense float graphs run a numpy Floyd-Warshall instead.
That route is the only one here that imports numpy, and it does so when
it runs: reading a graph and every other route need only the standard
library.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence, Union

from .errors import (
    DuplicateEdge,
    EmptyNeighborhood,
    InvalidWeight,
    NotAnEdge,
    ParseError,
    SelfLoop,
)

Weight = Union[int, Fraction, float]

INF = math.inf

#: float graphs with N <= 512 and at least this density run Floyd-Warshall
_DENSE_THRESHOLD = 0.5

#: largest decimal exponent magnitude a rational weight may carry. It is
#: three times float range, yet Fraction("1e1000") expands in microseconds,
#: where an unbounded exponent (1e999999999) would stall on a 10^9-digit int.
MAX_DECIMAL_EXPONENT = 1000


def _is_rational(value: Weight) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def _check_weight(w: Weight) -> Weight:
    if isinstance(w, bool) or not isinstance(w, (int, Fraction, float)):
        raise InvalidWeight(f"weight {w!r} is not a number")
    if isinstance(w, float) and not math.isfinite(w):
        raise InvalidWeight(f"weight {w!r} is not finite")
    if w <= 0:
        raise InvalidWeight(f"weight {w!r} must be > 0")
    return w


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph on vertex indices [0, vertex_count).

    Edges are normalized to u < v, stored once, and validated on
    construction: no self-loops, no duplicates, strictly positive finite
    weights.
    """

    vertex_count: int
    edges: tuple[tuple[int, int, Weight], ...]

    def __init__(self, vertex_count: int, edges: Iterable[Sequence]) -> None:
        if not isinstance(vertex_count, int) or vertex_count < 1:
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
            if not isinstance(u, int) or not isinstance(v, int):
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
            normalized.append((u, v, _check_weight(w)))
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", tuple(normalized))
        object.__setattr__(self, "_edge_set", frozenset(seen))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def rational(self) -> bool:
        """True when every weight is exact (int or Fraction)."""
        return all(_is_rational(w) for _, _, w in self.edges)

    @cached_property
    def _adjacency(self) -> tuple[tuple[tuple[int, Weight], ...], ...]:
        adj: list[list[tuple[int, Weight]]] = [[] for _ in range(self.vertex_count)]
        for u, v, w in self.edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        return tuple(tuple(sorted(a)) for a in adj)

    def neighbors(self, u: int) -> tuple[int, ...]:
        return tuple(v for v, _ in self._adjacency[u])

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self._edge_set


@dataclass(frozen=True)
class LocalNeighborhood:
    """Local context of an edge (x, y): neighbor lists and the cost block.

    X holds the neighbors of x excluding y, Y the neighbors of y excluding
    x, both sorted ascending. cost[i][j] is the geodesic distance from
    X[i] to Y[j] and dxy the geodesic distance between the endpoints.
    x_dists / y_dists carry the center-to-neighbor geodesics needed by the
    tree closed form; they are None for instances built from a bare cost
    matrix. x and y are None for such synthetic instances as well.
    """

    x: int | None
    y: int | None
    X: tuple[int, ...]
    Y: tuple[int, ...]
    cost: tuple[tuple[Weight, ...], ...]
    dxy: Weight
    x_dists: tuple[Weight, ...] | None = None
    y_dists: tuple[Weight, ...] | None = None

    def __post_init__(self) -> None:
        if self.p < 1 or self.q < 1:
            raise EmptyNeighborhood("p and q must both be at least 1")
        if len(self.cost) != self.p or any(len(row) != self.q for row in self.cost):
            raise ParseError("cost matrix shape does not match |X| x |Y|")
        if not self.dxy > 0:
            raise InvalidWeight(f"dxy must be > 0, got {self.dxy!r}")

    @property
    def p(self) -> int:
        return len(self.X)

    @property
    def q(self) -> int:
        return len(self.Y)

    @classmethod
    def from_cost(cls, cost: Sequence[Sequence[Weight]], dxy: Weight) -> "LocalNeighborhood":
        """Synthetic neighborhood for cost-matrix fixtures (no graph)."""
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


def _parse_weight_token(tok: str, numeric: str) -> Weight:
    try:
        if numeric == "float":
            w = float(tok)
        else:
            try:
                w = int(tok)
            except ValueError:
                w = parse_fraction(tok)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidWeight(f"cannot parse weight {tok!r}") from exc
    return w


def _float_weight(w):
    """float(w) for a number; anything else is left for _check_weight to refuse."""
    if isinstance(w, bool) or not isinstance(w, (int, Fraction, float)):
        return w
    try:
        return float(w)
    except OverflowError as exc:
        raise InvalidWeight(f"weight {w!r} does not fit a float") from exc


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


def _load_json(text: str, numeric: str) -> Graph:
    parse_float = float if numeric == "float" else parse_fraction
    try:
        obj = json.loads(text, parse_float=parse_float)
    except ValueError as exc:    # JSONDecodeError, or an over-long integer
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ParseError('JSON graph must be {"n": N, "edges": [...]}')
    n = obj["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise ParseError(f'"n" must be an integer, got {n!r}')
    if not isinstance(obj["edges"], list):
        raise ParseError(f'"edges" must be a list, got {type(obj["edges"]).__name__}')
    edges = []
    for e in obj["edges"]:
        if not isinstance(e, (list, tuple)) or len(e) not in (2, 3):
            raise ParseError(f"edge {e!r} must be [u, v] or [u, v, w]")
        u, v = e[0], e[1]
        if len(e) == 3:
            w = _float_weight(e[2]) if numeric == "float" else e[2]
        else:
            w = 1.0 if numeric == "float" else 1
        edges.append((u, v, w))
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


def _floyd_warshall_float(g: Graph) -> list[tuple[float, ...]]:
    """Float64 Floyd-Warshall, bit-identical to the scalar triple loop.

    Row k and column k do not change during step k when weights are
    nonnegative, so one vectorized minimum per k takes the values the
    scalar loop takes (the tests keep that loop as the oracle).
    """
    import numpy as np    # the one route here that runs numpy

    n = g.vertex_count
    d = np.full((n, n), INF)
    for u, v, w in g.edges:
        d[u, v] = d[v, u] = w
    np.fill_diagonal(d, 0.0)
    for k in range(n):
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    return [tuple(row) for row in d.tolist()]


def all_pairs_geodesic(g: Graph, workers: int | None = None) -> tuple[tuple[Weight, ...], ...]:
    """Exact shortest-path distances, one row per source vertex.

    The rows hold the graph's one number type: int / Fraction for a
    rational graph (its diagonal is the int 0), float for any other (its
    diagonal is 0.0); a disconnected pair is a float +inf either way.
    Dense graphs with a float weight (N <= 512, density >=
    _DENSE_THRESHOLD) run a numpy float64 Floyd-Warshall; every other
    graph runs per-source Dijkstra. workers may only be None or 1: every
    route runs on one thread.
    """
    if workers not in (None, 1):
        raise ValueError(f"workers must be None or 1, got {workers!r}")
    n = g.vertex_count
    density = 2 * g.edge_count / (n * (n - 1)) if n > 1 else 0.0
    adj = g._adjacency
    rational = g.rational
    if n <= 512 and density >= _DENSE_THRESHOLD and not rational:
        rows = _floyd_warshall_float(g)
    else:
        zero = 0 if rational else 0.0
        rows = [_dijkstra_row(adj, n, s, zero) for s in range(n)]
    return tuple(rows)


def neighborhood(g: Graph, dg: Sequence[Sequence[Weight]], x: int, y: int,
                 include_endpoints: bool = False) -> LocalNeighborhood:
    """Local (x, y) edge context with the geodesic cost block.

    dg holds the rows all_pairs_geodesic(g) returns; the cost block,
    dxy and the center-to-neighbor distances are read from them as they
    are, so they keep the graph's number type.

    With include_endpoints=True, x is appended to its own neighbor list
    and y to its own (the inclusive-measure variant); masses stay uniform
    over the extended lists.
    """
    if not g.has_edge(x, y):
        raise NotAnEdge(f"({x}, {y}) is not an edge")
    X = sorted(v for v in g.neighbors(x) if v != y)
    Y = sorted(v for v in g.neighbors(y) if v != x)
    if include_endpoints:
        X = sorted(X + [x])
        Y = sorted(Y + [y])
    if not X or not Y:
        raise EmptyNeighborhood(f"p={len(X)}, q={len(Y)}: an endpoint has no other neighbor")
    cost = tuple(tuple(dg[a][b] for b in Y) for a in X)
    return LocalNeighborhood(
        x=x,
        y=y,
        X=tuple(X),
        Y=tuple(Y),
        cost=cost,
        dxy=dg[x][y],
        x_dists=tuple(dg[x][a] for a in X),
        y_dists=tuple(dg[y][b] for b in Y),
    )


def verify_tree(g: Graph) -> bool:
    """True iff g is connected and has exactly N - 1 edges."""
    n = g.vertex_count
    if g.edge_count != n - 1:
        return False
    seen = [False] * n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        u = stack.pop()
        for v, _ in g._adjacency[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                stack.append(v)
    return count == n
