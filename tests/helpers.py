"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import dataclasses
import math
import random
from fractions import Fraction

import numpy as np

import orcurv.qpipeline
from orcurv.blockenc import StateVector, dilated_apply
from orcurv.graph import Graph, LocalNeighborhood
from orcurv.qpipeline import cost_grid, w1_pq_qsim
from orcurv.transport import CurvatureResult
from reference import overlap

INF = math.inf


def random_tree(n: int, rng: random.Random, max_weight: int = 1) -> Graph:
    """Uniform-attachment random tree; integer weights in [1, max_weight]."""
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        w = 1 if max_weight == 1 else rng.randint(1, max_weight)
        edges.append((u, v, w))
    return Graph(n, edges)


def random_connected_graph(n: int, extra: int, rng: random.Random,
                           max_weight: int = 9, rational: bool = True) -> Graph:
    """Random tree plus `extra` additional edges; optionally float weights."""
    def weight():
        w = rng.randint(1, max_weight)
        return w if rational else float(w) + rng.random()

    edges = {}
    for v in range(1, n):
        edges[(rng.randrange(v), v)] = weight()
    attempts = 0
    while len(edges) < n - 1 + extra and attempts < 20 * extra + 50:
        attempts += 1
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key not in edges:
            edges[key] = weight()
    return Graph(n, [(u, v, w) for (u, v), w in sorted(edges.items())])


def internal_edges(g: Graph) -> list[tuple[int, int]]:
    degree = [len(g.neighbors(v)) for v in range(g.vertex_count)]
    return [(u, v) for u, v, _ in g.edges if degree[u] > 1 and degree[v] > 1]


def bellman_ford_row(g: Graph, source: int) -> list:
    """Naive O(VE) single-source distances, the APSP oracle."""
    dist = [INF] * g.vertex_count
    dist[source] = 0
    for _ in range(g.vertex_count - 1):
        changed = False
        for u, v, w in g.edges:
            if dist[u] != INF and dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
            if dist[v] != INF and dist[v] + w < dist[u]:
                dist[u] = dist[v] + w
                changed = True
        if not changed:
            break
    return dist


def floyd_warshall_rows(g: Graph) -> list[tuple]:
    """Scalar O(N^3) Floyd-Warshall in the weights' own arithmetic, the
    oracle of the numpy kernel: exact for int / Fraction weights, and for
    float weights the value every entry of that kernel must equal bit for
    bit."""
    adj = g._adjacency
    n = g.vertex_count
    d: list[list] = [[INF] * n for _ in range(n)]
    for i in range(n):
        d[i][i] = 0
    for u in range(n):
        for v, w in adj[u]:
            if w < d[u][v]:
                d[u][v] = w
    for k in range(n):
        # INF + anything is never shorter, and an exact weight beyond float
        # range cannot be added to the float INF at all: skip row k's INF
        # entries once per k, not once per (i, j)
        finite_k = [(j, dkj) for j, dkj in enumerate(d[k]) if dkj != INF]
        for i in range(n):
            dik = d[i][k]
            if dik == INF:
                continue
            di = d[i]
            for j, dkj in finite_k:
                alt = dik + dkj
                if alt < di[j]:
                    di[j] = alt
    return [tuple(row) for row in d]


def full_route_overlap(b, support, amps, shots=None, seed=None) -> float:
    """The dilated_overlap oracle: embed phi in all b.dim entries and
    dilate the whole vector, as the tree pipeline once did per overlap."""
    raw = np.zeros(b.dim, dtype=np.complex128)
    raw[list(support)] = amps
    phi = StateVector(raw)
    embedded = StateVector(np.concatenate([phi.amps, np.zeros(b.dim)]))
    return overlap(embedded, dilated_apply(b, phi), shots=shots, seed=seed)


def corrupt_encoding(monkeypatch, module, scale: float) -> None:
    """Scale the op of every distance encoding `module` builds, keeping its
    subnorm.

    Fault injection for the recovery multiplier: the encoded entries, and
    so every W1 a pipeline recovers through the subnorm, are off by `scale`.
    """
    build = orcurv.qpipeline.build_distance_encoding

    def corrupted(*args, **kwargs):
        be = build(*args, **kwargs)
        return dataclasses.replace(be, op=be.op * scale)

    monkeypatch.setattr(module, "build_distance_encoding", corrupted)


def pq_qsim_from_cost(cost, dxy, **settings) -> CurvatureResult:
    """The p = q pipeline on a bare cost matrix, composed as `orc` runs a
    cost-matrix fixture: cost_grid, then build_distance_encoding at its
    default margin, then w1_pq_qsim with `settings` (seed, eps, dim_cap).

    The encoding is built through the module attribute, so corrupt_encoding
    on `orcurv.qpipeline` reaches it.
    """
    nb = LocalNeighborhood.from_cost(cost, dxy)
    be = orcurv.qpipeline.build_distance_encoding(cost_grid(nb.cost))
    return w1_pq_qsim(nb, be, **settings)


def nwc_plan_cost(cost) -> Fraction:
    """Cost of the greedy north-west-corner feasible plan."""
    p, q = len(cost), len(cost[0])
    supply = [Fraction(1, p)] * p
    demand = [Fraction(1, q)] * q
    total = Fraction(0)
    i = j = 0
    while i < p and j < q:
        m = min(supply[i], demand[j])
        total += m * Fraction(cost[i][j])
        supply[i] -= m
        demand[j] -= m
        if supply[i] == 0 and i < p:
            i += 1
        elif demand[j] == 0:
            j += 1
    return total


def random_cost_matrix(p: int, q: int, rng: random.Random,
                       max_value: int = 10, denominators=(1,)) -> list[list]:
    return [[Fraction(rng.randint(1, max_value), rng.choice(denominators))
             for _ in range(q)] for _ in range(p)]


def random_neighborhood(p: int, q: int, rng: random.Random,
                        max_value: int = 10, denominators=(1,)) -> LocalNeighborhood:
    cost = random_cost_matrix(p, q, rng, max_value, denominators)
    return LocalNeighborhood.from_cost(cost, Fraction(rng.randint(1, 5)))


def to_float_nb(nb: LocalNeighborhood) -> LocalNeighborhood:
    return LocalNeighborhood(
        x=nb.x, y=nb.y, X=nb.X, Y=nb.Y,
        cost=tuple(tuple(float(v) for v in row) for row in nb.cost),
        dxy=float(nb.dxy),
        x_dists=None if nb.x_dists is None else tuple(float(v) for v in nb.x_dists),
        y_dists=None if nb.y_dists is None else tuple(float(v) for v in nb.y_dists),
    )


def scale_nb(nb: LocalNeighborhood, lam) -> LocalNeighborhood:
    return LocalNeighborhood(
        x=nb.x, y=nb.y, X=nb.X, Y=nb.Y,
        cost=tuple(tuple(v * lam for v in row) for row in nb.cost),
        dxy=nb.dxy * lam,
        x_dists=None if nb.x_dists is None else tuple(v * lam for v in nb.x_dists),
        y_dists=None if nb.y_dists is None else tuple(v * lam for v in nb.y_dists),
    )
