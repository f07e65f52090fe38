"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import contextlib
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np

import orcurv.qpipeline
import orcurv.transport
from orcurv.blockenc import BlockEncoding, StateVector, dilated_apply
from orcurv.graph import Graph, LocalNeighborhood
from orcurv.qpipeline import DistanceEncoding, _extremes, cost_rows, w1_pq_qsim
from orcurv.transport import CurvatureResult
from reference import ApproxEncoding, chebyshev_power, overlap

SRC = Path(__file__).resolve().parents[1] / "src"

INF = math.inf


def fresh_python(code: str, *argv: str) -> subprocess.CompletedProcess:
    """`python -c code argv...` in a fresh interpreter that imports
    `orcurv` from this checkout's src/; its output is captured as text."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=env, check=False)


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
    """Scalar O(N^3) Floyd-Warshall, the exact APSP oracle for int /
    Fraction weights (lift float weights to Fractions first: a float sum
    rounds in this loop's order, not Dijkstra's)."""
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
    """The dilated_overlap oracle: phi has amplitude amps[k] at index
    support[k] and zero elsewhere; embed it in all b.dim entries and
    dilate the whole vector, as the tree pipeline once did per overlap."""
    raw = np.zeros(b.dim, dtype=np.complex128)
    raw[list(support)] = amps
    phi = StateVector(raw)
    embedded = StateVector(np.concatenate([phi.amps, np.zeros(b.dim)]))
    return overlap(embedded, dilated_apply(b, phi), shots=shots, seed=seed)


class ScaledDistanceEncoding(DistanceEncoding):
    """A distance encoding that encodes every distance times `scale`."""

    scale: float

    def __init__(self, subnorm: float, ancilla_dim: int, scale: float) -> None:
        super().__init__(subnorm, ancilla_dim)
        self._freeze(scale=scale)

    def entries(self, d) -> BlockEncoding:
        return super().entries(np.array(d, dtype=np.float64) * self.scale)


def corrupt_encoding(monkeypatch, module, scale: float) -> None:
    """Scale the distances every distance encoding `module` builds encodes,
    keeping its subnorm.

    Fault injection for the recovery multiplier: the encoded entries, and
    so every W1 a pipeline recovers through the subnorm, are off by `scale`.
    """
    build = orcurv.qpipeline.build_distance_encoding

    def corrupted(*args, **kwargs):
        be = build(*args, **kwargs)
        return ScaledDistanceEncoding(subnorm=be.subnorm, ancilla_dim=be.ancilla_dim,
                                      scale=scale)

    monkeypatch.setattr(module, "build_distance_encoding", corrupted)


class ChebyshevDistanceEncoding(DistanceEncoding):
    """A distance encoding whose power stage is reference.chebyshev_power:
    entries(d) wraps the fourth powers of d at alpha and runs the
    interpolant on [1/kappa_m, 1], so op holds the polynomial image of
    the distances and err the interpolant's sampled sup error."""

    alpha: float
    kappa_m: float
    err: float

    def __init__(self, subnorm: float, ancilla_dim: int, alpha: float, kappa_m: float,
                 err: float) -> None:
        super().__init__(subnorm, ancilla_dim)
        self._freeze(alpha=alpha, kappa_m=kappa_m, err=err)

    def entries(self, d) -> ApproxEncoding:
        fourth = BlockEncoding(op=np.array(d, dtype=np.float64) ** 4, subnorm=self.alpha)
        return chebyshev_power(fourth, 0.25, self.kappa_m)


def chebyshev_distance_encoding(dg, margin: float = 0.05) -> ChebyshevDistanceEncoding:
    """The distance encoding with its power stage run as the Chebyshev
    interpolant at the default degree: the same fourth powers at the same
    alpha and kappa_m as build_distance_encoding, so err > 0 and the
    entries are the polynomial image of the distances."""
    min_d, max_d = _extremes(dg)
    alpha = ((1.0 + margin) * max_d) ** 4
    kappa_m = alpha / min_d ** 4
    ends = chebyshev_power(BlockEncoding(op=np.array([min_d, max_d]) ** 4, subnorm=alpha),
                           0.25, kappa_m)
    return ChebyshevDistanceEncoding(subnorm=ends.subnorm, ancilla_dim=ends.ancilla_dim,
                                     alpha=alpha, kappa_m=kappa_m, err=ends.err)


def pq_qsim_from_cost(cost, dxy, **settings) -> CurvatureResult:
    """The p = q pipeline on a bare cost matrix, composed as `orc` runs a
    cost-matrix fixture: cost_rows, then build_distance_encoding at its
    default margin, then w1_pq_qsim with `settings` (seed, eps, dim_cap).

    The encoding is built through the module attribute, so corrupt_encoding
    on `orcurv.qpipeline` reaches it.
    """
    nb = LocalNeighborhood.from_cost(cost, dxy)
    be = orcurv.qpipeline.build_distance_encoding(cost_rows(nb.cost))
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


@contextlib.contextmanager
def transport_flows():
    """Record the flow of every transport-core call made inside the block."""
    flows = []
    solve = orcurv.transport._transport

    def recorded(c, p, q):
        out = solve(c, p, q)
        flows.append(out[0])
        return out

    with mock.patch.object(orcurv.transport, "_transport", recorded):
        yield flows


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
