"""Reference implementations that only the tests call.

Independent oracles and composition rules that the program itself never
runs: the transportation-polytope vertex enumeration (oracle of w1_lp),
the Kronecker and uniform-LCU block-encoding rules (oracle of
qpipeline.build_DP), the density-matrix encoding (the purified
projector route in full_route.py) and a finiteness check on geodesics.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from orcurv.blockenc import BlockEncoding, StateVector
from orcurv.errors import DimMismatch, OrcError, TooLarge
from orcurv.graph import INF, GeodesicMatrix, LocalNeighborhood, Weight
from orcurv.transport import _emit, _lift_block

_VERTEX_ORACLE_CAP = 9


class DigitOutOfRange(OrcError):
    """A base-p digit lies outside [1, p]."""


class BadFactorization(OrcError):
    """Declared tensor factor dimensions do not match the state."""


def all_finite(dg: GeodesicMatrix) -> bool:
    """True when every pair of vertices is connected."""
    return all(x != INF for row in dg.d for x in row)


# --------------------------------------------------------------------------
# transportation-polytope vertex oracle
# --------------------------------------------------------------------------

class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def _tree_flows(edges: tuple[tuple[int, int], ...], p: int, q: int) -> list[tuple[int, int, int]] | None:
    """Integer basic solution on one spanning tree of K_{p,q}.

    Supplies are q per left node and demands p per right node (the LP
    scaled by p*q). Returns None when any flow would go negative.
    """
    n = p + q
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid, (i, j) in enumerate(edges):
        adj[i].append((p + j, eid))
        adj[p + j].append((i, eid))
    balance = [q] * p + [-p] * q
    degree = [len(a) for a in adj]
    removed = [False] * len(edges)
    flows = [0] * len(edges)
    leaves = [v for v in range(n) if degree[v] == 1]
    for _ in range(len(edges)):
        v = leaves.pop()
        u, eid = next((u, e) for u, e in adj[v] if not removed[e])
        f = balance[v] if v < p else -balance[v]
        if f < 0:
            return None
        flows[eid] = f
        balance[u] += balance[v]
        balance[v] = 0
        removed[eid] = True
        degree[u] -= 1
        degree[v] -= 1
        if degree[u] == 1:
            leaves.append(u)
    return [(edges[eid][0], edges[eid][1], flows[eid])
            for eid in range(len(edges)) if flows[eid] > 0]


@lru_cache(maxsize=None)
def _basic_solutions(p: int, q: int) -> tuple[tuple[tuple[tuple[int, int, int], ...], ...], int]:
    """All feasible basic solutions of the (p, q) transportation polytope.

    Enumerates every spanning tree of K_{p,q} (edge subsets of size
    p + q - 1 checked with union-find), solves the unique tree flows, and
    keeps the feasible ones, deduplicated. Also returns the spanning-tree
    count, which must equal p^(q-1) * q^(p-1).
    """
    all_edges = [(i, j) for i in range(p) for j in range(q)]
    solutions: set[tuple[tuple[int, int, int], ...]] = set()
    tree_count = 0
    for subset in itertools.combinations(all_edges, p + q - 1):
        uf = _UnionFind(p + q)
        if all(uf.union(i, p + j) for i, j in subset):
            tree_count += 1
            flows = _tree_flows(subset, p, q)
            if flows is not None:
                solutions.add(tuple(sorted(flows)))
    return tuple(sorted(solutions)), tree_count


def spanning_tree_count(p: int, q: int) -> int:
    """Number of spanning trees of K_{p,q} seen by the oracle enumerator."""
    return _basic_solutions(p, q)[1]


def lp_vertex_oracle(nb: LocalNeighborhood) -> Weight:
    """Minimum LP cost over all vertices of the transportation polytope.

    Independent of w1_lp: candidates come from exhaustive spanning-tree
    enumeration, not from any optimization. Guarded at p + q <= 9.
    """
    p, q = nb.p, nb.q
    if p + q > _VERTEX_ORACLE_CAP:
        raise TooLarge(f"vertex oracle capped at p + q <= {_VERTEX_ORACLE_CAP}")
    int_cost, den, _ = _lift_block(nb.cost)
    solutions, _ = _basic_solutions(p, q)
    best = min(sum(f * int_cost[i][j] for i, j, f in sol) for sol in solutions)
    return _emit(Fraction(best, den * p * q), nb.rational)


# --------------------------------------------------------------------------
# block-encoding composition rules: identity, tensor, uniform LCU, density
# --------------------------------------------------------------------------

def be_identity(dim: int) -> BlockEncoding:
    return BlockEncoding(op=np.ones(dim), subnorm=1.0)


def be_tensor(b1: BlockEncoding, b2: BlockEncoding) -> BlockEncoding:
    """Encoding of the Kronecker product b1.op (x) b2.op."""
    if b1.is_diagonal and b2.is_diagonal:
        op = np.kron(b1.op, b2.op)
    else:
        op = np.kron(b1.to_dense(), b2.to_dense())
    return BlockEncoding(
        op=op,
        subnorm=b1.subnorm * b2.subnorm,
        err=b1.subnorm * b2.err + b2.subnorm * b1.err,
        ancilla_dim=b1.ancilla_dim * b2.ancilla_dim,
    )


def be_lcu(bs: Sequence[BlockEncoding], signs: Sequence[int] | None = None) -> BlockEncoding:
    """Uniform linear combination: encoded value sum(+-encoded_i) / m."""
    if not bs:
        raise DimMismatch("LCU needs at least one encoding")
    m = len(bs)
    if signs is None:
        signs = [1] * m
    if len(signs) != m or any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be a list of +-1 matching the encodings")
    dim = bs[0].dim
    if any(b.dim != dim for b in bs):
        raise DimMismatch("LCU operands must share one dimension")
    diag = all(b.is_diagonal for b in bs)
    acc = np.zeros(dim if diag else (dim, dim),
                   dtype=np.complex128 if any(np.iscomplexobj(b.op) for b in bs) else np.float64)
    for s, b in zip(signs, bs):
        acc = acc + s * (b.op if diag else b.to_dense()) / b.subnorm
    ancilla = m
    for b in bs:
        ancilla *= b.ancilla_dim
    return BlockEncoding(
        op=acc,
        subnorm=float(m),
        err=float(sum(b.err / b.subnorm for b in bs)),
        ancilla_dim=ancilla,
    )


def be_density(phi: StateVector, dim_a: int, dim_b: int) -> BlockEncoding:
    """Encoding of the reduced density matrix Tr_A |phi><phi|.

    The result has subnorm 1 and err 0; when the partial trace comes out
    exactly diagonal it is stored in the diagonal representation.
    """
    if dim_a < 1 or dim_b < 1 or dim_a * dim_b != phi.dim:
        raise BadFactorization(
            f"factor dims {dim_a} x {dim_b} do not match state dim {phi.dim}")
    c = phi.amps.reshape(dim_a, dim_b)
    rho = c.T @ c.conj()
    rho = (rho + rho.conj().T) / 2
    off = rho - np.diag(np.diagonal(rho))
    if not np.any(off):
        return BlockEncoding(op=np.diagonal(rho).real.copy(), subnorm=1.0,
                             err=0.0, ancilla_dim=dim_a)
    return BlockEncoding(op=rho, subnorm=1.0, err=0.0, ancilla_dim=dim_a)
