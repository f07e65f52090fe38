"""Reference implementations that only the tests call.

Independent oracles and composition rules that the program itself never
runs: the transportation-polytope vertex enumeration (oracle of w1_lp),
the Kronecker and uniform-LCU block-encoding rules (oracle of
qpipeline.build_DP), the density-matrix encoding (the purified
projector route in full_route.py), the explicit unitary dilation and the
full-vector overlap (oracles of blockenc.dilated_apply and
dilated_overlap) and a finiteness check on geodesics.

The program's BlockEncoding holds a real diagonal only. The dilation
and the density-matrix encoding also take or give dense operators,
which DenseEncoding holds here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from orcurv.blockenc import BlockEncoding, StateVector, _hadamard_test
from orcurv.errors import DimMismatch, OrcError, SubnormTooSmall, TooLarge
from orcurv.graph import INF, GeodesicMatrix, LocalNeighborhood, Weight
from orcurv.transport import _emit, _lift_block

_VERTEX_ORACLE_CAP = 9


class DigitOutOfRange(OrcError):
    """A base-p digit lies outside [1, p]."""


class BadFactorization(OrcError):
    """Declared tensor factor dimensions do not match the state."""


class InexactEncoding(OrcError):
    """Unitary dilation requires an error-free encoding."""


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

@dataclass(frozen=True)
class DenseEncoding:
    """Block encoding of a square, possibly complex operator: encoded
    block op/subnorm, with BlockEncoding's bookkeeping fields."""

    op: np.ndarray
    subnorm: float
    err: float = 0.0
    ancilla_dim: int = 2

    def __post_init__(self) -> None:
        op = np.asarray(self.op, dtype=np.complex128)
        if op.ndim != 2 or op.shape[0] != op.shape[1]:
            raise DimMismatch(f"operator must be square, got shape {op.shape}")
        object.__setattr__(self, "op", op)
        norm = float(np.linalg.norm(op, 2))
        if norm > self.subnorm * (1 + 1e-9):
            raise SubnormTooSmall(f"operator norm {norm} exceeds subnorm {self.subnorm}")

    @property
    def dim(self) -> int:
        return self.op.shape[0]


def dense(b: BlockEncoding | DenseEncoding) -> np.ndarray:
    """The encoded block of either representation as a matrix."""
    return np.diag(b.encoded) if isinstance(b, BlockEncoding) else b.op / b.subnorm


def be_identity(dim: int) -> BlockEncoding:
    return BlockEncoding(op=np.ones(dim), subnorm=1.0)


def be_tensor(b1: BlockEncoding, b2: BlockEncoding) -> BlockEncoding:
    """Encoding of the Kronecker product b1.op (x) b2.op."""
    return BlockEncoding(
        op=np.kron(b1.op, b2.op),
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
    acc = np.zeros(dim)
    for s, b in zip(signs, bs):
        acc = acc + s * b.op / b.subnorm
    ancilla = m
    for b in bs:
        ancilla *= b.ancilla_dim
    return BlockEncoding(
        op=acc,
        subnorm=float(m),
        err=float(sum(b.err / b.subnorm for b in bs)),
        ancilla_dim=ancilla,
    )


def be_density(phi: StateVector, dim_a: int, dim_b: int) -> BlockEncoding | DenseEncoding:
    """Encoding of the reduced density matrix Tr_A |phi><phi|.

    The result has subnorm 1 and err 0: a BlockEncoding when the partial
    trace comes out exactly diagonal, a DenseEncoding otherwise.
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
    return DenseEncoding(op=rho, subnorm=1.0, err=0.0, ancilla_dim=dim_a)


# --------------------------------------------------------------------------
# explicit dilation and full-vector states
# --------------------------------------------------------------------------

def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh((m + m.conj().T) / 2)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def be_dilate(b: BlockEncoding | DenseEncoding) -> np.ndarray:
    """Explicit unitary of dimension 2*dim whose top-left block encodes b.

    Standard contraction dilation [[A, sqrt(I-AA*)], [sqrt(I-A*A), -A*]];
    requires err = 0 and dim <= 64.
    """
    if b.err != 0.0:
        raise InexactEncoding("dilation requires an exact encoding (err = 0)")
    if b.dim > 64:
        raise TooLarge(f"dilation capped at dim <= 64, got {b.dim}")
    a = dense(b).astype(np.complex128)
    eye = np.eye(b.dim)
    s1 = _psd_sqrt(eye - a @ a.conj().T)
    s2 = _psd_sqrt(eye - a.conj().T @ a)
    return np.block([[a, s1], [s2, -a.conj().T]])


def basis(dim: int, index: int) -> StateVector:
    amps = np.zeros(dim, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(amps)


def uniform(dim: int, support: Sequence[int]) -> StateVector:
    amps = np.zeros(dim, dtype=np.complex128)
    amps[list(support)] = 1.0 / math.sqrt(len(support))
    return StateVector(amps)


def normalized(raw) -> StateVector:
    arr = np.asarray(raw, dtype=np.complex128).ravel()
    norm = float(np.linalg.norm(arr))
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return StateVector(arr / norm)


def overlap(a: StateVector, b: StateVector, shots: int | None = None,
            seed=None) -> float:
    """Re<a|b>, exactly or through the Hadamard-test shot emulation that
    blockenc.dilated_overlap uses."""
    if a.dim != b.dim:
        raise DimMismatch(f"state dims differ: {a.dim} vs {b.dim}")
    return _hadamard_test(float(np.real(np.vdot(a.amps, b.amps))), shots, seed)
