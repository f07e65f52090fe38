"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here, none deferred.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from full_route import build_pi_full, perm_index, permutation_indices
from helpers import (
    internal_edges,
    pq_qsim_from_cost,
    random_neighborhood,
    random_tree,
    scale_nb,
    to_float_nb,
)
from orcurv.blockenc import (
    BlockEncoding,
    be_power,
    be_product,
    default_power_degree,
)
from orcurv.cli import main
from orcurv.graph import all_pairs_geodesic, neighborhood
from orcurv.qpipeline import (
    build_distance_encoding,
    build_Pi,
    tree_qsim_standard_error,
    w1_tree_qsim,
)
from orcurv.transport import (
    curvature,
    w1_assignment,
    w1_bruteforce,
    w1_lp,
    w1_tree,
)
from reference import (
    ApproxEncoding,
    DenseEncoding,
    be_dilate,
    be_lcu,
    be_tensor,
    chebyshev_power,
    lp_vertex_oracle,
)

#: curvature of every instance generated anywhere in this suite (criterion 10)
CURVATURES: list[float] = []


def _pass(num: int, desc: str, t0: float, budget: float) -> None:
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s, budget {budget}s"
    print(f"\nACCEPTANCE criterion {num:2d}: PASS  ({desc}; {elapsed:.2f}s < {budget:.0f}s)")


def test_criterion_01_golden_fixture(tmp_path, capsys):
    t0 = time.monotonic()
    assert main(["fixture", "appendix_a", "--dir", str(tmp_path)]) == 0
    capsys.readouterr()
    fixture = str(tmp_path / "appendix_a.json")

    assert main(["compute", "--input", fixture, "--format", "cost_matrix",
                 "--method", "lp"]) == 0
    rec = json.loads(capsys.readouterr().out)["records"][0]
    assert rec["w1"] == "25/12"
    assert rec["curvature"] == "-13/12"

    assert main(["compute", "--input", fixture, "--format", "cost_matrix",
                 "--method", "lp", "--numeric", "float"]) == 0
    rec_f = json.loads(capsys.readouterr().out)["records"][0]
    assert abs(rec_f["w1"] - 25 / 12) <= 1e-12
    assert abs(rec_f["curvature"] - (-13 / 12)) <= 1e-12
    CURVATURES.append(rec_f["curvature"])
    with capsys.disabled():
        _pass(1, "Appendix A: W1 = 25/12, curvature = -13/12", t0, 1.0)


def test_criterion_02_lp_vertex_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(20250809)
    shapes = [(p, q) for p in range(1, 9) for q in range(1, 9) if p + q <= 9]
    for _ in range(500):
        p, q = rng.choice(shapes)
        nb = random_neighborhood(p, q, rng, max_value=12, denominators=(1, 2, 3, 4))
        lp = w1_lp(nb).cost_value
        assert lp == lp_vertex_oracle(nb)
        CURVATURES.append(float(1 - lp / nb.dxy))
    _pass(2, "500 rational instances, w1_lp == vertex oracle exactly", t0, 30.0)


def test_criterion_03_assignment_vs_bruteforce():
    t0 = time.monotonic()
    rng = random.Random(3)
    for _ in range(500):
        p = rng.randint(1, 7)
        cost = [[rng.randint(0, 20) for _ in range(p)] for _ in range(p)]
        assert w1_assignment(cost).cost_value == w1_bruteforce(cost).cost_value
    _pass(3, "500 integer instances, w1_assignment == brute force exactly", t0, 30.0)


def test_criterion_04_tree_closed_form():
    t0 = time.monotonic()
    rng = random.Random(4)
    trees = 0
    edges_checked = 0
    while trees < 100:
        n = rng.randint(3, 200)
        g = random_tree(n, rng, max_weight=9)
        inner = internal_edges(g)
        if not inner:
            continue
        trees += 1
        dg = all_pairs_geodesic(g)
        for x, y in inner:
            nb = neighborhood(g, dg, x, y)
            closed = w1_tree(nb)
            assert closed == w1_lp(nb).cost_value
            edges_checked += 1
            CURVATURES.append(float(1 - closed / nb.dxy))
    assert edges_checked > 1000
    _pass(4, f"100 random trees, {edges_checked} internal edges, "
             "w1_tree == w1_lp exactly", t0, 60.0)


def test_criterion_05_tree_pipeline():
    t0 = time.monotonic()
    rng = random.Random(5)
    shots = 10 ** 6
    edges_total = 0
    shot_hits = 0
    for t in range(50):
        n = rng.randint(4, 64)
        g = random_tree(n, rng)
        dg = all_pairs_geodesic(g)
        be = build_distance_encoding(dg)
        for k, (x, y) in enumerate(internal_edges(g)):
            nb = neighborhood(g, dg, x, y)
            closed = float(w1_tree(nb))
            exact = w1_tree_qsim(nb, be, seed=0)
            assert abs(exact.w1 - closed) <= 1e-10
            CURVATURES.append(exact.curvature)
            noisy = w1_tree_qsim(nb, be, shots=shots, seed=100000 + 977 * t + k)
            se = tree_qsim_standard_error(nb, be, shots)
            edges_total += 1
            if abs(noisy.w1 - closed) <= 5 * se:
                shot_hits += 1
    assert edges_total >= 100
    assert shot_hits / edges_total >= 0.95
    _pass(5, f"50 trees: exact <= 1e-10 on all {edges_total} edges, "
             f"shots within 5 SE on {100 * shot_hits / edges_total:.1f}%", t0, 120.0)


def test_criterion_06_pq_pipeline():
    t0 = time.monotonic()
    rng = random.Random(6)
    for p in (2, 3, 4, 5):
        for i in range(200):
            cost = [[rng.randint(1, 10) for _ in range(p)] for _ in range(p)]
            dxy = rng.randint(1, 4)
            res = pq_qsim_from_cost(cost, dxy, seed=7000 + i, eps=1e-10)
            expected = float(w1_assignment(cost).cost_value)
            assert abs(res.w1 - expected) <= 1e-8
            assert res.diagnostics.converged
            CURVATURES.append(res.curvature)
    _pass(6, "200 instances per p in {2,3,4,5}, |qsim - w1_assignment| <= 1e-8",
          t0, 120.0)


def test_criterion_07_blockenc_algebra():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    for i in range(1000):
        dim = int(rng.choice([2, 4, 8]))
        # the program encodes real diagonals; the dilation oracle takes a dense m
        v1 = rng.standard_normal(dim)
        v2 = rng.standard_normal(dim)
        m = rng.standard_normal((dim, dim))
        a1 = float(np.max(np.abs(v1))) * float(rng.uniform(1.0, 2.0))
        a2 = float(np.max(np.abs(v2))) * float(rng.uniform(1.0, 2.0))
        am = float(np.linalg.norm(m, 2)) * float(rng.uniform(1.0, 2.0))
        e1, e2 = float(rng.uniform(0, 1e-3)), float(rng.uniform(0, 1e-3))
        b1 = ApproxEncoding(op=v1, subnorm=a1, err=e1)
        b2 = ApproxEncoding(op=v2, subnorm=a2, err=e2)
        m1, m2 = np.diag(v1), np.diag(v2)

        prod = be_product(b1, b2)
        assert np.max(np.abs(np.diag(prod.encoded) -
                             (m1 / a1) @ (m2 / a2))) <= 1e-10
        assert prod.subnorm == a1 * a2

        if i % 4 == 0:
            tens = be_tensor(b1, b2)
            assert np.max(np.abs(np.diag(tens.op) - np.kron(m1, m2))) <= 1e-10
            assert tens.subnorm == a1 * a2
            assert tens.err == a1 * e2 + a2 * e1

            comb = be_lcu([b1, b2], [1, -1])
            assert np.max(np.abs(np.diag(comb.encoded) -
                                 (m1 / a1 - m2 / a2) / 2)) <= 1e-10
            assert comb.subnorm == 2.0
            assert comb.err == e1 / a1 + e2 / a2

        u = be_dilate(DenseEncoding(m, am))
        assert np.max(np.abs(u @ u.conj().T - np.eye(2 * dim))) <= 1e-10
        assert np.max(np.abs(u[:dim, :dim] - m / am)) <= 1e-12
    _pass(7, "1000 encodings: dilation unitary <= 1e-10, composition <= 1e-10, "
             "ledger exact", t0, 30.0)


def test_criterion_08_fractional_power_approximation():
    t0 = time.monotonic()
    eps_target = 1e-6
    for kappa in (4.0, 16.0, 256.0):
        degree = default_power_degree(kappa, eps_target)
        samples = np.linspace(1.0 / kappa, 1.0, 1000)
        b = BlockEncoding(samples, 1.0)
        approx = chebyshev_power(b, 0.25, kappa_m=kappa, degree=degree)
        exact = be_power(b, 0.25, kappa_m=kappa)
        measured = float(np.max(np.abs(approx.encoded - exact.encoded)))
        assert measured <= approx.err
        assert approx.err <= eps_target
    _pass(8, "default-degree Chebyshev meets 1e-6 target for kappa in {4,16,256}",
          t0, 10.0)


def test_criterion_09_projector_and_index():
    t0 = time.monotonic()
    import itertools
    for p in (2, 3, 4):
        direct = build_pi_full(p, route="direct")
        support = set(np.flatnonzero(direct.op).tolist())
        expected = {perm_index(perm, p)
                    for perm in itertools.permutations(range(1, p + 1))}
        assert support == expected
        assert len(support) == math.factorial(p)
        purified = build_pi_full(p, route="purified")
        assert np.max(np.abs(purified.encoded - direct.encoded)) <= 1e-14
        # the pipeline's projector lives on exactly those indices, ascending
        flat = permutation_indices(p)
        assert flat.tolist() == sorted(expected)
        on_support = build_Pi(p)
        assert np.array_equal(on_support.encoded, direct.encoded[flat])
        assert on_support.subnorm == direct.subnorm
    _pass(9, "Pi support == permutation tuples (p=2,3,4); purified == direct; "
             "support route == direct at those tuples", t0, 10.0)


def test_criterion_10_invariance_properties():
    t0 = time.monotonic()
    rng = random.Random(10)
    from fractions import Fraction
    for _ in range(100):
        p, q = rng.randint(1, 4), rng.randint(1, 4)
        nb = random_neighborhood(p, q, rng, denominators=(1, 2, 3))
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        base = curvature(nb, method="lp")
        scaled = curvature(scale_nb(nb, lam), method="lp")
        assert scaled.w1 == lam * base.w1
        assert scaled.curvature == base.curvature

        base_f = curvature(to_float_nb(nb), method="lp")
        scaled_f = curvature(to_float_nb(scale_nb(nb, lam)), method="lp")
        assert abs(scaled_f.w1 - float(lam) * base_f.w1) <= 1e-10 * max(1.0, base_f.w1)
        assert abs(scaled_f.curvature - base_f.curvature) <= 1e-10
        CURVATURES.extend([float(base.curvature), float(scaled.curvature),
                           base_f.curvature, scaled_f.curvature])
    assert CURVATURES, "earlier criteria populate the curvature log"
    assert all(c <= 1.0 + 1e-12 for c in CURVATURES)
    _pass(10, f"scale equivariance/invariance on 100 instances; curvature <= 1 "
              f"on all {len(CURVATURES)} instances generated in the suite", t0, 30.0)
