"""Independent checks of an `orc` report, run outside the timed region.

Every check recomputes from the generated edge list with third-party
code, never with `orcurv`:

  dxy, neighbourhoods   networkx Dijkstra APSP; exact for integer weights,
                        relative 1e-12 for float weights (summation order)
  LP W1                 scipy linprog (HiGHS); |w1 - oracle| <= 1e-7 * max(1, |w1|)
  p = q classical W1    scipy linear_sum_assignment; exact (integer weights)
  tree closed form      mean d(x, X) + d(x, y) + mean d(y, Y) over networkx
                        distances; exact
  curvature identity    curvature == 1 - w1 / dxy, exact in Fraction for
                        rational reports, relative 1e-12 for float ones
  qsim W1               |w1_qsim - classical oracle| <= tol, where tol is
                        --tol (1e-8), or 5 propagated standard errors with
                        --shots, recomputed here from the distances

An edge *fails* when its record is missing (also when the run wrote no
report at all), when the report marks it `within_tol: false`, or when it
disagrees with an oracle. A report is *wrong* when anything it states is
false: a classical value off its oracle, a bad shape or distance, a
broken identity, a `within_tol` flag that contradicts the oracle, or an
exit code that contradicts the records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

LP_REL_TOL = 1e-7
FLOAT_REL_TOL = 1e-12
QSIM_TOL = 1e-8          # `orc compare --tol` default
QSIM_MARGIN = 0.05       # `orc --margin` default; sets alpha_q for the shot error


@dataclass
class Verdict:
    expected_edges: int
    failed: dict = field(default_factory=dict)    # (x, y) -> reason
    wrong: list = field(default_factory=list)     # human-readable findings


def _exact(v):
    """A report number as Fraction ("a/b" strings and ints) or float."""
    if isinstance(v, float):
        return v
    return Fraction(v)


def _close(a, b, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def distances(n: int, edges) -> list[list]:
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_weighted_edges_from(edges)
    lengths = dict(nx.all_pairs_dijkstra_path_length(g))
    return [[lengths[u][v] for v in range(n)] for u in range(n)]


def lp_w1(cost) -> float:
    import numpy as np
    from scipy.optimize import linprog

    c = np.asarray(cost, dtype=float)
    p, q = c.shape
    a_eq = np.zeros((p + q, p * q))
    for i in range(p):
        a_eq[i, i * q:(i + 1) * q] = 1.0
    for j in range(q):
        a_eq[p + j, j::q] = 1.0
    b_eq = np.concatenate([np.full(p, 1.0 / p), np.full(q, 1.0 / q)])
    res = linprog(c.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"linprog failed: {res.message}")
    return float(res.fun)


def assignment_w1(cost) -> Fraction:
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    c = np.asarray(cost, dtype=np.int64)
    rows, cols = linear_sum_assignment(c)
    return Fraction(int(c[rows, cols].sum()), len(cost))


def shot_tolerance(dist, x: int, y: int, X, Y, shots: int) -> float:
    """max(--tol, 5 standard errors) of the shot-noise tree W1."""
    max_d = max(max(row) for row in dist)
    alpha_q = 2.0 * (1.0 + QSIM_MARGIN) * max_d
    raws = (sum(dist[x][a] for a in X) / (alpha_q * len(X)),
            sum(dist[y][b] for b in Y) / (alpha_q * len(Y)),
            dist[x][y] / alpha_q)
    var = sum(4.0 * (1 + r) / 2 * (1 - (1 + r) / 2) / shots for r in raws)
    return max(QSIM_TOL, 5.0 * alpha_q * math.sqrt(var))


def check_report(inst, report: dict | None, exit_code: int) -> Verdict:
    """Check one report of workload instance `inst` against the oracles."""
    from workloads import adjacency, internal_edges

    expected = inst.selected if inst.selected is not None else internal_edges(inst.n, inst.edges)
    verdict = Verdict(expected_edges=len(expected))
    if report is None:
        # no report states nothing false: every edge failed, whatever the
        # exit code (3 for a solver error, 1 for a traceback)
        for e in expected:
            verdict.failed[tuple(e)] = f"missing (no report, exit code {exit_code})"
        return verdict
    rational = "--numeric" not in inst.orc_args
    compare = inst.orc_args[0] == "compare"
    shots = (int(inst.orc_args[inst.orc_args.index("--shots") + 1])
             if "--shots" in inst.orc_args else None)
    dist = distances(inst.n, inst.edges)
    adj = adjacency(inst.n, inst.edges)

    records = {(r["x"], r["y"]): r for r in report.get("records", [])}
    if len(records) != len(report.get("records", [])):
        verdict.wrong.append("duplicate edge records")
    if set(records) != {tuple(e) for e in expected}:
        verdict.wrong.append("records do not match the selected edges")
    any_out = False
    for e in expected:
        rec = records.get(tuple(e))
        if rec is None:
            verdict.failed[tuple(e)] = "missing"
            continue
        x, y = e
        X, Y = sorted(adj[x] - {y}), sorted(adj[y] - {x})
        cost = [[dist[a][b] for b in Y] for a in X]
        problems = []
        if (rec["p"], rec["q"]) != (len(X), len(Y)):
            problems.append("p, q")
        w1 = _exact(rec["w1"])
        dxy = _exact(rec["dxy"])
        curv = _exact(rec["curvature"])
        if isinstance(w1, Fraction) and isinstance(dxy, Fraction):
            if curv != 1 - w1 / dxy:
                problems.append("curvature != 1 - w1/dxy")
        elif not _close(float(curv), 1 - float(w1) / float(dxy), FLOAT_REL_TOL):
            problems.append("curvature != 1 - w1/dxy")
        if not compare:
            if not (dxy == dist[x][y] if rational else _close(dxy, dist[x][y], FLOAT_REL_TOL)):
                problems.append("dxy")
            if not _close(float(w1), lp_w1(cost), LP_REL_TOL):
                problems.append("LP W1")
            if problems:
                verdict.failed[tuple(e)] = "oracle: " + ", ".join(problems)
                verdict.wrong.append(f"edge {e}: " + ", ".join(problems))
            continue
        if rec["method"] == "qsim_tree":
            oracle = (Fraction(sum(dist[x][a] for a in X), len(X)) + dist[x][y]
                      + Fraction(sum(dist[y][b] for b in Y), len(Y)))
            tol = shot_tolerance(dist, x, y, X, Y, shots) if shots else QSIM_TOL
        else:
            oracle = assignment_w1(cost)
            tol = QSIM_TOL
            if dxy != dist[x][y]:
                problems.append("dxy")
        if _exact(rec["w1_classical"]) != oracle:
            problems.append("classical W1")
        if not _close(rec["tol"], tol, 1e-9):
            problems.append("tol")
        if rec["within_tol"] != (rec["abs_diff"] <= rec["tol"]):
            problems.append("within_tol flag")
        within_oracle = abs(rec["w1_qsim"] - float(oracle)) <= tol
        if rec["within_tol"] and not within_oracle:
            problems.append("qsim W1 marked within tol")
        if problems:
            verdict.failed[tuple(e)] = "oracle: " + ", ".join(problems)
            verdict.wrong.append(f"edge {e}: " + ", ".join(problems))
        elif not rec["within_tol"] or not within_oracle:
            verdict.failed[tuple(e)] = "out of tol (qsim W1 off by %.2e)" % abs(
                rec["w1_qsim"] - float(oracle))
        any_out |= not rec["within_tol"]
    expected_code = 1 if any_out else 0
    if exit_code != expected_code:
        verdict.wrong.append(f"exit code {exit_code}, records imply {expected_code}")
    return verdict
