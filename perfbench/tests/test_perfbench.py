"""Self-tests of the benchmark: span arithmetic, wrapper hygiene, smoke runs.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import inspect
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import metrics
import run
import spans
import workloads

REPO = Path(__file__).resolve().parents[2]


def _span(start, end, parent=-1):
    return spans.Span("f", start, end, parent)


def test_self_time_nested_spans():
    s = [_span(0, 10), _span(1, 4, 0), _span(2, 3, 1), _span(5, 7, 0)]
    assert spans.self_times(s) == [5, 2, 1, 2]
    assert sum(spans.self_times(s)) == 10


def test_self_time_partially_covered_and_overlapping_children():
    # children that stick out of the parent count only inside it, and
    # overlapping children count once
    s = [_span(0, 10), _span(-1, 2, 0), _span(8, 12, 0), _span(3, 6, 0), _span(4, 7, 0)]
    assert spans.self_times(s)[0] == 10 - (2 + 2 + 4)
    assert spans.covered_length(0, 10, []) == 0
    assert spans.covered_length(0, 10, [(11, 12), (5, 5)]) == 0


def _snapshot():
    import orcurv  # noqa: F401

    state = {}
    for key, mod in list(sys.modules.items()):
        if key == "orcurv" or key.startswith("orcurv."):
            state[key] = dict(vars(mod))
            for name, obj in vars(mod).items():
                if inspect.isclass(obj) and obj.__module__ == key:
                    state[f"{key}.{name}"] = dict(vars(obj))
    return state


def test_tracer_wraps_every_binding_and_restores_every_attribute():
    import orcurv.blockenc
    import orcurv.cli
    import orcurv.graph
    import orcurv.qpipeline

    before = _snapshot()
    original = orcurv.qpipeline.w1_tree_qsim
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert orcurv.cli.w1_tree_qsim is not original
        assert orcurv.qpipeline.w1_tree_qsim is orcurv.cli.w1_tree_qsim
        assert orcurv.blockenc.dilated_apply.__wrapped__ is not None
        assert orcurv.graph.Graph.has_edge.__wrapped__ is not None
        g = orcurv.graph.load_graph("0 1\n1 2\n2 3\n3 0\n")
        assert g.has_edge(0, 1)
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert before.keys() == after.keys()
    for key in before:
        changed = [n for n in before[key] if before[key][n] is not after[key].get(n)]
        assert not changed, f"{key}: {changed}"
    summary = tracer.summary()
    assert summary["graph.load_graph"]["calls"] == 1
    assert summary["graph.has_edge"]["calls"] == 1


def test_tracing_keeps_report_bytes(tmp_path):
    import orcurv.cli

    graph = tmp_path / "g.txt"
    graph.write_text("0 1\n1 2\n2 3\n3 0\n0 2\n")
    reports = []
    for traced in (False, True):
        out = tmp_path / f"r{traced}.json"
        tracer = spans.Tracer()
        if traced:
            tracer.install()
        try:
            code = orcurv.cli.main(["compute", "--input", str(graph), "--all-edges",
                                    "--out", str(out)])
        finally:
            tracer.uninstall()
        assert code == 0
        reports.append(out.read_bytes())
        if traced:
            total = sum(row["self_s"] for row in tracer.summary().values())
            assert total == pytest.approx(tracer.root_seconds(), rel=1e-9)
    assert reports[0] == reports[1]


def test_generators_are_seeded():
    a = workloads.generate("tree_shots", 5, n=20)
    b = workloads.generate("tree_shots", 5, n=20)
    c = workloads.generate("tree_shots", 6, n=20)
    assert a.edge_list_text() == b.edge_list_text() != c.edge_list_text()
    leaves = sum(1 for d in workloads.adjacency(a.n, a.edges) if len(d) == 1)
    assert (a.shape["E"], leaves) == (19, 10)


def test_missing_report_fails_every_edge_without_being_wrong():
    import oracles

    inst = workloads.generate("tree_shots", 1, n=20)
    verdict = oracles.check_report(inst, None, 1)
    assert len(verdict.failed) == verdict.expected_edges > 0
    assert not verdict.wrong


def test_benchmark_json_matches_metric_lists():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == metrics.PER_LAYER


SMALL = {
    "lp_sparse": {"n": 30},
    "lp_dense_float": {"n": 25, "k": 2},
    "tree_shots": {"n": 24},
    "pq_mixed": {"classes": {4: 10, 5: 10}, "profile": {3: 2, 4: 1}, "ladder": {}},
}


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_smoke_run(workload, tmp_path, monkeypatch):
    (tmp_path / "src").symlink_to(REPO / "src")
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    monkeypatch.setattr(run, "OUT", tmp_path / ".perfbench_out")
    monkeypatch.setattr(run, "MIN_SAMPLES", 2)
    real = workloads.generate
    monkeypatch.setattr(run.workloads, "generate",
                        lambda name, seed: real(name, seed, **SMALL[name]))
    for trace, names in ((0, metrics.END_TO_END), (1, metrics.PER_LAYER)):
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                             "--trace", str(trace)]) == 0
        result = json.loads(buf.getvalue().strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], buf.getvalue()
        # every input edge counts once, however many invocations the run made
        assert result["attempted"] == real(workload, 3, **SMALL[workload]).shape["edges"]
        assert set(result["metrics"]) == set(names)
        if workload != "pq_mixed":
            assert result["failed"] == 0
    assert result["metrics"]["trace_self_cover_frac"]["value"] == pytest.approx(1.0)
