"""The program keeps calling what the benchmark in `perfbench/` reads.

`perfbench/run.py --trace 1` reads the traced self time of every function
in `metrics.ALWAYS_TIMED` on every workload, so a change that stops one
workload from calling one of them breaks the benchmark, not a test there.
Its setup process calls `all_pairs_geodesic(g, workers=1)`. This runs
each workload small, with the benchmark's own generators, tracer and
`orc` arguments, and changes nothing under `perfbench/`.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import orcurv.cli  # noqa: E402
from orcurv.graph import all_pairs_geodesic, load_graph  # noqa: E402

SMALL = {
    "lp_sparse": {"n": 30},
    "lp_dense_float": {"n": 20, "k": 2},
    "tree_shots": {"n": 20},
    "pq_mixed": {"profile": {3: 2, 4: 2}},
}


def test_every_workload_is_covered():
    assert set(SMALL) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_workload_calls_every_always_timed_function(tmp_path, name):
    inst = workloads.generate(name, 1, **SMALL[name])
    graph = tmp_path / "input.txt"
    graph.write_text(inst.edge_list_text())
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = orcurv.cli.main([*inst.orc_args, "--input", str(graph),
                                "--out", str(tmp_path / "report.json")])
    finally:
        tracer.uninstall()
    assert code in (0, 1)    # a compare may exceed its tolerance
    called = tracer.summary()
    assert [fn for fn in metrics.ALWAYS_TIMED if fn not in called] == []
    numeric = "float" if "float" in inst.orc_args else "rational"
    g = load_graph(graph.read_text(), numeric=numeric)
    assert all_pairs_geodesic(g, workers=1) == all_pairs_geodesic(g)
