"""Metric names, units and the reductions that produce them.

END_TO_END and PER_LAYER are the lists BENCHMARK.json declares; a
self-test keeps the two in step. PER_LAYER gives absolute self times
only for functions and layers every workload runs. A function only some
workloads run (`transport.w1_lp`, the qsim stages) appears as its share
of the traced `cli.main` time, `.self_frac`, which is an honest 0 where
it is idle; its absolute self time and the per-edge p50/p99 are printed
and saved by every traced run.
"""

from __future__ import annotations

import statistics

#: wall_rel is the median, over the run's invocations, of one `orc`
#: invocation's wall time divided by the mean of the reference processes
#: run just before and just after it; the machine's speed drifts by up to
#: +-30 % over minutes, and the ratio cancels most of that drift (raw
#: wall_s is printed)
END_TO_END = {
    "wall_rel": ("ref", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: functions whose spans are per-edge entry points: p50/p99 of span time
PER_EDGE_ENTRY = ("transport.w1_lp", "qpipeline.w1_tree_qsim", "qpipeline.w1_pq_qsim")
#: functions whose calls are also reported per processed edge
PER_EDGE_CALLS = ("graph.neighborhood", "graph.has_edge", "graph.verify_tree",
                  "qpipeline.build_distance_encoding")
#: functions every workload calls, so their self time is never 0
ALWAYS_TIMED = ("cli.main", "graph.load_graph", "graph.all_pairs_geodesic",
                "graph.neighborhood", "graph.has_edge", "graph.neighbors",
                "graph.verify_tree", "transport.curvature", "transport.from_w1")
#: layers every workload spends time in
ALWAYS_LAYERS = ("graph", "transport", "cli")
#: functions and layers reported as a share of the traced main-call time
SHARE_OF_MAIN = (
    "graph.to_float_rows", "transport.w1_lp", "transport.w1_tree", "transport.w1_assignment",
    "qpipeline.build_distance_encoding", "qpipeline.tree_overlap_sum",
    "qpipeline.localize_DG", "qpipeline.build_DP", "qpipeline.build_Pi",
    "qpipeline.min_eigen_power", "blockenc.dilated_apply", "blockenc.overlap",
    "blockenc.be_power", "blockenc.be_tensor", "blockenc.be_lcu",
    "blockenc.be_product", "blockenc.be_invert", "qpipeline", "blockenc",
)
#: functions whose call counts are tracked; every one runs on some workload
COUNTED = (
    "cli.main", "graph.load_graph", "graph.all_pairs_geodesic", "graph.neighborhood",
    "graph.has_edge", "graph.neighbors", "graph.verify_tree", "graph.to_float_rows",
    "transport.curvature", "transport.from_w1", "transport.w1_lp", "transport.w1_tree",
    "transport.w1_assignment",
    "qpipeline.w1_tree_qsim", "qpipeline.tree_qsim_standard_error",
    "qpipeline.build_distance_encoding", "qpipeline.tree_overlap_sum",
    "qpipeline.w1_pq_qsim", "qpipeline.localize_DG", "qpipeline.extract_Di",
    "qpipeline.build_DP", "qpipeline.build_Pi", "qpipeline.min_eigen_power",
    "blockenc.dilated_apply", "blockenc.overlap", "blockenc.be_power",
    "blockenc.be_tensor", "blockenc.be_identity", "blockenc.be_lcu",
    "blockenc.be_product", "blockenc.be_invert", "blockenc.rescaled_representation",
    "blockenc.uniform", "blockenc.basis", "blockenc.conjugate_diagonal",
)


def _per_layer() -> dict:
    out = {}
    for name in COUNTED:
        out[f"{name}.calls"] = ("count", "lower")
    for name in PER_EDGE_CALLS:
        out[f"{name}.calls_per_edge"] = ("count", "lower")
    for name in ALWAYS_TIMED:
        out[f"{name}.self_s"] = ("s", "lower")
    for layer in ALWAYS_LAYERS:
        out[f"{layer}.self_s"] = ("s", "lower")
    for name in SHARE_OF_MAIN:
        out[f"{name}.self_frac"] = ("1", "lower")
    out.update({
        "blockenc.dilated_apply.elements": ("count", "lower"),
        "qpipeline.build_DP.elements": ("count", "lower"),
        "qpipeline.min_eigen_power.iterations": ("count", "lower"),
        "qpipeline.min_eigen_power.elem_iters": ("count", "lower"),
        "qpipeline.min_eigen_power.converged_frac": ("1", "higher"),
        "cli.report_bytes": ("bytes", "lower"),
        "trace_self_cover_frac": ("1", "higher"),
        "trace_overhead_frac": ("1", "lower"),
    })
    return out


PER_LAYER = _per_layer()


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it.

    With fewer than 20 samples no percentile above the median has ten
    beyond it; the maximum is given instead.
    """
    n = len(values)
    for pct in (99, 95, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            return f"p{pct}", float(statistics.quantiles(values, n=100)[pct - 1])
    return "max", float(max(values))


def percentile_ms(durations_s, pct: int) -> float:
    if len(durations_s) == 1:
        return durations_s[0] * 1e3
    return float(statistics.quantiles(durations_s, n=100, method="inclusive")[pct - 1]) * 1e3
