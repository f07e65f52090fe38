"""The package exports only what `orc` or a library user calls."""

import inspect

import orcurv
from orcurv.qpipeline import DEFAULT_DIM_CAP


def test_public_names():
    assert sorted(orcurv.__all__) == [
        "AssignmentSolution", "AuditTrail", "BlockEncoding", "CurvatureResult",
        "EigenEstimate", "Graph",
        "LocalNeighborhood", "StateVector", "TransportPlan",
        "all_pairs_geodesic", "be_invert", "be_power", "be_product",
        "blockenc", "build_DP", "build_Pi",
        "build_distance_encoding", "curvature", "dilated_apply", "dilated_overlap",
        "errors", "extract_Di", "graph", "load_graph", "localize_DG",
        "min_eigen_power", "neighborhood",
        "qpipeline", "transport", "tree_overlap_sum", "verify_tree", "w1_assignment",
        "w1_bruteforce", "w1_lp", "w1_pq_qsim", "w1_tree", "w1_tree_qsim",
    ]


def _parameters(fn) -> list[tuple[str, str, object]]:
    return [(p.name, p.kind.name, p.default)
            for p in inspect.signature(fn).parameters.values()]


def test_qsim_entry_points_take_only_what_they_read():
    empty = inspect.Parameter.empty
    assert _parameters(orcurv.w1_tree_qsim) == [
        ("nb", "POSITIONAL_OR_KEYWORD", empty), ("be", "POSITIONAL_OR_KEYWORD", empty),
        ("shots", "KEYWORD_ONLY", None), ("seed", "KEYWORD_ONLY", None),
        ("audit", "KEYWORD_ONLY", None),
    ]
    assert _parameters(orcurv.qpipeline.tree_qsim_standard_error) == [
        ("nb", "POSITIONAL_OR_KEYWORD", empty), ("be", "POSITIONAL_OR_KEYWORD", empty),
        ("shots", "POSITIONAL_OR_KEYWORD", empty),
    ]
    # the standard error of a shot-noise run: shots is always a count
    shots = inspect.signature(orcurv.qpipeline.tree_qsim_standard_error).parameters["shots"]
    assert shots.annotation == "int"
    assert _parameters(orcurv.w1_pq_qsim) == [
        ("nb", "POSITIONAL_OR_KEYWORD", empty), ("be", "POSITIONAL_OR_KEYWORD", empty),
        ("seed", "KEYWORD_ONLY", None), ("eps", "KEYWORD_ONLY", 1e-10),
        ("dim_cap", "KEYWORD_ONLY", DEFAULT_DIM_CAP), ("audit", "KEYWORD_ONLY", None),
    ]
    # every stage `orc` runs is exact; the Chebyshev stages live in
    # tests/reference.py, so no mode, degree or power_mode keyword
    assert _parameters(orcurv.be_power) == [
        ("b", "POSITIONAL_OR_KEYWORD", empty), ("c", "POSITIONAL_OR_KEYWORD", empty),
        ("kappa_m", "POSITIONAL_OR_KEYWORD", empty),
    ]
    assert _parameters(orcurv.be_invert) == [
        ("b", "POSITIONAL_OR_KEYWORD", empty), ("kappa_a", "POSITIONAL_OR_KEYWORD", empty),
    ]
    assert _parameters(orcurv.build_distance_encoding) == [
        ("dg", "POSITIONAL_OR_KEYWORD", empty), ("margin", "POSITIONAL_OR_KEYWORD", 0.05),
        ("audit", "POSITIONAL_OR_KEYWORD", None),
    ]
