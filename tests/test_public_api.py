"""The package exports only what `orc` or a library user calls."""

import dataclasses

import orcurv
from orcurv.qpipeline import QsimConfig


def test_public_names_and_qsim_config_fields():
    assert sorted(orcurv.__all__) == [
        "AssignmentSolution", "AuditTrail", "BlockEncoding", "CurvatureResult",
        "DistanceEncodingMeta", "EigenEstimate", "GeodesicMatrix", "Graph",
        "LocalNeighborhood", "QsimConfig", "StateVector", "TransportPlan",
        "all_pairs_geodesic", "be_invert", "be_power", "be_product",
        "be_scale", "be_wrap", "blockenc", "build_DP", "build_Pi",
        "build_distance_encoding", "curvature", "dilated_apply", "dilated_overlap",
        "errors", "extract_Di", "graph", "load_graph", "localize_DG",
        "min_eigen_power", "neighborhood", "pq_qsim_from_cost",
        "qpipeline", "transport", "tree_overlap_sum", "verify_tree", "w1_assignment",
        "w1_bruteforce", "w1_lp", "w1_pq_qsim", "w1_tree", "w1_tree_qsim",
    ]
    # one field per `orc` option that reaches the pipelines
    assert [f.name for f in dataclasses.fields(QsimConfig)] == \
        ["margin", "shots", "seed", "eps", "dim_cap"]
