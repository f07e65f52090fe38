"""Ollivier-Ricci curvature via exact optimal transport, plus a
desk-scale simulator of the block-encoding estimation pipelines.

The simulator's modules, `blockenc` and `qpipeline`, import numpy, so
they and their names load on first access (PEP 562): an exact classical
run never imports numpy.
"""

import importlib as _importlib

__version__ = "0.1.0"

from . import errors
from .graph import (
    Graph,
    LocalNeighborhood,
    all_pairs_geodesic,
    load_graph,
    neighborhood,
    verify_tree,
)
from .transport import (
    AssignmentSolution,
    CurvatureResult,
    TransportPlan,
    curvature,
    w1_assignment,
    w1_bruteforce,
    w1_lp,
    w1_tree,
)

#: each lazy name -> the simulator module that defines it
_LAZY = {
    **dict.fromkeys(("BlockEncoding", "StateVector", "be_invert", "be_power", "be_product",
                     "dilated_apply", "dilated_overlap"), "blockenc"),
    **dict.fromkeys(("AuditTrail", "EigenEstimate", "build_distance_encoding", "build_DP",
                     "build_Pi", "extract_Di", "localize_DG", "min_eigen_power",
                     "tree_overlap_sum", "w1_pq_qsim", "w1_tree_qsim"), "qpipeline"),
}

__all__ = [
    "errors", "graph", "transport", "blockenc", "qpipeline",
    "Graph", "LocalNeighborhood", "all_pairs_geodesic", "load_graph", "neighborhood",
    "verify_tree",
    "AssignmentSolution", "CurvatureResult", "TransportPlan", "curvature", "w1_assignment",
    "w1_bruteforce", "w1_lp", "w1_tree",
    *_LAZY,
]


def __getattr__(name: str):
    # read through the module on every access, so a patch there shows here
    if name in ("blockenc", "qpipeline"):
        return _importlib.import_module(f".{name}", __name__)
    if name in _LAZY:
        return getattr(_importlib.import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
