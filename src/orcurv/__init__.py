"""Ollivier-Ricci curvature via exact optimal transport, plus a
desk-scale simulator of the block-encoding estimation pipelines."""

__version__ = "0.1.0"

from . import errors
from .blockenc import (
    BlockEncoding,
    StateVector,
    be_invert,
    be_power,
    be_product,
    dilated_apply,
    dilated_overlap,
)
from .graph import (
    Graph,
    LocalNeighborhood,
    all_pairs_geodesic,
    load_graph,
    neighborhood,
    verify_tree,
)
from .qpipeline import (
    AuditTrail,
    EigenEstimate,
    build_distance_encoding,
    build_DP,
    build_Pi,
    extract_Di,
    localize_DG,
    min_eigen_power,
    tree_overlap_sum,
    w1_pq_qsim,
    w1_tree_qsim,
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

__all__ = [name for name in dir() if not name.startswith("_")]
