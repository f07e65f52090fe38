"""The package exports only what `orc` or a library user calls."""

import inspect
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import orcurv
from orcurv.qpipeline import DEFAULT_DIM_CAP

REPO = Path(__file__).resolve().parents[1]


def test_public_names():
    assert sorted(orcurv.__all__) == [
        "AssignmentSolution", "AuditTrail", "BlockEncoding", "CurvatureResult",
        "EigenEstimate", "Graph",
        "LocalNeighborhood", "StateVector", "TransportPlan",
        "all_pairs_geodesic", "be_invert", "be_power", "be_product",
        "blockenc", "build_DP", "build_Pi",
        "build_distance_encoding", "curvature", "dilated_apply", "dilated_overlap",
        "errors", "extract_Di", "graph", "load_cost_matrix", "load_graph", "localize_DG",
        "min_eigen_power", "neighborhood",
        "qpipeline", "transport", "tree_overlap_sum", "verify_tree", "w1_assignment",
        "w1_bruteforce", "w1_lp", "w1_pq_qsim", "w1_tree", "w1_tree_qsim",
    ]


def test_every_public_name_is_its_module_attribute():
    # the simulator's names load on first access, each from its module
    for name in orcurv.__all__:
        obj = getattr(orcurv, name)
        if inspect.ismodule(obj):
            assert obj is sys.modules[f"orcurv.{name}"]
        else:
            assert obj.__module__.startswith("orcurv.")
            assert getattr(sys.modules[obj.__module__], name) is obj


def test_unknown_attribute_is_attribute_error():
    with pytest.raises(AttributeError, match="'orcurv' has no attribute 'w1_qsim'"):
        orcurv.w1_qsim
    assert not hasattr(orcurv, "np")


def test_star_import_and_readme_example_in_a_fresh_process():
    # a fresh interpreter, so every lazy name is loaded by these lines
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    example = re.search(r"## Library example\n+```python\n(.*?)```", readme, re.S).group(1)
    code = ("from orcurv import *\n"
            "import orcurv\n"
            "assert all(globals()[n] is getattr(orcurv, n) for n in orcurv.__all__)\n"
            + example)
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "0"


#: one instance of each classical record type, built by keyword with
#: every default left out, and its repr
RECORDS = [
    (lambda: orcurv.Graph(vertex_count=3, edges=[(1, 0, 2), (1, 2)]),
     "Graph(vertex_count=3, edges=((0, 1, 2), (1, 2, 1)))"),
    (lambda: orcurv.LocalNeighborhood(x=None, y=None, X=(0,), Y=(1, 2), cost=((1, 2.5),),
                                      dxy=1),
     "LocalNeighborhood(x=None, y=None, X=(0,), Y=(1, 2), cost=((1, 2.5),), dxy=1, "
     "x_dists=None, y_dists=None)"),
    (lambda: orcurv.TransportPlan(p=1, q=2, flow=((1, 1),), cost_value=0.5),
     "TransportPlan(p=1, q=2, flow=((1, 1),), cost_value=0.5)"),
    (lambda: orcurv.AssignmentSolution(p=2, pi=(1, 0), cost_value=3),
     "AssignmentSolution(p=2, pi=(1, 0), cost_value=3)"),
    (lambda: orcurv.CurvatureResult(x=0, y=1, w1=1, dxy=2, method="lp"),
     "CurvatureResult(x=0, y=1, w1=1, dxy=2, method='lp', diagnostics=None)"),
]


@pytest.mark.parametrize("make, shown", RECORDS, ids=[r[1].split("(")[0] for r in RECORDS])
def test_classical_records_compare_hash_and_refuse_assignment_by_field(make, shown):
    a, b = make(), make()
    assert repr(a) == shown
    assert a == b and a is not b and hash(a) == hash(b) and len({a, b}) == 1
    field = shown.split("(")[1].split("=")[0]
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(a, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b
    # equality reads the type as well as the fields
    twin = object.__new__(type("Twin", (type(a),), {}))
    vars(twin).update(vars(a))
    assert a != twin and twin != a


def test_simulator_records_compare_hash_and_refuse_assignment_by_field():
    def estimate():
        return orcurv.EigenEstimate(value=0.5, iterations=3, initial_overlap=0.25,
                                    gap_proxy=2.0, converged=True)

    def encoding():
        return orcurv.qpipeline.DistanceEncoding(subnorm=2.0, ancilla_dim=4)

    assert repr(estimate()) == ("EigenEstimate(value=0.5, iterations=3, initial_overlap=0.25, "
                                "gap_proxy=2.0, converged=True)")
    assert repr(encoding()) == "DistanceEncoding(subnorm=2.0, ancilla_dim=4)"
    for make in (estimate, encoding):
        a, b = make(), make()
        assert a == b and a is not b and hash(a) == hash(b)
    be = orcurv.BlockEncoding([0.5, 0.25], 1.0)
    state = orcurv.StateVector([0.6, 0.8])
    for record, field in ((estimate(), "value"), (encoding(), "subnorm"), (be, "op"),
                          (be, "subnorm"), (state, "amps")):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert be.subnorm == 1.0 and state.dim == 2


def test_classical_records_keep_their_cached_properties():
    g = orcurv.Graph(2, [(0, 1, 0.5)])
    assert (g.rational, g._zero, g.neighbors(0), g.has_edge(1, 0)) == (False, 0.0, (1,), True)
    plan = orcurv.TransportPlan(p=2, q=1, flow=((1,), (1,)), cost_value=1)
    assert plan.gamma == ((Fraction(1, 2),), (Fraction(1, 2),)) and plan.gamma is plan.gamma
    result = orcurv.CurvatureResult.from_w1(w1=1, dxy=2, method="tree")
    assert (result.curvature, result.x, result.diagnostics) == (Fraction(1, 2), None, None)


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
    # the p = q stages neither trace nor cap: w1_pq_qsim writes their
    # ledger and checks p^p against dim_cap once
    # the stages take their distances from the neighborhood, not by index
    assert _parameters(orcurv.localize_DG) == [
        ("be", "POSITIONAL_OR_KEYWORD", empty), ("cost", "POSITIONAL_OR_KEYWORD", empty),
    ]
    assert _parameters(orcurv.tree_overlap_sum) == [
        ("be", "POSITIONAL_OR_KEYWORD", empty), ("center", "POSITIONAL_OR_KEYWORD", empty),
        ("dists", "POSITIONAL_OR_KEYWORD", empty), ("shots", "POSITIONAL_OR_KEYWORD", None),
        ("seed", "POSITIONAL_OR_KEYWORD", None), ("audit", "POSITIONAL_OR_KEYWORD", None),
    ]
    # an overlap reads one amplitude per entry of its encoding, no index
    assert _parameters(orcurv.dilated_overlap) == [
        ("b", "POSITIONAL_OR_KEYWORD", empty), ("amps", "POSITIONAL_OR_KEYWORD", empty),
        ("shots", "POSITIONAL_OR_KEYWORD", None), ("seed", "POSITIONAL_OR_KEYWORD", None),
    ]
    assert _parameters(orcurv.qpipeline.DistanceEncoding.entries) == [
        ("self", "POSITIONAL_OR_KEYWORD", empty), ("d", "POSITIONAL_OR_KEYWORD", empty),
    ]
    assert _parameters(orcurv.extract_Di) == [
        ("dg_local", "POSITIONAL_OR_KEYWORD", empty), ("i", "POSITIONAL_OR_KEYWORD", empty),
    ]
    assert _parameters(orcurv.build_DP) == [("ds", "POSITIONAL_OR_KEYWORD", empty)]
    assert _parameters(orcurv.build_Pi) == [("p", "POSITIONAL_OR_KEYWORD", empty)]
    assert _parameters(orcurv.min_eigen_power) == [
        ("be", "POSITIONAL_OR_KEYWORD", empty), ("kappa_a", "POSITIONAL_OR_KEYWORD", empty),
        ("seed", "POSITIONAL_OR_KEYWORD", None), ("eps", "POSITIONAL_OR_KEYWORD", 1e-10),
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
