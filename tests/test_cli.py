"""CLI integration: exit codes, report formats, determinism."""

import csv
import errno
import inspect
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import orcurv.blockenc
import orcurv.cli
import orcurv.graph
import orcurv.qpipeline
from helpers import corrupt_encoding
from orcurv.cli import main
from orcurv.errors import InvalidWeight, ParseError
from orcurv.graph import load_cost_matrix


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """json.loads refusing NaN and +-Infinity, which are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.fixture()
def appendix(tmp_path):
    path = tmp_path / "appendix_a.json"
    main(["fixture", "appendix_a", "--dir", str(tmp_path)])
    return path


@pytest.fixture()
def path4(tmp_path):
    path = tmp_path / "path4.txt"
    main(["fixture", "path4", "--dir", str(tmp_path)])
    return path


def test_fixture_contents(tmp_path, capsys):
    code, out, _ = run_cli(["fixture", "appendix_a", "--dir", str(tmp_path)], capsys)
    assert code == 0
    obj = json.loads((tmp_path / "appendix_a.json").read_text())
    assert obj == {"cost": [[1, 3, 3, 2], [2, 3, 3, 3], [3, 2, 2, 3]], "dxy": 1}
    run_cli(["fixture", "path4", "--dir", str(tmp_path)], capsys)
    assert (tmp_path / "path4.txt").read_text() == "0 1\n1 2\n2 3\n"
    run_cli(["fixture", "star", "--dir", str(tmp_path)], capsys)
    assert (tmp_path / "star.txt").read_text() == "0 1\n0 2\n0 3\n"


def test_compute_appendix_lp_exact(appendix, capsys):
    code, out, _ = run_cli(["compute", "--input", str(appendix),
                            "--format", "cost_matrix", "--method", "lp"], capsys)
    assert code == 0
    report = json.loads(out)
    rec = report["records"][0]
    assert rec["w1"] == "25/12"
    assert rec["curvature"] == "-13/12"
    assert rec["dxy"] == 1
    assert (rec["p"], rec["q"]) == (3, 4)


def test_compute_appendix_float_mode(appendix, capsys):
    code, out, _ = run_cli(["compute", "--input", str(appendix),
                            "--format", "cost_matrix", "--method", "lp",
                            "--numeric", "float"], capsys)
    assert code == 0
    rec = json.loads(out)["records"][0]
    assert abs(rec["w1"] - 25 / 12) <= 1e-12
    assert abs(rec["curvature"] + 13 / 12) <= 1e-12


def test_compute_tree_method(path4, capsys):
    code, out, _ = run_cli(["compute", "--input", str(path4),
                            "--method", "tree", "--edge", "1,2"], capsys)
    assert code == 0
    rec = json.loads(out)["records"][0]
    assert rec["curvature"] == -2
    assert rec["w1"] == 3


def test_compute_qsim_tree(path4, capsys):
    code, out, _ = run_cli(["compute", "--input", str(path4),
                            "--method", "qsim_tree", "--edge", "1,2"], capsys)
    assert code == 0
    rec = json.loads(out)["records"][0]
    assert abs(rec["curvature"] + 2.0) <= 1e-10


def test_qsim_pq_not_square_is_config_error(appendix, capsys):
    code, _, err = run_cli(["compute", "--input", str(appendix),
                            "--format", "cost_matrix", "--method", "qsim_pq"], capsys)
    assert code == 2
    assert "NotSquare" in err
    assert "(-1, -1)" not in err


def test_tree_method_on_cost_matrix_rejected(appendix, capsys):
    code, _, err = run_cli(["compute", "--input", str(appendix),
                            "--format", "cost_matrix", "--method", "tree"], capsys)
    assert code == 2


def test_missing_input_is_config_error(tmp_path, capsys):
    code, _, err = run_cli(["compute", "--input", str(tmp_path / "nope.txt"),
                            "--method", "lp", "--all-edges"], capsys)
    assert code == 2
    assert "config error" in err


def test_non_utf8_input_is_config_error(tmp_path, capsys):
    graph = tmp_path / "latin1.txt"
    graph.write_bytes(b"0 1\n1 2\xff\n2 3\n")
    code, out, err = run_cli(["compute", "--input", str(graph), "--edge", "1,2"], capsys)
    assert code == 2
    assert out == ""
    assert "cannot read input" in err and str(graph) in err


@pytest.mark.parametrize("option, argv", [
    ("--out", ["--method", "lp"]),
    ("--trace", ["--method", "qsim_tree"]),
], ids=["out", "trace"])
def test_unwritable_output_path_is_config_error(path4, tmp_path, capsys, option, argv):
    target = tmp_path / "no-such-dir" / "x.json"
    code, out, err = run_cli(["compute", "--input", str(path4), "--edge", "1,2", *argv,
                              option, str(target)], capsys)
    assert code == 2
    assert out == ""
    assert f"cannot write {option}" in err and str(target) in err
    assert not target.exists()


@pytest.mark.parametrize("bad, where", [
    ("--out", "missing-dir"), ("--trace", "missing-dir"),
    ("--out", "a-dir"), ("--trace", "a-dir"),
    ("--out", "long-name"), ("--trace", "long-name"),
    ("--out", "long-dir"), ("--trace", "long-dir"),
    ("--out", "symlink-loop"), ("--trace", "symlink-loop"),
])
def test_refused_output_path_writes_neither_file(path4, tmp_path, capsys, monkeypatch,
                                                 bad, where):
    # the other path is writable; the run is refused while settling, so
    # neither file is written and no distances are computed. A name of
    # 300 characters is one the OS refuses to stat (ENAMETOOLONG), and so
    # is a symlink to itself (ELOOP).
    paths = {"--out": tmp_path / "report.json", "--trace": tmp_path / "trace.jsonl"}
    if where == "missing-dir":
        paths[bad] = tmp_path / "no-such-dir" / paths[bad].name
    elif where == "a-dir":
        paths[bad] = tmp_path / "sub"
        paths[bad].mkdir()
    elif where == "long-name":
        paths[bad] = tmp_path / ("a" * 300 + paths[bad].suffix)
    elif where == "long-dir":
        paths[bad] = tmp_path / ("a" * 300) / paths[bad].name
    else:
        paths[bad] = tmp_path / "loop"
        try:
            os.symlink("loop", paths[bad])
        except (AttributeError, NotImplementedError, OSError) as exc:
            pytest.skip(f"os.symlink is unavailable: {exc}")
    apsp = _spy(monkeypatch, orcurv.graph, "all_pairs_geodesic")
    code, out, err = run_cli(["compute", "--input", str(path4), "--method", "qsim_tree",
                              "--edge", "1,2", "--out", str(paths["--out"]),
                              "--trace", str(paths["--trace"])], capsys)
    assert (code, out) == (2, "")
    assert f"config error: cannot write {bad} {str(paths[bad])!r}" in err
    # the input, and the refused directory or link, are all there is
    assert {p.name for p in tmp_path.iterdir()} <= {path4.name, "sub", "loop"}
    assert apsp == []


FLOAT_TRIANGLE = "0 1 1.5\n1 2 2.5\n0 2 3.0\n"


@pytest.mark.parametrize("method", ["lp", "assignment", "brute_force"])
def test_float_graph_gives_float_w1_for_every_classical_method(tmp_path, capsys, method):
    # X = Y = {2}: the cost block is the diagonal d(2, 2), a float zero in
    # a float graph, so every solver reads only floats and reports floats
    graph = tmp_path / "triangle.txt"
    graph.write_text(FLOAT_TRIANGLE)
    code, out, _ = run_cli(["compute", "--input", str(graph), "--numeric", "float",
                            "--method", method, "--edge", "0,1"], capsys)
    assert code == 0
    assert '"w1": 0.0,' in out and '"curvature": 1.0,' in out
    rec = json.loads(out)["records"][0]
    assert type(rec["w1"]) is float and type(rec["curvature"]) is float


def test_fixture_dir_that_cannot_be_created_is_config_error(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    target = blocker / "sub"
    code, out, err = run_cli(["fixture", "path4", "--dir", str(target)], capsys)
    assert code == 2
    assert out == ""
    assert "cannot write --dir" in err and str(target) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["--edge", "0,1"], ["--all-edges"], ["--include-endpoints"]],
                         ids=["edge", "all-edges", "include-endpoints"])
def test_graph_options_refused_for_cost_matrix(tmp_path, capsys, argv):
    fixture = tmp_path / "c.json"
    fixture.write_text(json.dumps({"cost": [[1, 2], [2, 1]], "dxy": 1}))
    code, out, err = run_cli(["compute", "--format", "cost_matrix", "--method", "lp",
                              "--input", str(fixture), *argv], capsys)
    assert code == 2
    assert out == ""
    assert f"{argv[0]} needs a graph input" in err


def test_edge_selector_required(path4, capsys):
    code, _, err = run_cli(["compute", "--input", str(path4), "--method", "tree"],
                           capsys)
    assert code == 2


def test_unknown_edge_is_config_error(path4, capsys):
    code, _, err = run_cli(["compute", "--input", str(path4),
                            "--method", "tree", "--edge", "0,3"], capsys)
    assert code == 2


def test_bad_argparse_usage_returns_2(capsys):
    assert main(["compute", "--method", "lp"]) == 2  # --input missing
    capsys.readouterr()


def test_dimension_cap_is_solver_error(tmp_path, capsys):
    fixture = tmp_path / "sq.json"
    fixture.write_text(json.dumps({"cost": [[1, 2], [3, 4]], "dxy": 1}))
    code, _, err = run_cli(["compute", "--input", str(fixture),
                            "--format", "cost_matrix", "--method", "qsim_pq",
                            "--cap", "2"], capsys)
    assert code == 3
    assert "solver error" in err


def test_report_determinism(path4, tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for out in (out1, out2):
        code, _, _ = run_cli(["compute", "--input", str(path4),
                              "--method", "qsim_tree", "--edge", "1,2",
                              "--seed", "7", "--shots", "1000",
                              "--out", str(out)], capsys)
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_report_roundtrip_schema(path4, capsys):
    code, out, _ = run_cli(["compute", "--input", str(path4),
                            "--method", "lp", "--all-edges"], capsys)
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"meta", "records"}
    assert report["meta"]["version"]
    assert report["meta"]["config"]["method"] == "lp"
    for rec in report["records"]:
        assert {"x", "y", "p", "q", "w1", "dxy", "curvature", "method"} <= set(rec)


def test_compare_echoes_only_its_own_options(path4, capsys):
    code, out, _ = run_cli(["compare", "--input", str(path4), "--all-edges"], capsys)
    assert code == 0
    config = json.loads(out)["meta"]["config"]
    assert "method" not in config
    assert config["qsim_method"] == "auto"
    assert config["tol"] == 1e-8


def test_csv_output(path4, capsys):
    code, out, _ = run_cli(["compute", "--input", str(path4),
                            "--method", "tree", "--edge", "1,2",
                            "--out-format", "csv"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["w1"] == "3"
    assert rows[0]["curvature"] == "-2"


def test_compare_csv_has_the_comparison_columns(path4, capsys):
    code, out, _ = run_cli(["compare", "--input", str(path4), "--all-edges",
                            "--out-format", "csv"], capsys)
    assert code == 0
    reader = csv.DictReader(io.StringIO(out))
    assert reader.fieldnames == ["x", "y", "p", "q", "w1", "dxy", "curvature", "method",
                                 "w1_classical", "w1_qsim", "abs_diff", "rel_diff", "tol",
                                 "within_tol"]
    (row,) = list(reader)
    assert (row["x"], row["y"], row["method"]) == ("1", "2", "qsim_tree")
    assert row["w1_classical"] == "3" and float(row["w1_qsim"]) == pytest.approx(3.0)
    assert (row["tol"], row["within_tol"]) == ("1e-08", "True")


def test_reversed_edge_is_the_same_edge_seen_from_its_other_end(path4, capsys):
    code, out, _ = run_cli(["compute", "--input", str(path4),
                            "--method", "tree", "--edge", "2,1"], capsys)
    assert code == 0
    rec = json.loads(out)["records"][0]
    assert (rec["x"], rec["y"], rec["p"], rec["q"]) == (2, 1, 1, 1)
    assert (rec["w1"], rec["curvature"]) == (3, -2)


def test_json_graph_in_float_mode_has_float_weights(tmp_path, capsys):
    # the int weight 1, the default weight and the float 2.5 all become floats
    path = tmp_path / "g.json"
    path.write_text('{"n": 4, "edges": [[0, 1, 1], [1, 2, 2.5], [2, 3]]}')
    code, out, _ = run_cli(["compute", "--input", str(path), "--format", "json",
                            "--numeric", "float", "--edge", "1,2"], capsys)
    assert code == 0
    assert '"w1": 4.5,' in out and '"dxy": 2.5,' in out
    rec = json.loads(out)["records"][0]
    assert type(rec["w1"]) is float and rec["curvature"] == pytest.approx(-0.8)
    # an int weight no float can hold is refused in float mode
    path.write_text('{"n": 2, "edges": [[0, 1, %d]]}' % 10 ** 400)
    code, out, err = run_cli(["compute", "--input", str(path), "--format", "json",
                              "--numeric", "float", "--edge", "0,1"], capsys)
    assert (code, out) == (2, "")
    assert "does not fit a float" in err


def test_compare_tree_ok(path4, capsys):
    code, out, _ = run_cli(["compare", "--input", str(path4), "--all-edges",
                            "--tol", "1e-8"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["qsim_method"] == "qsim_tree"
    assert report["summary"]["classical_method"] == "tree"
    assert report["summary"]["max_abs_diff"] <= 1e-8
    assert "w1_classical" in report["records"][0]


def test_compare_square_fixture(tmp_path, capsys):
    fixture = tmp_path / "sq.json"
    fixture.write_text(json.dumps({"cost": [[1, 2], [3, 4]], "dxy": 1}))
    code, out, _ = run_cli(["compare", "--input", str(fixture),
                            "--format", "cost_matrix", "--seed", "1",
                            "--tol", "1e-6"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["qsim_method"] == "qsim_pq"
    assert report["records"][0]["w1_classical"] == "5/2"


def test_compare_small_gap_block_meets_default_tol(tmp_path, capsys):
    # the (17, 22) block of the pq_mixed inputs at seed 1 has a gap of
    # 1.02: successive Rayleigh quotients agree within --eps while W1 is
    # still 2.1e-8 off, beyond the default --tol 1e-8
    fixture = tmp_path / "gap.json"
    fixture.write_text(json.dumps({"cost": [
        [3, 7, 12, 7, 6, 7], [14, 9, 14, 15, 13, 10], [12, 8, 11, 11, 10, 10],
        [11, 8, 14, 11, 14, 11], [10, 6, 11, 13, 8, 10], [16, 11, 11, 16, 13, 15]],
        "dxy": 1}))
    code, out, _ = run_cli(["compare", "--input", str(fixture), "--format", "cost_matrix",
                            "--qsim-method", "qsim_pq"], capsys)
    record = json.loads(out)["records"][0]
    assert record["diagnostics"]["converged"]
    assert record["w1_classical"] == "17/2"
    assert record["abs_diff"] <= 1e-9
    assert code == 0


def test_compare_corrupted_alpha_fails(path4, capsys, monkeypatch):
    # cli reads build_distance_encoding through qpipeline, on a qsim route only
    corrupt_encoding(monkeypatch, orcurv.qpipeline, 1.02)
    code, out, _ = run_cli(["compare", "--input", str(path4), "--all-edges"], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["summary"]["max_abs_diff"] > 1e-8
    assert not report["summary"]["within_tol"]


def test_compare_shot_noise_uses_se_tolerance(path4, capsys):
    code, out, _ = run_cli(["compare", "--input", str(path4), "--all-edges",
                            "--seed", "11", "--shots", "1000000"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["records"][0]["tol"] > 1e-8  # 5 SE dominates


def test_trace_output(path4, tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    code, _, _ = run_cli(["compute", "--input", str(path4),
                          "--method", "qsim_tree", "--edge", "1,2",
                          "--trace", str(trace), "--out",
                          str(tmp_path / "r.json")], capsys)
    assert code == 0
    lines = [json.loads(line) for line in trace.read_text().splitlines()]
    stages = [rec["stage"] for rec in lines]
    assert "distance_encoding" in stages
    record = lines[stages.index("distance_encoding")]
    assert set(record) == {"stage", "dim", "subnorm", "min_entry", "max_entry",
                           "kappa", "alpha"}


def test_trace_is_byte_identical(tmp_path, capsys):
    graph = tmp_path / "tree.txt"
    graph.write_text("0 1\n1 2\n2 3\n3 4\n4 5\n2 6\n6 7\n")
    traces = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for trace in traces:
        code, _, _ = run_cli(["compare", "--input", str(graph), "--all-edges",
                              "--seed", "9", "--shots", "100000",
                              "--trace", str(trace), "--out", str(tmp_path / "r.json")],
                             capsys)
        assert code == 0
    assert traces[0].read_bytes() == traces[1].read_bytes()
    stages = [json.loads(line)["stage"] for line in traces[0].read_text().splitlines()]
    assert stages.count("distance_encoding") == 1
    assert stages.count("tree_recovery") == 4


#: the keys of each trace stage, extract_D<i> as extract_D: an
#: AuditTrail.record stage has {stage, dim, subnorm, min_entry, max_entry}
#: and its extras, an AuditTrail.note stage its fields
_ENCODING_KEYS = {"stage", "dim", "subnorm", "min_entry", "max_entry"}
_TRACE_KEYS = {
    "distance_encoding": _ENCODING_KEYS | {"kappa", "alpha"},
    "tree_overlap": {"stage", "center", "p", "overlap_unit", "overlap_p1", "recovered_sum"},
    "tree_recovery": {"stage", "x_sum", "y_sum", "dxy", "w1"},
    "localize_DG": _ENCODING_KEYS | {"p"},
    "extract_D": _ENCODING_KEYS,
    "build_DP": _ENCODING_KEYS | {"support"},
    "build_Pi[direct]": _ENCODING_KEYS | {"support", "rank"},
    "composite": _ENCODING_KEYS | {"support"},
    "min_eigen_power": {"stage", "value", "iterations", "initial_overlap", "gap_proxy",
                        "converged"},
}


@pytest.mark.parametrize("text, method, stages", [
    ("0 1\n1 2\n2 3\n3 4\n4 5\n2 6\n6 7\n", "qsim_tree",
     {"distance_encoding", "tree_overlap", "tree_recovery"}),
    # weighted K_{3,3}: every edge has p = q = 2
    ("0 3 1\n0 4 2\n0 5 3\n1 3 2\n1 4 1\n1 5 2\n2 3 3\n2 4 2\n2 5 1\n", "qsim_pq",
     set(_TRACE_KEYS) - {"tree_overlap", "tree_recovery"}),
], ids=["qsim_tree", "qsim_pq"])
def test_trace_records_have_exactly_their_stage_keys(tmp_path, capsys, text, method,
                                                     stages):
    # every stage orc runs is exact, so no record carries an err: the error
    # quantities are the eigenvalue's and the shots', not an encoding's
    graph = tmp_path / "g.txt"
    graph.write_text(text)
    trace = tmp_path / "trace.jsonl"
    code, _, _ = run_cli(["compute", "--input", str(graph), "--method", method,
                          "--all-edges", "--trace", str(trace)], capsys)
    assert code == 0
    records = [strict_json(line) for line in trace.read_text().splitlines()]
    assert {rec["stage"].rstrip("0123456789") for rec in records} == stages
    for rec in records:
        assert set(rec) == _TRACE_KEYS[rec["stage"].rstrip("0123456789")], rec


@pytest.mark.parametrize("text, argv", [
    ("0 1\n1 2\n2 3\n", ["--edge", "1,2"]),    # path4: p = q = 1
    # unweighted K_{3,3}: each cost block is all ones, so every permutation sums to 2
    ("".join(f"{u} {v}\n" for u in range(3) for v in range(3, 6)), ["--all-edges"]),
], ids=["path4", "k33"])
def test_infinite_gap_is_written_as_null(tmp_path, capsys, text, argv):
    # with no second eigenvalue the gap is infinite, which JSON cannot
    # hold; report and trace both write it as null
    graph = tmp_path / "g.txt"
    graph.write_text(text)
    trace = tmp_path / "trace.jsonl"
    code, out, _ = run_cli(["compute", "--input", str(graph), "--method", "qsim_pq",
                            *argv, "--trace", str(trace)], capsys)
    assert code == 0
    gaps = [rec["diagnostics"]["gap_proxy"] for rec in strict_json(out)["records"]]
    assert gaps and all(gap is None for gap in gaps)
    notes = [rec for rec in map(strict_json, trace.read_text().splitlines())
             if rec["stage"] == "min_eigen_power"]
    assert [rec["gap_proxy"] for rec in notes] == gaps


def _spy(monkeypatch, module, name):
    """Count calls of module.name through every orcurv binding of it."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in (orcurv.cli, orcurv.graph, orcurv.qpipeline):
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("text, argv", [
    ("0 1\n1 2\n2 3\n3 4\n4 5\n2 6\n6 7\n", ["--shots", "100000"]),
    ("".join(f"{u} {v}\n" for u in range(3) for v in range(3, 6)),  # K_{3,3}: p = q = 2
     ["--qsim-method", "qsim_pq"]),
], ids=["qsim_tree-shots", "qsim_pq"])
def test_compare_builds_each_neighborhood_and_encoding_once(tmp_path, capsys, monkeypatch,
                                                            text, argv):
    graph = tmp_path / "g.txt"
    graph.write_text(text)
    neighborhoods = _spy(monkeypatch, orcurv.graph, "neighborhood")
    encodings = _spy(monkeypatch, orcurv.qpipeline, "build_distance_encoding")
    code, out, _ = run_cli(["compare", "--input", str(graph), "--all-edges",
                            "--seed", "4", *argv], capsys)
    assert code == 0
    records = json.loads(out)["records"]
    assert len(records) >= 4
    assert len(neighborhoods) == len(records)
    assert len(encodings) == 1


PATH4 = "0 1\n1 2\n2 3\n"
TRIANGLE_WITH_TAILS = "0 1\n1 2\n0 2\n1 3\n2 4\n"    # not a tree
SQUARE = "0 1\n1 2\n2 3\n3 0\n"    # not a tree, so compare takes the qsim_pq route


@pytest.mark.parametrize("text, argv, message", [
    *[(PATH4, ["compute", "--edge", "1,2", option, value],
       f"method 'lp' {reason}; drop {option}")
      for option, value, reason in [
          ("--shots", "10", "has no shot-noise model"),
          ("--trace", "t.jsonl", "writes no audit trace"),
          ("--margin", "5", "builds no distance encoding"),
          ("--seed", "9", "draws no random numbers"),
          ("--eps", "0.1", "runs no power iteration"),
          ("--cap", "3", "has no dimension cap")]],
    (PATH4, ["compute", "--method", "qsim_tree", "--edge", "1,2", "--eps", "0.1"],
     "method 'qsim_tree' runs no power iteration; drop --eps"),
    (SQUARE, ["compare", "--all-edges", "--shots", "10"],
     "method 'qsim_pq' has no shot-noise model; drop --shots"),
    (PATH4, ["compute", "--method", "qsim_tree", "--edge", "1,2", "--seed", "7"],
     "method 'qsim_tree' draws no random numbers without --shots; drop --seed"),
    (TRIANGLE_WITH_TAILS, ["compute", "--method", "tree", "--edge", "1,2"],
     "NotATree: method 'tree' needs a tree graph"),
    (TRIANGLE_WITH_TAILS, ["compute", "--method", "qsim_tree", "--edge", "1,2"],
     "NotATree: method 'qsim_tree' needs a tree graph"),
    (TRIANGLE_WITH_TAILS, ["compare", "--qsim-method", "qsim_tree", "--edge", "1,2"],
     "NotATree: method 'tree' needs a tree graph"),
    (PATH4, ["compute", "--edge", "0,3"], "(0, 3) is not an edge of the input graph"),
    (PATH4, ["compute", "--edge", "1,2", "--all-edges"],
     "use either --edge or --all-edges, not both"),
    (PATH4, ["compute"], "select edges with --edge u,v or --all-edges"),
    (PATH4, ["compute", "--edge", "1-2"], "--edge expects 'u,v', got '1-2'"),
    (PATH4, ["compute", "--edge", "a,b"], "--edge expects integers, got 'a,b'"),
    ("0 1\n", ["compute", "--all-edges"], "no edges with nonempty neighborhoods to process"),
    (PATH4, ["compute", "--edge", "1,2", "--out", ""],
     "--out must be a path for the report, got ''"),
    (PATH4, ["compute", "--all-edges", "--shots", "0"],
     "--shots must be an integer in [1, 2^63 - 1], got 0"),
    (PATH4, ["compare", "--all-edges", "--tol", "-1"],
     "--tol must be a finite number >= 0, got -1.0"),
], ids=["lp-shots", "lp-trace", "lp-margin", "lp-seed", "lp-eps", "lp-cap",
        "qsim_tree-eps", "qsim_pq-shots", "qsim_tree-seed-without-shots", "tree-non-tree",
        "qsim_tree-non-tree", "compare-tree-non-tree", "unknown-edge",
        "edge-and-all-edges", "no-edge-selector", "edge-without-comma", "edge-not-integers",
        "all-edges-all-leaves", "empty-out", "shots-out-of-range", "tol-out-of-range"])
def test_configuration_errors_come_before_any_distance_work(tmp_path, capsys, monkeypatch,
                                                            text, argv, message):
    graph = tmp_path / "g.txt"
    graph.write_text(text)
    apsp = _spy(monkeypatch, orcurv.graph, "all_pairs_geodesic")
    neighborhoods = _spy(monkeypatch, orcurv.graph, "neighborhood")
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli([*argv, "--input", str(graph)], capsys)
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == f"orc: config error: {message}"
    assert apsp == [] and neighborhoods == []


DOUBLE_STAR = "0 1\n0 2\n0 3\n3 4\n3 5\n"    # a tree; its one internal edge has p = q = 2


@pytest.mark.parametrize("text, argv, apsp_calls", [
    *[(DOUBLE_STAR, ["compute", "--method", method], 0)
      for method in ("tree", "lp", "assignment", "brute_force")],
    (DOUBLE_STAR, ["compute", "--method", "lp", "--include-endpoints"], 0),
    (DOUBLE_STAR, ["compare"], 1),
    (DOUBLE_STAR, ["compute", "--method", "qsim_tree"], 1),
    (TRIANGLE_WITH_TAILS, ["compute", "--method", "lp"], 1),
], ids=["tree", "lp", "assignment", "brute_force", "lp-include-endpoints", "compare",
        "qsim_tree", "lp-non-tree"])
def test_only_qsim_routes_and_non_trees_compute_all_pairs_distances(tmp_path, capsys,
                                                                    monkeypatch, text, argv,
                                                                    apsp_calls):
    graph = tmp_path / "g.txt"
    graph.write_text(text)
    apsp = _spy(monkeypatch, orcurv.graph, "all_pairs_geodesic")
    code, out, _ = run_cli([*argv, "--input", str(graph), "--all-edges"], capsys)
    assert code == 0 and json.loads(out)["records"]
    assert len(apsp) == apsp_calls


class _FullStream(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("argv, what", [
    (["compute", "--edge", "1,2"], "the report"),
    (["compute", "--edge", "1,2", "--out-format", "csv"], "the report"),
    (["compare", "--all-edges"], "the report"),
    (["fixture", "star"], "the fixture path"),
], ids=["json", "csv", "compare", "fixture"])
def test_output_that_stdout_cannot_take_is_config_error(path4, capsys, monkeypatch, argv,
                                                        what):
    where = ["--dir", str(path4.parent)] if argv[0] == "fixture" else ["--input", str(path4)]
    for stdout, why in ((_FullStream(), f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"),
                        (None, "it is closed")):
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main([*argv, *where]) == 2
        assert capsys.readouterr().err.splitlines()[0] == (
            f"orc: config error: cannot write {what} to stdout: {why}")


@pytest.mark.parametrize("argv, code", [
    (["compute", "--edge", "1,2"], 0),
    (["compute", "--edge", "1,2", "--seed", "1"], 2),
    (["compute", "--edge", "0,1"], 3),
], ids=["ok", "config-error", "solver-error"])
def test_a_stderr_that_cannot_take_a_line_changes_no_exit_code(path4, capsys, monkeypatch,
                                                               argv, code):
    # the `orc:` lines are lost; the exit code is not, and stdout holds the
    # report alone (print to a None stderr would have written to stdout)
    argv = [*argv, "--input", str(path4)]
    want, report, _ = run_cli(argv, capsys)
    assert want == code and (report != "") == (code == 0)
    for stderr in (_FullStream(), None):
        monkeypatch.setattr(sys, "stderr", stderr)
        assert main(argv) == code
        assert capsys.readouterr().out == report


def test_leaf_edge_with_a_refused_option_is_config_error(path4, capsys):
    # settling comes before the neighborhoods, so the refusal wins over
    # the empty neighborhood of the leaf edge (0, 1), which alone exits 3
    code, _, err = run_cli(["compute", "--input", str(path4), "--edge", "0,1"], capsys)
    assert code == 3 and "EmptyNeighborhood" in err
    code, out, err = run_cli(["compute", "--input", str(path4), "--edge", "0,1",
                              "--seed", "1"], capsys)
    assert (code, out) == (2, "")
    assert "config error: method 'lp' draws no random numbers; drop --seed" in err


@pytest.mark.parametrize("trace", ["same.json", "./sub/../same.json", "hard.trace"])
def test_out_and_trace_on_one_path_is_config_error(path4, tmp_path, capsys, monkeypatch,
                                                   trace):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    if trace == "hard.trace":    # two names of one file, both there before the run
        Path("same.json").write_text("an earlier report\n")
        try:
            os.link("same.json", "hard.trace")
        except (AttributeError, NotImplementedError, OSError) as exc:
            pytest.skip(f"cannot make a hard link: {exc}")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    code, out, err = run_cli(["compare", "--input", str(path4), "--all-edges",
                              "--out", "same.json", "--trace", trace], capsys)
    assert (code, out) == (2, "")
    assert "config error: --out and --trace both name" in err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


@pytest.mark.parametrize("option, input_name, argv", [
    ("--out", "g.txt", ["--method", "lp", "--all-edges", "--out", "g.txt"]),
    ("--trace", "g.txt", ["--method", "qsim_tree", "--edge", "1,2",
                          "--out", "report.json", "--trace", "g.txt"]),
    ("--out", "link.txt", ["--method", "lp", "--all-edges", "--out", "g.txt"]),
    ("--out", "hard.txt", ["--method", "lp", "--all-edges", "--out", "g.txt"]),
    ("--out", "cost.json", ["--format", "cost_matrix", "--method", "lp",
                            "--out", "cost.json"]),
], ids=["out", "trace", "symlink", "hard-link", "cost-matrix"])
def test_output_path_naming_the_input_is_config_error(tmp_path, capsys, monkeypatch,
                                                      option, input_name, argv):
    # refused while settling: the input keeps its bytes and no file is written
    monkeypatch.chdir(tmp_path)
    Path("g.txt").write_text("0 1\n1 2\n2 3\n")
    Path("cost.json").write_text(json.dumps({"cost": [[1, 2], [2, 1]], "dxy": 1}))
    try:
        if input_name == "link.txt":
            os.symlink("g.txt", "link.txt")
        elif input_name == "hard.txt":
            os.link("g.txt", "hard.txt")
    except (AttributeError, NotImplementedError, OSError) as exc:
        pytest.skip(f"cannot make {input_name}: {exc}")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    code, out, err = run_cli(["compute", "--input", input_name, *argv], capsys)
    assert (code, out) == (2, "")
    path = argv[argv.index(option) + 1]
    assert f"config error: cannot write {option} {path!r}: it is the input file" in err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_empty_trace_path_is_config_error(path4, capsys):
    code, out, err = run_cli(["compute", "--input", str(path4), "--method", "qsim_tree",
                              "--edge", "1,2", "--trace", ""], capsys)
    assert (code, out) == (2, "")
    assert "config error: --trace must be a path" in err


def test_qsim_tree_on_non_tree_is_config_error(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("0 1\n1 2\n0 2\n1 3\n2 4\n")
    code, _, err = run_cli(["compute", "--input", str(graph),
                            "--method", "qsim_tree", "--edge", "1,2"], capsys)
    assert code == 2
    assert "NotATree" in err


def test_tree_on_non_tree_is_config_error(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("0 1\n1 2\n0 2\n1 3\n2 4\n")
    code, _, err = run_cli(["compute", "--input", str(graph),
                            "--method", "tree", "--edge", "1,2"], capsys)
    assert code == 2
    assert "NotATree" in err


def test_qsim_pq_refuses_shots(tmp_path, capsys):
    fixture = tmp_path / "sq.json"
    fixture.write_text(json.dumps({"cost": [[1, 2], [3, 4]], "dxy": 1}))
    code, out, err = run_cli(["compute", "--input", str(fixture),
                              "--format", "cost_matrix", "--method", "qsim_pq",
                              "--shots", "10"], capsys)
    assert code == 2
    assert out == ""
    assert "--shots" in err


@pytest.mark.parametrize("route", [[], ["--qsim-method", "qsim_pq"]])
def test_compare_pq_route_refuses_shots(tmp_path, capsys, route):
    graph = tmp_path / "cycle.txt"
    graph.write_text("0 1\n1 2\n2 3\n3 0\n")
    code, out, err = run_cli(["compare", "--input", str(graph), "--all-edges",
                              "--shots", "10", *route], capsys)
    assert code == 2
    assert out == ""
    assert "--shots" in err


#: an in-range value of each qsim option
QSIM_OPTION_VALUES = {"--shots": "10", "--trace": "t.jsonl", "--margin": "5",
                      "--eps": "0.1", "--seed": "9", "--cap": "3"}


def _qsim_option_argv(tmp_path, option):
    value = QSIM_OPTION_VALUES[option]
    return [option, str(tmp_path / value) if option == "--trace" else value]


@pytest.mark.parametrize("option", list(QSIM_OPTION_VALUES))
@pytest.mark.parametrize("method", ["lp", "tree", "assignment", "brute_force"])
def test_classical_compute_refuses_qsim_options(path4, tmp_path, capsys, method, option):
    # every method runs on path4's edge (1, 2); none of them reads these options
    code, out, err = run_cli(["compute", "--input", str(path4), "--method", method,
                              "--edge", "1,2", *_qsim_option_argv(tmp_path, option)], capsys)
    assert code == 2
    assert out == ""
    assert f"config error: method {method!r}" in err and f"drop {option}" in err
    assert not (tmp_path / "t.jsonl").exists()


@pytest.mark.parametrize("command", [["compute", "--method", "qsim_tree"], ["compare"]],
                         ids=["compute", "compare"])
@pytest.mark.parametrize("option", ["--eps", "--cap"])
def test_tree_route_refuses_power_stage_options(path4, tmp_path, capsys, command, option):
    # only the p = q route has a power iteration and a p^p dimension cap
    code, out, err = run_cli([*command, "--input", str(path4), "--edge", "1,2",
                              *_qsim_option_argv(tmp_path, option)], capsys)
    assert code == 2
    assert out == ""
    assert "config error: method 'qsim_tree'" in err and f"drop {option}" in err


@pytest.mark.parametrize("command", [["compute", "--method", "qsim_tree"], ["compare"]],
                         ids=["compute", "compare"])
def test_tree_route_refuses_seed_without_shots(path4, capsys, command):
    # exact overlaps draw no random numbers, so the seed would have no effect
    argv = [*command, "--input", str(path4), "--edge", "1,2", "--seed", "7"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert "config error: method 'qsim_tree'" in err and "drop --seed" in err
    code, out, _ = run_cli([*argv, "--shots", "100000"], capsys)
    assert code == 0
    assert json.loads(out)["meta"]["config"]["seed"] == 7


@pytest.mark.parametrize("option", ["--margin", "--seed", "--eps", "--cap"])
def test_qsim_pq_reads_the_options_it_echoes(tmp_path, capsys, option):
    square = tmp_path / "sq.json"
    square.write_text(json.dumps({"cost": [[7]], "dxy": 2}))    # p^p = 1 <= --cap 3
    argv = ["compute", "--input", str(square), "--format", "cost_matrix",
            "--method", "qsim_pq"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    defaults = json.loads(out)["meta"]["config"]
    assert (defaults["margin"], defaults["eps"], defaults["seed"], defaults["cap"]) == \
        (0.05, 1e-10, 0, 10 ** 6)
    value = QSIM_OPTION_VALUES[option]
    code, out, _ = run_cli([*argv, option, value], capsys)
    assert code == 0
    assert json.loads(out)["meta"]["config"][option[2:]] == \
        type(defaults[option[2:]])(value)


def test_qsim_option_defaults_are_the_library_defaults():
    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    cli = {option: spec[-1] for option, spec in orcurv.cli._QSIM_OPTIONS.items()}
    assert cli["--margin"] == default(orcurv.qpipeline.build_distance_encoding, "margin")
    assert cli["--eps"] == default(orcurv.qpipeline.w1_pq_qsim, "eps")
    assert cli["--cap"] == default(orcurv.qpipeline.w1_pq_qsim, "dim_cap")
    # the one exception: `orc` seeds 0 so that a run without --seed is
    # reproducible, the library's None draws fresh OS entropy
    assert cli["--seed"] == 0
    assert default(orcurv.qpipeline.w1_pq_qsim, "seed") is None


def test_out_of_range_shot_estimate_is_solver_error(path4, capsys):
    # one shot per overlap: each overlap reads +-1, and this seed drives
    # the d(x, y) estimate negative
    code, out, err = run_cli(["compute", "--input", str(path4),
                              "--method", "qsim_tree", "--edge", "1,2",
                              "--shots", "1", "--seed", "0"], capsys)
    assert code == 3
    assert out == ""
    assert "EstimateOutOfRange" in err and "edge (1, 2)" in err
    assert err.count("edge (1, 2)") == 1


def test_zero_cost_permutation_is_solver_error(tmp_path, capsys):
    # X = Y makes the minimum permutation sum 0, which the power stage
    # cannot see; the run fails typed instead of printing the next sum
    graph = tmp_path / "k4.txt"
    graph.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out, err = run_cli(["compare", "--input", str(graph), "--edge", "0,1",
                              "--qsim-method", "qsim_pq", "--seed", "0"], capsys)
    assert code == 3
    assert out == ""
    assert "SpectrumOutOfRange" in err and "edge (0, 1)" in err
    assert err.count("edge (0, 1)") == 1
    fixture = tmp_path / "swap.json"
    fixture.write_text(json.dumps({"cost": [[0, 1], [1, 0]], "dxy": 1}))
    code, out, err = run_cli(["compute", "--input", str(fixture), "--format", "cost_matrix",
                              "--method", "qsim_pq"], capsys)
    assert code == 3
    assert out == ""
    assert "SpectrumOutOfRange" in err and "sums to 0" in err
    assert "(-1, -1)" not in err


def test_unseeded_runs_are_reproducible(tmp_path, capsys):
    fixture = tmp_path / "c3.json"
    fixture.write_text(json.dumps({"cost": [[1, 2, 3], [2, 1, 3], [3, 3, 1]], "dxy": 1}))
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(["compute", "--input", str(fixture), "--format", "cost_matrix",
                                "--method", "qsim_pq"], capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["meta"]["config"]["seed"] == 0


def test_qsim_pq_report_is_the_same_on_any_openblas_thread_count(tmp_path):
    # p = 8: the power stage's start has 8! = 40 320 entries, long enough
    # for OpenBLAS to split its norm across threads and round it otherwise
    rng = random.Random(5)
    graph = tmp_path / "k99.txt"
    graph.write_text("".join(f"{u} {v} {rng.randint(1, 9)}\n"
                             for u in range(9) for v in range(9, 18)))
    code = ("import os, sys, orcurv.cli\n"
            "code = orcurv.cli.main(sys.argv[1:])\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'])\n"
            "sys.exit(code)\n")
    src = str(Path(orcurv.cli.__file__).parents[1])
    reports = []
    for threads in ("4", "1"):
        out = tmp_path / f"threads-{threads}.json"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", code, "compute", "--input", str(graph), "--method", "qsim_pq",
             "--edge", "0,9", "--cap", "20000000", "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout) == (0, "1\n"), proc.stderr
        reports.append(out.read_text())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("option, value", [
    ("--shots", "0"), ("--shots", "-5"), ("--shots", str(2 ** 63)),
    ("--margin", "-1"), ("--margin", "nan"), ("--margin", "inf"),
    ("--seed", "-1"),
    ("--eps", "0"), ("--eps", "-0.5"), ("--eps", "nan"), ("--eps", "1e-17"),
    ("--cap", "0"),
    ("--tol", "-1"), ("--tol", "nan"),
])
def test_out_of_range_numeric_option_is_config_error(path4, capsys, option, value):
    code, out, err = run_cli(["compare", "--input", str(path4), "--all-edges",
                              option, value], capsys)
    assert code == 2
    assert out == ""
    assert f"config error: {option} must be" in err


def test_negative_seed_refused_for_qsim_pq(tmp_path, capsys):
    square = tmp_path / "sq.json"
    square.write_text(json.dumps({"cost": [[1, 2], [3, 4]], "dxy": 1}))
    code, out, err = run_cli(["compute", "--input", str(square), "--format", "cost_matrix",
                              "--method", "qsim_pq", "--seed", "-1"], capsys)
    assert code == 2
    assert "--seed must be" in err


def test_eps_at_float_resolution_is_accepted(tmp_path, capsys):
    square = tmp_path / "sq.json"
    square.write_text(json.dumps({"cost": [[1, 2], [3, 4]], "dxy": 1}))
    code, out, _ = run_cli(["compute", "--input", str(square), "--format", "cost_matrix",
                            "--method", "qsim_pq", "--eps", repr(2.0 ** -52)], capsys)
    assert code == 0
    assert json.loads(out)["meta"]["config"]["eps"] == 2.0 ** -52


MALFORMED_COST_MATRICES = [
    {"cost": [["a", 2]], "dxy": 1},
    {"cost": [[1, 2]], "dxy": "x"},
    {"cost": 5, "dxy": 1},
    {"cost": [5, 6], "dxy": 1},
    {"cost": [[1, 2], [3]], "dxy": 1},
    {"cost": [[True, 2]], "dxy": 1},
    {"cost": [[1, 2]], "dxy": False},
    {"cost": [[1, -2]], "dxy": 1},
    {"cost": [[1, 2]], "dxy": None},
]
MALFORMED_COST_MATRIX_IDS = ["str-entry", "str-dxy", "int-cost", "flat-rows", "ragged",
                             "bool-entry", "bool-dxy", "negative-entry", "null-dxy"]


@pytest.mark.parametrize("fixture", MALFORMED_COST_MATRICES, ids=MALFORMED_COST_MATRIX_IDS)
@pytest.mark.parametrize("numeric", ["rational", "float"])
def test_malformed_cost_matrix_is_config_error(tmp_path, capsys, fixture, numeric):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(fixture))
    code, out, err = run_cli(["compute", "--input", str(path), "--format", "cost_matrix",
                              "--method", "lp", "--numeric", numeric], capsys)
    assert code == 2
    assert out == ""
    assert "config error" in err


NON_FINITE_COST_MATRICES = [
    ('{"cost": [[1, %s], [2, 3]], "dxy": 1}' % v, "rational", "is not finite")
    for v in ("NaN", "Infinity", "-Infinity")
] + [
    ('{"cost": [[1, 2], [2, 3]], "dxy": %s}' % v, "rational", "is not finite")
    for v in ("NaN", "Infinity", "-Infinity")
] + [
    ('{"cost": [[1, 2], [2, 3]], "dxy": 1e400}', "float", "is not finite"),
    ('{"cost": [[1, 1e400], [2, 3]], "dxy": 1}', "float", "is not finite"),
    # an integer literal parses exactly, then cannot become a float
    ('{"cost": [[%d, 1], [2, 3]], "dxy": 1}' % 10 ** 400, "float",
     "cost-matrix entry too large for float mode"),
]
NON_FINITE_COST_MATRIX_IDS = ["cost-nan", "cost-inf", "cost-neg-inf", "dxy-nan", "dxy-inf",
                              "dxy-neg-inf", "dxy-1e400-float", "cost-1e400-float",
                              "cost-int-1e400-float"]


@pytest.mark.parametrize("text, numeric, message", NON_FINITE_COST_MATRICES,
                         ids=NON_FINITE_COST_MATRIX_IDS)
def test_non_finite_cost_matrix_is_config_error(tmp_path, capsys, text, numeric, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run_cli(["compute", "--input", str(path), "--format", "cost_matrix",
                              "--method", "lp", "--numeric", numeric], capsys)
    assert code == 2
    assert out == ""
    assert "config error" in err and message in err


# the library loader refuses the same fixtures with a typed OrcError, which
# the CLI maps to exit 2; never a TypeError or ValueError
@pytest.mark.parametrize("fixture", MALFORMED_COST_MATRICES, ids=MALFORMED_COST_MATRIX_IDS)
@pytest.mark.parametrize("numeric", ["rational", "float"])
def test_load_cost_matrix_refuses_malformed_fixture(fixture, numeric):
    with pytest.raises((ParseError, InvalidWeight)):
        load_cost_matrix(json.dumps(fixture), numeric)


@pytest.mark.parametrize("text, numeric, message", NON_FINITE_COST_MATRICES,
                         ids=NON_FINITE_COST_MATRIX_IDS)
def test_load_cost_matrix_refuses_non_finite_number(text, numeric, message):
    with pytest.raises(InvalidWeight, match=message):
        load_cost_matrix(text, numeric)


@pytest.mark.parametrize("graph", [
    {"n": 3, "edges": 5},
    {"n": 3, "edges": {"0": 1}},
    {"n": True, "edges": [[0, 1]]},
    {"n": 3, "edges": [[0, 1, "w"]]},
    {"n": 4, "edges": [[0, True], [True, 2], [2, 3]]},
], ids=["int-edges", "dict-edges", "bool-n", "str-weight", "bool-vertex"])
@pytest.mark.parametrize("numeric", ["rational", "float"])
def test_malformed_json_graph_is_config_error(tmp_path, capsys, graph, numeric):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph))
    code, out, err = run_cli(["compute", "--input", str(path), "--format", "json",
                              "--edge", "0,1", "--numeric", numeric], capsys)
    assert code == 2
    assert out == ""
    assert "cannot parse input" in err


@pytest.mark.parametrize("method", ["lp", "tree", "assignment", "brute_force"])
def test_weight_beyond_float_range_is_exact(tmp_path, capsys, method):
    # a rational path whose one weight no float can hold
    path = tmp_path / "big.txt"
    path.write_text("0 1 1e400\n1 2\n2 3\n")
    code, out, err = run_cli(["compute", "--input", str(path), "--method", method,
                              "--edge", "1,2"], capsys)
    assert code == 0, err
    rec = json.loads(out)["records"][0]
    assert rec["w1"] == 10 ** 400 + 2
    assert rec["curvature"] == -(10 ** 400) - 1


@pytest.mark.parametrize("argv, text", [
    (["compute", "--method", "qsim_tree", "--edge", "1,2"], "0 1 1e400\n1 2\n2 3\n"),
    (["compute", "--method", "qsim_pq", "--edge", "1,2"], "0 1 1e400\n1 2\n2 3\n"),
    (["compare", "--edge", "1,2"], "0 1 1e400\n1 2\n2 3\n"),
    (["compute", "--method", "qsim_pq", "--format", "cost_matrix"],
     '{"cost": [[1e400, 2], [1, 1]], "dxy": 1}'),
    # each distance fits a float, but a fourth power of the encoding does not
    (["compute", "--method", "qsim_tree", "--edge", "1,2", "--margin", "1e100"],
     "0 1\n1 2\n2 3\n"),
    (["compare", "--edge", "1,2", "--margin", "1e308"], "0 1\n1 2\n2 3\n"),
    (["compute", "--method", "qsim_tree", "--edge", "1,2"], "0 1 1e80\n1 2\n2 3\n"),
    (["compute", "--method", "qsim_tree", "--edge", "1,2"], "0 1 1e-90\n1 2\n2 3\n"),
    (["compute", "--method", "qsim_tree", "--edge", "1,2"],    # (min d)^4 underflows to 0
     "0 1 1e-90\n1 2 1e-80\n2 3 1e-80\n"),
], ids=["qsim_tree", "qsim_pq", "compare", "qsim_pq-cost-matrix", "encoding-margin",
        "encoding-margin-1e308", "encoding-large-weight", "encoding-weight-ratio",
        "encoding-small-weights"])
def test_weight_beyond_float_range_refused_by_qsim(tmp_path, capsys, argv, text):
    path = tmp_path / "big.in"
    path.write_text(text)
    code, out, err = run_cli(argv + ["--input", str(path)], capsys)
    assert code == 3
    assert out == ""
    assert "InfiniteDistance" in err and "float range" in err


def test_disconnected_graph_refused_by_qsim(tmp_path, capsys):
    # a 4-cycle beside an edge: d(0, 4) = +inf, which no encoding holds
    path = tmp_path / "two.txt"
    path.write_text("0 1\n1 2\n2 3\n3 0\n4 5\n")
    code, out, err = run_cli(["compute", "--input", str(path), "--method", "qsim_pq",
                              "--edge", "0,1"], capsys)
    assert code == 3
    assert out == ""
    assert "InfiniteDistance" in err and "non-finite" in err


@pytest.mark.parametrize("fmt, text", [
    ("edge_list", "0 1 1e999999999\n1 2\n"),
    ("json", '{"n": 3, "edges": [[0, 1, 1e999999999], [1, 2]]}'),
    ("cost_matrix", '{"cost": [[1e999999999, 2]], "dxy": 1}'),
    ("cost_matrix", '{"cost": [[1, 2]], "dxy": 1e-999999999}'),
], ids=["edge_list", "json", "cost_matrix", "cost_matrix-dxy"])
def test_huge_decimal_exponent_is_config_error(tmp_path, capsys, fmt, text):
    path = tmp_path / "huge.in"
    path.write_text(text)
    code, out, err = run_cli(["compute", "--input", str(path), "--format", fmt,
                              "--edge", "0,1"], capsys)
    assert code == 2
    assert out == ""
    assert "exponent" in err


@pytest.mark.parametrize("out_format", ["json", "csv"])
def test_result_beyond_int_digit_limit_is_written(tmp_path, capsys, out_format):
    # d(0, 3) = 10^4300 + 3 has 4301 digits, one past Python's default
    # int/str limit; the curvature -10^4300/3 is a Fraction of that size
    path = tmp_path / "long.txt"
    path.write_text("0 1 " + "9" * 4300 + "\n1 2 3\n2 3\n")
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(["compute", "--input", str(path), "--method", "lp",
                              "--edge", "1,2", "--out-format", out_format], capsys)
    assert code == 0, err
    assert sys.get_int_max_str_digits() == limit
    w1 = "1" + "0" * 4299 + "3"
    curv = "-1" + "0" * 4300 + "/3"
    if out_format == "json":
        assert f'"w1": {w1},' in out
        assert f'"curvature": "{curv}",' in out
    else:
        assert out.splitlines()[1] == f"1,2,1,1,{w1},3,{curv},lp"
    # ingest keeps the limit: a weight token past it is still refused
    path.write_text("0 1 " + "9" * 4301 + "\n1 2\n")
    code, out, err = run_cli(["compute", "--input", str(path), "--method", "lp",
                              "--edge", "0,1", "--out-format", out_format], capsys)
    assert code == 2 and out == ""


@pytest.mark.parametrize("argv", [[], ["--shots", "100000", "--seed", "9"]],
                         ids=["exact", "shots"])
def test_tree_compare_never_dilates_a_full_vector(tmp_path, capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("the tree pipeline built a full-dimension state")

    # the full-vector route (the embedded state and its overlap) lives in the tests
    for name in ("overlap", "be_dilate"):
        assert not hasattr(orcurv.blockenc, name)
    for name in ("uniform", "basis"):
        assert not hasattr(orcurv.blockenc.StateVector, name)
    monkeypatch.setattr(orcurv.blockenc, "dilated_apply", refuse)
    graph = tmp_path / "tree.txt"
    graph.write_text("0 1\n1 2\n2 3\n3 4\n4 5\n2 6\n6 7\n")
    code, out, _ = run_cli(["compare", "--input", str(graph), "--all-edges", *argv],
                           capsys)
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["qsim_method"] == "qsim_tree"
    assert len(report["records"]) == 4


def test_module_entry_point(tmp_path):
    fixture = tmp_path / "p.txt"
    fixture.write_text("0 1\n1 2\n2 3\n")
    # the child imports orcurv from where this process did, also when only
    # pytest's `pythonpath` setting put src/ on sys.path
    src = str(Path(orcurv.cli.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "orcurv", "compute", "--input", str(fixture),
         "--method", "tree", "--edge", "1,2"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["records"][0]["curvature"] == -2
