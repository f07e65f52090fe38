"""A classical run spread over processes writes the serial run's report.

`orc` forks only where its work passes the size gates in `cli`, which
no input of the tests reaches. So each check runs a fresh interpreter
that lowers the gates to 1, sets the CPU count `cli` picks, spies on
`os.fork` and runs a list of `orc` command lines. Their exit codes,
stdout and stderr must be those of the serial run in this process, byte
for byte, and no child may be left unreaped after any of them.
"""

import json
import threading
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

import orcurv.cli
import orcurv.spread
from helpers import fresh_python
from orcurv.cli import main
from orcurv.graph import all_pairs_geodesic, load_graph, neighborhood

#: the modules a classical run must not load, spread or not
HIDDEN = ("numpy", "dataclasses", "inspect")

#: argv[1] is {"cpus", "fork", "runs", "hidden"}: the CPU count `cli`
#: picks, what a fork does ("fork"; "mute": the child exits at once,
#: without a payload; "fail": fork raises OSError), the `orc` command
#: lines and the modules to look for. Prints one JSON object: per run its
#: exit code, stdout, stderr lines but the timing one, forks and whether
#: a child was left unreaped; then which of "hidden" the process loaded.
_SPY = """
import contextlib, errno, io, json, os, sys
import orcurv.cli

config = json.loads(sys.argv[1])
orcurv.cli._ROW_GATE = orcurv.cli._EDGE_GATE = 1
orcurv.cli._cpus = lambda: config["cpus"]
forks = []
real_fork = os.fork

def fork():
    if config["fork"] == "fail":
        raise OSError(errno.EAGAIN, "fork refused by the test")
    pid = real_fork()
    if pid == 0 and config["fork"] == "mute":
        os._exit(0)
    if pid:
        forks.append(pid)
    return pid

os.fork = fork
runs = []
for argv in config["runs"]:
    before = len(forks)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = orcurv.cli.main(argv)
    try:
        os.waitpid(-1, os.WNOHANG)
        left = True
    except ChildProcessError:
        left = False
    runs.append({"code": code, "out": out.getvalue(),
                 "err": [line for line in err.getvalue().splitlines()
                         if not line.startswith("orc: finished in")],
                 "forks": len(forks) - before, "left": left})
print(json.dumps({"runs": runs,
                  "loaded": [n for n in config["hidden"] if sys.modules.get(n)]}))
"""


def _k44(weight) -> str:
    # K_{4,4}: every edge has p = q = 3
    return "".join(f"{u} {v} {weight(u, v)}\n" for u in range(4) for v in range(4, 8))


def _mixed(weight) -> str:
    return "".join(f"{u} {v} {weight(u, v)}\n" for u in range(14) for v in range(u + 1, 14)
                   if (u * v + u + v) % 4 == 0 or v == u + 1)


def _big_edge(x: int, y: int, first_leaf: int) -> str:
    # the edge x-y, each end with ten leaves: p = q = 10, beyond brute force
    leaves = range(first_leaf, first_leaf + 20)
    return f"{x} {y}\n" + "".join(f"{x if i < 10 else y} {v}\n" for i, v in enumerate(leaves))


GRAPHS = {
    "k44.txt": _k44(lambda u, v: Fraction(u + 1, v - 2)),
    "k44-float.txt": _k44(lambda u, v: repr(0.1 * (u + 1) + 0.7 * (v - 3))),
    # 14 vertices of mixed degree, so p != q on most edges
    "mixed.txt": _mixed(lambda u, v: f"{(u * v) % 7 + 1}/{u % 3 + 1}"),
    "mixed-float.txt": _mixed(lambda u, v: repr((u * v) % 7 + 1 + 0.3 * (u % 3))),
    # float K_{3,3} beside a path whose edge 7-8 has a float curvature of -inf
    "overflow-float.txt": "".join(f"{u} {v} {0.5 + u + v}\n" for u in range(3)
                                  for v in range(3, 6))
                          + "6 7 1e200\n7 8 1e-200\n8 9 1e200\n",
    # K_{3,3} beside the two components of the edges 6-7 and 28-29
    "too-large.txt": "".join(f"{u} {v}\n" for u in range(3) for v in range(3, 6))
                     + _big_edge(6, 7, 8) + _big_edge(28, 29, 30),
}

#: --edge lists, in an order that is not the input's
SELECTED = {
    "k44.txt": ["3,7", "0,4", "1,6", "2,5", "0,7", "3,4", "1,5"],
    "mixed.txt": ["2,3", "0,1", "11,12", "1,2", "5,6", "3,4", "8,9"],
}
SELECTED.update({"k44-float.txt": SELECTED["k44.txt"], "mixed-float.txt": SELECTED["mixed.txt"]})

#: (method, numeric, input) of the spread runs
ROUTES = [
    ("lp", "rational", "mixed.txt"),
    ("lp", "float", "mixed-float.txt"),
    ("assignment", "rational", "k44.txt"),
    ("assignment", "float", "k44-float.txt"),
    ("brute_force", "rational", "k44.txt"),
    ("brute_force", "float", "k44-float.txt"),
]


def _spread_runs() -> list[list[str]]:
    runs = []
    for method, numeric, name in ROUTES:
        for select in (["--all-edges"],
                       [arg for edge in SELECTED[name] for arg in ("--edge", edge)]):
            for endpoints in ([], ["--include-endpoints"]):
                for out_format in ("json", "csv"):
                    runs.append(["compute", "--input", name, "--method", method,
                                 "--numeric", numeric, *select, *endpoints,
                                 "--out-format", out_format])
    return runs


def _too_large_run(at: dict[int, str]) -> list[str]:
    """brute_force over the nine K_{3,3} edges (p = q = 2), with each
    TooLarge edge of `at` inserted at its index."""
    order = [f"{u},{v}" for u in range(3) for v in range(3, 6)]
    for i in sorted(at):
        order.insert(i, at[i])
    return ["compute", "--input", "too-large.txt", "--method", "brute_force",
            *[arg for edge in order for arg in ("--edge", edge)]]


@pytest.fixture()
def inputs(tmp_path, monkeypatch):
    for name, text in GRAPHS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _serial(argv: list[str], capsys) -> dict:
    capsys.readouterr()
    code = main(argv)
    out, err = capsys.readouterr()
    return {"code": code, "out": out,
            "err": [line for line in err.splitlines() if not line.startswith("orc: finished in")]}


def _spy(runs: list[list[str]], cpus: int = 3, fork: str = "fork") -> dict:
    done = fresh_python(_SPY, json.dumps({"cpus": cpus, "fork": fork, "runs": runs,
                                          "hidden": HIDDEN}))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _check(spied: dict, runs: list[list[str]], capsys, forked: bool) -> None:
    assert spied["loaded"] == []
    for argv, run in zip(runs, spied["runs"], strict=True):
        assert not run["left"], argv
        assert (run["forks"] > 0) == forked, argv
        assert {k: run[k] for k in ("code", "out", "err")} == _serial(argv, capsys), argv


def test_spread_reports_equal_serial_ones(inputs, capsys):
    runs = _spread_runs()
    spied = _spy(runs)
    _check(spied, runs, capsys, forked=True)
    assert all(run["code"] == 0 and run["out"] for run in spied["runs"])
    # one fork for the rows and two for the edge loop: three shares each
    assert {run["forks"] for run in spied["runs"]} == {4}


def test_two_cpus_fork_one_child_per_stage(inputs, capsys):
    runs = [run for run in _spread_runs() if "--all-edges" in run][:4]
    spied = _spy(runs, cpus=2)
    _check(spied, runs, capsys, forked=True)
    assert {run["forks"] for run in spied["runs"]} == {2}


# three shares: of 10 edges, indices 0-2 go to the parent, 3-5 to the
# first child and 6-9 to the second; of 11, 0-2, 3-6 and 7-10
@pytest.mark.parametrize("at, first", [
    ({0: "6,7"}, "6, 7"),
    ({4: "6,7"}, "6, 7"),
    ({9: "28,29"}, "28, 29"),
    ({1: "6,7", 9: "28,29"}, "6, 7"),
    ({4: "28,29", 8: "6,7"}, "28, 29"),
], ids=["parent", "first-child", "second-child", "parent-and-child", "both-children"])
def test_first_failing_edge_in_order_decides(inputs, capsys, at, first):
    runs = [_too_large_run(at)]
    spied = _spy(runs)
    _check(spied, runs, capsys, forked=True)
    run = spied["runs"][0]
    assert (run["code"], run["out"]) == (3, "")
    assert run["err"] == [f"orc: solver error: edge ({first}): TooLarge: "
                          "brute force capped at p <= 9, got 10"]


def test_curvature_overflow_exits_3_from_any_share(inputs, capsys):
    # the overflowing edge 7-8 in the parent's share, the first child's and
    # the second's, in both report formats
    runs = []
    for at in (0, 4, 9):
        order = [f"{u},{v}" for u in range(3) for v in range(3, 6)]
        order.insert(at, "7,8")
        for out_format in ("json", "csv"):
            runs.append(["compute", "--input", "overflow-float.txt", "--numeric", "float",
                         "--method", "lp", *[arg for edge in order for arg in ("--edge", edge)],
                         "--out-format", out_format])
    spied = _spy(runs)
    _check(spied, runs, capsys, forked=True)
    for run in spied["runs"]:
        assert (run["code"], run["out"]) == (3, "")
        assert run["err"] == [
            "orc: solver error: edge (7, 8): CurvatureOverflow: 1 - W1/d(x, y) with "
            "W1 = 2e+200, d(x, y) = 1e-200 leaves float range; rational weights keep it exact"]


@pytest.mark.parametrize("fork", ["mute", "fail"])
def test_parent_computes_what_no_child_sent(inputs, capsys, fork):
    # a child that exits without a payload, or a fork that fails, leaves
    # its share to the parent: the report and the error are unchanged
    runs = [run for run in _spread_runs() if "--all-edges" in run][::5]
    runs += [_too_large_run({9: "28,29"})]
    spied = _spy(runs, fork=fork)
    _check(spied, runs, capsys, forked=fork == "mute")
    assert spied["runs"][-1]["code"] == 3


def test_one_cpu_forks_nothing(inputs, capsys):
    runs = _spread_runs()[:2]
    _check(_spy(runs, cpus=1), runs, capsys, forked=False)


def test_workers_give_each_process_a_gate():
    assert [orcurv.cli._workers(64, work, 10) for work in (0, 19, 20, 39, 40, 10**6)] \
        == [1, 1, 2, 3, 4, 64]
    assert orcurv.cli._workers(1, 10**6, 10) == 1


def test_stages_take_processes_by_their_work(inputs, monkeypatch, capsys):
    # 64 CPUs, rows worth three gates and edges worth two: three and two
    # processes; a tree's rows and the tree method's edges stay in process
    # past any gate
    stages = []

    def geodesic(g, workers=None):
        stages.append(("rows", workers))
        return all_pairs_geodesic(g)

    def serial(work, n, workers):
        stages.append(("edges", workers))
        return [work(i) for i in range(n)]

    g = load_graph(GRAPHS["mixed.txt"])
    dg = all_pairs_geodesic(g)
    cells = sum(nb.p * nb.q for nb in (neighborhood(g, dg, u, v, include_endpoints=True)
                                       for u, v, _ in g.edges))
    monkeypatch.setattr(orcurv.cli, "all_pairs_geodesic", geodesic)
    monkeypatch.setattr(orcurv.spread, "spread", serial)
    monkeypatch.setattr(orcurv.cli, "_cpus", lambda: 64)
    monkeypatch.setattr(orcurv.cli, "_ROW_GATE", g.vertex_count * 2 * g.edge_count // 3)
    monkeypatch.setattr(orcurv.cli, "_EDGE_GATE", cells // 2)
    assert main(["compute", "--input", "mixed.txt", "--all-edges", "--include-endpoints"]) == 0
    assert stages == [("rows", 3), ("edges", 2)]
    stages.clear()
    Path("tree.txt").write_text("".join(f"{v // 2} {v} {v % 3 + 1}\n" for v in range(1, 40)))
    monkeypatch.setattr(orcurv.cli, "_ROW_GATE", 1)
    monkeypatch.setattr(orcurv.cli, "_EDGE_GATE", 1)
    assert main(["compare", "--input", "tree.txt", "--all-edges"]) == 0
    assert main(["compute", "--input", "tree.txt", "--method", "tree", "--all-edges"]) == 0
    assert stages == [("rows", 1)]
    assert main(["compute", "--input", "tree.txt", "--method", "lp", "--all-edges"]) == 0
    assert stages == [("rows", 1), ("edges", 64)]
    capsys.readouterr()


def test_run_below_the_gates_imports_no_spread_module(inputs):
    # the gates as they are: no test input reaches them
    code = ("import sys, orcurv.cli\n"
            "code = orcurv.cli.main(sys.argv[1:])\n"
            "print(code, [m for m in ('orcurv.spread', 'pickle') if m in sys.modules])\n")
    done = fresh_python(code, "compute", "--input", "mixed.txt", "--all-edges",
                        "--out", "report.json")
    assert (done.returncode, done.stdout) == (0, "0 []\n"), done.stderr


def test_reports_are_files_too(inputs, capsys):
    # --out writes the spread report; the serial one is written beside it
    argv = ["compute", "--input", "mixed.txt", "--method", "lp", "--all-edges"]
    spied = _spy([argv + ["--out", "spread.json"]])
    assert spied["runs"][0]["code"] == 0 and spied["runs"][0]["forks"] > 0
    assert main(argv + ["--out", "serial.json"]) == 0
    assert Path("spread.json").read_bytes() == Path("serial.json").read_bytes()


def test_no_fork_beside_another_thread():
    # a fork copies only its own thread: with a second one running (a
    # threaded BLAS, say) the loop stays in process
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert not orcurv.spread._forkable()
        with mock.patch("os.fork", side_effect=AssertionError("forked")):
            assert orcurv.spread.spread(lambda i: i * i, 10, 4) == [i * i for i in range(10)]
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
