"""A classical run needs no numpy, and no `dataclasses` or `inspect`. A
qsim run loads numpy, and numpy loads `inspect`, but no orcurv module
loads `dataclasses` or `copy`.

Each check runs a fresh interpreter. With the three hidden
(`sys.modules[name] = None`, so that importing one raises ImportError),
every classical `orc` route and the benchmark's setup calls must give
what they give in this process, byte for byte; so must the qsim routes
with `dataclasses` hidden.
"""

import json
from pathlib import Path

import pytest

from helpers import fresh_python as _python
from orcurv.cli import main
from orcurv.graph import all_pairs_geodesic, load_graph, verify_tree

#: the modules a classical run must not load
HIDDEN = ("numpy", "dataclasses", "inspect")
#: the modules a qsim run must not load
QSIM_UNLOADED = ("dataclasses", "copy")

#: the statements that hide the modules named in argv[1], comma-separated
_HIDE = """
import sys
for name in filter(None, sys.argv[1].split(",")):
    sys.modules[name] = None
"""

#: the modules of HIDDEN a process has loaded
_LOADED = f"""
print("loaded:", [n for n in {HIDDEN!r} if sys.modules.get(n) is not None], file=sys.stderr)
"""

#: argv[2] names the modules to look for, comma-separated, and the rest
#: of argv is an `orc` command line. Once `orc` returns, stderr's last
#: line lists which of those modules were loaded.
_ORC = _HIDE + """
import orcurv.cli
code = orcurv.cli.main(sys.argv[3:])
print("loaded:", [n for n in sys.argv[2].split(",") if sys.modules.get(n) is not None],
      file=sys.stderr)
sys.exit(code)
"""

GRAPHS = {
    # a 4-cycle with a chord and rational weights
    "exact.txt": "0 1 1/2\n1 2 3/4\n2 3 1\n3 0 5/4\n0 2 2\n",
    # an 8-cycle: density 2/7
    "sparse-float.txt": "".join(f"{v} {(v + 1) % 8} {1.5 + v / 4}\n" for v in range(8)),
    "tree.txt": "0 1\n1 2\n2 3\n3 4\n4 5\n2 6\n6 7\n",
    # a float tree whose weights are not dyadic, so every lift scales them
    "tree-float.txt": "0 1 0.1\n1 2 2.7\n2 3 0.3\n3 4 1e-3\n2 5 1.25\n5 6 3.3\n",
    # K_{3,3}: every edge has p = q = 2
    "k33.txt": "".join(f"{u} {v} {u + v}\n" for u in range(3) for v in range(3, 6)),
    # K_5: density 1
    "dense-float.txt": "".join(f"{u} {v} {1.25 * (u + v)}\n"
                               for u in range(5) for v in range(u + 1, 5)),
    "cost.json": json.dumps({"cost": [[1, 3, 3, 2], [2, 3, 3, 3], [3, 2, 2, 3]], "dxy": 1}),
}

CLASSICAL = {
    "lp-exact": ["--input", "exact.txt", "--method", "lp", "--all-edges"],
    "lp-sparse-float": ["--input", "sparse-float.txt", "--numeric", "float",
                        "--method", "lp", "--all-edges"],
    "tree": ["--input", "tree.txt", "--method", "tree", "--all-edges"],
    "tree-float": ["--input", "tree-float.txt", "--numeric", "float",
                   "--method", "tree", "--all-edges"],
    "lp-tree-float": ["--input", "tree-float.txt", "--numeric", "float",
                      "--method", "lp", "--all-edges"],
    "assignment": ["--input", "k33.txt", "--method", "assignment", "--all-edges"],
    "brute_force": ["--input", "k33.txt", "--method", "brute_force", "--all-edges"],
    "lp-dense-float": ["--input", "dense-float.txt", "--numeric", "float",
                       "--method", "lp", "--all-edges"],
    "lp-cost-matrix": ["--input", "cost.json", "--format", "cost_matrix", "--method", "lp"],
}

NUMPY_ROUTES = {
    "qsim_tree": ["--input", "tree.txt", "--method", "qsim_tree", "--all-edges"],
}

#: `compare` runs of the qsim routes, each a command line and its trace
#: path (None: no trace)
QSIM = {
    "qsim_tree": (["--input", "tree.txt", "--all-edges"], None),
    "qsim_tree-shots": (["--input", "tree.txt", "--all-edges", "--shots", "1000",
                         "--seed", "3"], None),
    "qsim_pq-trace": (["--input", "k33.txt", "--all-edges", "--qsim-method", "qsim_pq",
                       "--trace", "trace.jsonl"], "trace.jsonl"),
}


@pytest.fixture()
def inputs(tmp_path, monkeypatch):
    for name, text in GRAPHS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _orc(hide: str, argv: list[str], command: str = "compute",
         watch: tuple[str, ...] = HIDDEN) -> tuple[int, str | None, str]:
    """A fresh `orc command`'s exit code, report (None if none) and stderr,
    with the modules named in `hide` hidden and those of `watch` looked for."""
    out = Path("child.json")
    out.unlink(missing_ok=True)
    done = _python(_ORC, hide, ",".join(watch), command, *argv, "--out", str(out))
    return done.returncode, out.read_text() if out.exists() else None, done.stderr


@pytest.mark.parametrize("argv", CLASSICAL.values(), ids=CLASSICAL.keys())
def test_classical_route_needs_no_numpy(inputs, argv):
    assert main(["compute", *argv, "--out", "here.json"]) == 0
    here = Path("here.json").read_text()
    for hide in (",".join(HIDDEN), ""):
        code, report, err = _orc(hide, argv)
        assert (code, report) == (0, here), err
        assert err.endswith("loaded: []\n"), err


@pytest.mark.parametrize("argv", NUMPY_ROUTES.values(), ids=NUMPY_ROUTES.keys())
def test_qsim_and_dense_float_routes_load_numpy(inputs, argv):
    # the control: the probe sees numpy where a qsim route runs it, and
    # hiding numpy stops such a run
    code, report, err = _orc("", argv)
    assert (code, report is None) == (0, False), err
    assert "'numpy'" in err.splitlines()[-1], err
    code, report, err = _orc("numpy", argv)
    assert (code, report) == (1, None)
    assert "ModuleNotFoundError" in err and "numpy" in err.splitlines()[-1], err


@pytest.mark.parametrize("argv, trace", QSIM.values(), ids=QSIM.keys())
def test_qsim_route_loads_no_dataclasses(inputs, argv, trace):
    code = main(["compare", *argv, "--out", "here.json"])
    here = code, Path("here.json").read_text(), trace and Path(trace).read_text()
    if trace:
        Path(trace).unlink()
    code, report, err = _orc("dataclasses", argv, "compare", QSIM_UNLOADED)
    assert (code, report, trace and Path(trace).read_text()) == here, err
    assert err.endswith("loaded: []\n"), err


def test_importing_the_cli_loads_no_numpy():
    done = _python("import sys, orcurv.cli\n" + _LOADED)
    assert (done.returncode, done.stderr) == (0, "loaded: []\n")


def test_benchmark_setup_calls_run_with_numpy_hidden(inputs):
    # what perfbench/child.py's setup runs before a graph's first edge
    code = _HIDE + (
        "from orcurv import all_pairs_geodesic, load_graph, verify_tree\n"
        "g = load_graph(open(sys.argv[2]).read(), numeric=sys.argv[3])\n"
        "print(repr(all_pairs_geodesic(g, workers=1)), verify_tree(g))\n")
    for name, numeric in (("exact.txt", "rational"), ("dense-float.txt", "float")):
        g = load_graph(GRAPHS[name], numeric=numeric)
        done = _python(code, ",".join(HIDDEN), name, numeric)
        assert done.returncode == 0, done.stderr
        assert done.stdout == f"{all_pairs_geodesic(g, workers=1)!r} {verify_tree(g)}\n"


def test_exact_tree_compare_loads_no_numpy_random(inputs):
    # exact overlaps draw nothing, so the seed sequence is never spawned
    code = ("import sys, orcurv.cli\n"
            "code = orcurv.cli.main(['compare', '--input', 'tree.txt', '--all-edges',\n"
            "                        '--tol', '1e-8', '--out', 'tree.json'])\n"
            "print(code, 'numpy' in sys.modules, 'numpy.random' in sys.modules)\n")
    done = _python(code)
    assert (done.returncode, done.stdout) == (0, "0 True False\n"), done.stderr
