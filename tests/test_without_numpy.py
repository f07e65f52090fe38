"""A classical run needs no numpy: only the qsim routes load it.

Each check runs a fresh interpreter. With numpy hidden
(`sys.modules["numpy"] = None`, so that importing it raises ImportError),
every classical `orc` route and the benchmark's setup calls must give
what they give in this process, byte for byte.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from orcurv.cli import main
from orcurv.graph import all_pairs_geodesic, load_graph, verify_tree

SRC = Path(__file__).resolve().parents[1] / "src"

#: argv[1] is "hidden" or "shown"; the rest is an `orc` command line.
#: Once `orc` returns, stderr's last line says whether numpy was imported.
_ORC = """
import sys
if sys.argv[1] == "hidden":
    sys.modules["numpy"] = None
import orcurv.cli
code = orcurv.cli.main(sys.argv[2:])
print(f"numpy imported: {sys.modules.get('numpy') is not None}", file=sys.stderr)
sys.exit(code)
"""

GRAPHS = {
    # a 4-cycle with a chord and rational weights
    "exact.txt": "0 1 1/2\n1 2 3/4\n2 3 1\n3 0 5/4\n0 2 2\n",
    # an 8-cycle: density 2/7
    "sparse-float.txt": "".join(f"{v} {(v + 1) % 8} {1.5 + v / 4}\n" for v in range(8)),
    "tree.txt": "0 1\n1 2\n2 3\n3 4\n4 5\n2 6\n6 7\n",
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
    "assignment": ["--input", "k33.txt", "--method", "assignment", "--all-edges"],
    "brute_force": ["--input", "k33.txt", "--method", "brute_force", "--all-edges"],
    "lp-dense-float": ["--input", "dense-float.txt", "--numeric", "float",
                       "--method", "lp", "--all-edges"],
    "lp-cost-matrix": ["--input", "cost.json", "--format", "cost_matrix", "--method", "lp"],
}

NUMPY_ROUTES = {
    "qsim_tree": ["--input", "tree.txt", "--method", "qsim_tree", "--all-edges"],
}


@pytest.fixture()
def inputs(tmp_path, monkeypatch):
    for name, text in GRAPHS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _python(code: str, *argv: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=env, check=False)


def _orc(mode: str, argv: list[str]) -> tuple[int, str | None, str]:
    """A fresh `orc compute`'s exit code, report (None if none) and stderr."""
    out = Path("child.json")
    out.unlink(missing_ok=True)
    done = _python(_ORC, mode, "compute", *argv, "--out", str(out))
    return done.returncode, out.read_text() if out.exists() else None, done.stderr


@pytest.mark.parametrize("argv", CLASSICAL.values(), ids=CLASSICAL.keys())
def test_classical_route_needs_no_numpy(inputs, argv):
    assert main(["compute", *argv, "--out", "here.json"]) == 0
    here = Path("here.json").read_text()
    for mode in ("hidden", "shown"):
        code, report, err = _orc(mode, argv)
        assert (code, report) == (0, here), err
        assert err.endswith("numpy imported: False\n"), err


@pytest.mark.parametrize("argv", NUMPY_ROUTES.values(), ids=NUMPY_ROUTES.keys())
def test_qsim_and_dense_float_routes_load_numpy(inputs, argv):
    # the control: the probe sees numpy where a qsim route runs it, and
    # hiding numpy stops such a run
    code, report, err = _orc("shown", argv)
    assert (code, report is None) == (0, False), err
    assert err.endswith("numpy imported: True\n"), err
    code, report, err = _orc("hidden", argv)
    assert (code, report) == (1, None)
    assert "ModuleNotFoundError" in err and "numpy" in err.splitlines()[-1], err


def test_importing_the_cli_loads_no_numpy():
    done = _python("import sys, orcurv.cli; print('numpy' in sys.modules)")
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


def test_benchmark_setup_calls_run_with_numpy_hidden(inputs):
    # what perfbench/child.py's setup runs before a graph's first edge
    code = ("import sys\n"
            "sys.modules['numpy'] = None\n"
            "from orcurv import all_pairs_geodesic, load_graph, verify_tree\n"
            "g = load_graph(open('exact.txt').read())\n"
            "print(repr(all_pairs_geodesic(g, workers=1)), verify_tree(g))\n")
    g = load_graph(GRAPHS["exact.txt"])
    done = _python(code)
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
