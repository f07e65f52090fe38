"""The README's code stays runnable against the package's exports."""

import re
import shlex
from pathlib import Path

import pytest

from orcurv.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(title: str) -> str:
    return README.read_text(encoding="utf-8").split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_library_example_runs(capsys):
    code = re.search(r"```python\n(.*?)```", _section("Library example"), re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    curvature, w1_qsim = capsys.readouterr().out.splitlines()
    # the 4-cycle edge (0, 1): W1 = 1 = d(0, 1), so the curvature is exactly 0
    assert curvature == "0"
    assert float(w1_qsim) == pytest.approx(1.0, abs=1e-8)


def test_readme_cli_lines_run(tmp_path, monkeypatch, capsys):
    block = re.search(r"```sh\n(.*?)```", _section("CLI"), re.S).group(1)
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv[1:] for argv in lines if argv and argv[0] == "orc"]
    assert len(commands) >= 6
    # the README's graph.txt and tree.txt stand for the path4 fixture
    monkeypatch.chdir(tmp_path)
    assert main(["fixture", "path4"]) == 0
    for name in ("graph.txt", "tree.txt"):
        (tmp_path / name).write_text((tmp_path / "path4.txt").read_text())
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
    assert (tmp_path / "report.json").exists()
