"""The README's code stays runnable against the package's exports."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    curvature, w1_qsim = capsys.readouterr().out.splitlines()
    # the 4-cycle edge (0, 1): W1 = 1 = d(0, 1), so the curvature is exactly 0
    assert curvature == "0"
    assert float(w1_qsim) == pytest.approx(1.0, abs=1e-8)
