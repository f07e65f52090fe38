"""Processes the benchmark starts, one at a time, each fresh.

    python child.py setup INPUT NUMERIC
        import orcurv, then load_graph, all_pairs_geodesic and verify_tree
        on INPUT: the per-graph cost every `orc` run pays before its
        first edge.
    python child.py reference
        a fixed amount of work that does not touch orcurv: half
        interpreter-bound (Fraction sums, dict updates), half numpy
        (a power-iteration-like loop on a 50 000-vector). Timed next to
        every `orc` invocation, it tracks the machine's current speed.
    python child.py plain|traced SUMMARY -- ORC_ARGS...
        run `orcurv.cli.main(ORC_ARGS)` in this process, with the layers
        wrapped by a Tracer for `traced`, and write the main-call time
        and the per-function summary to SUMMARY as JSON.

The `orcurv` package is imported from `src/` under the working directory.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))


def setup(input_path: str, numeric: str) -> None:
    from orcurv import all_pairs_geodesic, load_graph, verify_tree

    g = load_graph(Path(input_path).read_text(encoding="utf-8"), numeric=numeric)
    all_pairs_geodesic(g, workers=1)
    verify_tree(g)


def reference() -> None:
    import numpy as np
    from fractions import Fraction

    total = Fraction(0)
    for k in range(1, 15_000):
        total += Fraction(1, k % 97 + 1)
    counts: dict[int, int] = {}
    for k in range(75_000):
        counts[k % 1000] = counts.get(k % 1000, 0) + k
    x = np.random.default_rng(0).random(50_000)
    for _ in range(800):
        y = x * 0.999 + 0.001
        float(x @ y)
        x = y / np.linalg.norm(y)


def run_main(mode: str, summary_path: str, orc_args: list[str]) -> None:
    import orcurv.cli
    from spans import Tracer

    tracer = Tracer()
    if mode == "traced":
        tracer.install()
    try:
        start = time.perf_counter()
        try:
            code = orcurv.cli.main(orc_args)
        except Exception:  # an uncaught error ends `orc` with exit code 1
            traceback.print_exc()
            code = 1
        main_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    summary = {"code": code, "main_s": main_s, "functions": tracer.summary(),
               "root_s": tracer.root_seconds()}
    Path(summary_path).write_text(json.dumps(summary), encoding="utf-8")


def main(argv: list[str]) -> None:
    if argv[0] == "setup":
        setup(argv[1], argv[2])
    elif argv == ["reference"]:
        reference()
    elif argv[0] in ("plain", "traced") and argv[2] == "--":
        run_main(argv[0], argv[1], argv[3:])
    else:
        raise SystemExit(f"usage: see {__file__}")


if __name__ == "__main__":
    main(sys.argv[1:])
