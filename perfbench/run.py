"""Outside-in benchmark of the `orc` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/` there. The seed makes the workload's input file, and the `orc`
processes only ever see that file. One process runs at a time.

--trace 0 measures the end-to-end metrics: it times `orc` in a fresh
process per invocation, back to back for S seconds, and a fresh set-up
process (import, load_graph, all_pairs_geodesic, verify_tree) several
times. --trace 1 alternates, for S seconds, fresh processes that run
`orcurv.cli.main` in-process with and without the layers wrapped by a
tracer, and reports per-layer metrics and the tracing overhead.

Both modes check every report against the oracles in `oracles.py`,
check that every report of the run (and every earlier run of the same
workload, seed and source tree) is byte-identical, print a table of every
metric, save the details under `.perfbench_out/`, and print one JSON
object as the last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_SAMPLES = 3


def die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "orcurv").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def spawn(argv: list[str], log: Path) -> tuple[float, float, int]:
    """Run argv to completion; return wall seconds, peak RSS in MB, exit code."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def read_report(path: Path) -> tuple[str | None, bytes | None]:
    if not path.exists():
        return None, None
    data = path.read_bytes()
    return hashlib.sha256(data).hexdigest(), data


class Run:
    """State of one benchmark run: the input, its reports and findings."""

    def __init__(self, workload: str, seed: int, trace: int) -> None:
        self.inst = workloads.generate(workload, seed)
        self.dir = OUT / f"{workload}-s{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.input = self.dir / "input.txt"
        self.input.write_text(self.inst.edge_list_text(), encoding="utf-8")
        self.report = self.dir / f"report-t{trace}.json"
        self.digests: Counter = Counter()
        self.codes: Counter = Counter()
        self.findings: list[str] = []
        self.first_report: bytes | None = None

    def orc_args(self) -> list[str]:
        rel_in = str(self.input.relative_to(ROOT))
        rel_out = str(self.report.relative_to(ROOT))
        return [*self.inst.orc_args, "--input", rel_in, "--out", rel_out]

    def collect(self, code: int) -> None:
        digest, data = read_report(self.report)
        self.digests[digest] += 1
        self.codes[code] += 1
        if self.first_report is None:
            self.first_report = data

    def check_determinism(self) -> None:
        if len(self.digests) != 1 or len(self.codes) != 1:
            self.findings.append(f"reports differ within the run: {dict(self.digests)}")
            return
        digest = next(iter(self.digests))
        inputs = hashlib.sha256(json.dumps(self.inst.orc_args).encode()
                                + self.input.read_bytes()).hexdigest()[:16]
        store = self.dir / f"digest-{source_digest()}-{inputs}.txt"
        if store.exists() and store.read_text().strip() != str(digest):
            self.findings.append("report differs from an earlier run of this seed")
        else:
            store.write_text(f"{digest}\n")


def measure_end_to_end(run: Run, seconds: float) -> dict:
    """Rounds of reference, set-up and `orc` processes for `seconds`,
    then one last reference.

    Interleaving the three spreads each one's samples over the whole
    window, so a slow spell of the machine weighs on all of them alike.
    Each `orc` invocation is divided by the mean of the references just
    before and just after it: the machine switches between fast and slow
    spells lasting a second or two, and one reference alone often sees
    another spell than the invocation does.
    """
    numeric = "float" if "float" in run.inst.orc_args else "rational"
    helper = [sys.executable, str(HERE / "child.py")]
    walls, refs, setups, rss = [], [], [], []

    def helper_run(args: list[str], out: list, what: str) -> None:
        wall, _, code = spawn(helper + args, run.dir / f"{what}.log")
        if code != 0:
            run.findings.append(f"{what} process exited {code}")
        out.append(wall)

    start = time.perf_counter()
    while len(walls) < MIN_SAMPLES or time.perf_counter() - start < seconds:
        helper_run(["reference"], refs, "reference")
        helper_run(["setup", str(run.input), numeric], setups, "setup")
        run.report.unlink(missing_ok=True)
        wall, peak, code = spawn([sys.executable, "-m", "orcurv", *run.orc_args()],
                                 run.dir / "orc.log")
        walls.append(wall)
        rss.append(peak)
        run.collect(code)
    helper_run(["reference"], refs, "reference")
    return {"wall_rel": [w / (a + b) * 2 for w, a, b in zip(walls, refs, refs[1:])],
            "wall_s": walls, "reference_s": refs, "setup_s": setups, "peak_rss_mb": rss}


def measure_traced(run: Run, seconds: float) -> dict:
    summary = run.dir / "summary.json"
    main_s = {"plain": [], "traced": []}
    traced = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        order = ("plain", "traced") if len(traced) % 2 == 0 else ("traced", "plain")
        for mode in order:
            run.report.unlink(missing_ok=True)
            _, _, code = spawn([sys.executable, str(HERE / "child.py"), mode, str(summary),
                                "--", *run.orc_args()], run.dir / f"{mode}.log")
            if code != 0 or not summary.exists():
                die(f"{mode} child exited {code}; see {run.dir / (mode + '.log')}")
            data = json.loads(summary.read_text())
            summary.unlink()
            main_s[mode].append(data["main_s"])
            run.collect(data["code"])
            if mode == "traced":
                traced.append(data)
    return {"main_s": main_s, "traced": traced}


def per_layer_metrics(run: Run, samples: dict, edges: int) -> tuple[dict, dict]:
    """(the PER_LAYER metrics, every traced function's calls and times)."""
    traced = samples["traced"]
    names = sorted({name for t in traced for name in t["functions"]})
    detail = {}
    for name in names:
        rows = [t["functions"].get(name) for t in traced]
        calls = {row["calls"] if row else 0 for row in rows}
        if len(calls) != 1:
            run.findings.append(f"{name}: call count differs between traced runs")
        durations = [d for row in rows if row for d in row["durations_s"]]
        detail[name] = {
            "calls": rows[0]["calls"] if rows[0] else 0,
            "self_s": metrics.median([row["self_s"] if row else 0.0 for row in rows]),
            "elements": rows[0]["elements"] if rows[0] else 0,
            "p50_ms": metrics.percentile_ms(durations, 50),
            "p99_ms": metrics.percentile_ms(durations, 99),
        }
    out = {}
    for name in metrics.COUNTED:
        out[f"{name}.calls"] = detail.get(name, {}).get("calls", 0)
    for name in metrics.PER_EDGE_CALLS:
        out[f"{name}.calls_per_edge"] = detail.get(name, {}).get("calls", 0) / edges
    for name in metrics.ALWAYS_TIMED:
        out[f"{name}.self_s"] = detail[name]["self_s"]

    def self_s(t: dict, prefix: str) -> float:
        return sum(row["self_s"] for name, row in t["functions"].items()
                   if name == prefix or name.startswith(prefix + "."))

    for layer in metrics.ALWAYS_LAYERS:
        out[f"{layer}.self_s"] = metrics.median([self_s(t, layer) for t in traced])
    for prefix in metrics.SHARE_OF_MAIN:
        out[f"{prefix}.self_frac"] = metrics.median([self_s(t, prefix) / t["root_s"]
                                                    for t in traced])
    for name in ("blockenc.dilated_apply", "qpipeline.build_DP"):
        out[f"{name}.elements"] = detail.get(name, {}).get("elements", 0)
    records = json.loads(run.first_report)["records"] if run.first_report else []
    diags = [(r["p"], r["diagnostics"]) for r in records if "diagnostics" in r]
    out["qpipeline.min_eigen_power.iterations"] = sum(d["iterations"] for _, d in diags)
    out["qpipeline.min_eigen_power.elem_iters"] = sum(d["iterations"] * p ** p for p, d in diags)
    out["qpipeline.min_eigen_power.converged_frac"] = (
        sum(d["converged"] for _, d in diags) / len(diags) if diags else 1.0)
    out["cli.report_bytes"] = len(run.first_report or b"")
    out["trace_self_cover_frac"] = metrics.median([
        sum(row["self_s"] for row in t["functions"].values()) / t["root_s"] for t in traced])
    out["trace_overhead_frac"] = (metrics.median(samples["main_s"]["traced"])
                                  / metrics.median(samples["main_s"]["plain"]) - 1.0)
    return out, detail


def print_table(title: str, rows: list[tuple[str, object, str]]) -> None:
    print(f"\n{title}")
    width = max(len(r[0]) for r in rows)
    for name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<{width}}  {shown:>14}  {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # exit through SystemExit on SIGTERM, so spawn() kills its child first
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "orcurv" / "__init__.py").is_file():
        die(f"no orcurv sources under {SRC}; run from the root of a source checkout")

    run = Run(args.workload, args.seed, args.trace)
    if args.trace:
        samples = measure_traced(run, args.seconds)
    else:
        samples = measure_end_to_end(run, args.seconds)
    invocations = sum(run.codes.values())
    code = next(iter(run.codes)) if len(run.codes) == 1 else -1
    report = json.loads(run.first_report) if run.first_report else None
    verdict = oracles.check_report(run.inst, report, code)
    run.findings.extend(verdict.wrong)
    run.check_determinism()

    edges = verdict.expected_edges
    failed_edges = len(verdict.failed)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"invocations {invocations}")
    print(f"input shape {json.dumps(run.inst.shape)}")
    print(f"report digest {next(iter(run.digests))}  exit code {code}")
    print(f"edges {edges}  failed {failed_edges}  edge_fail_frac {failed_edges / edges:.6g}")
    for edge, reason in sorted(verdict.failed.items()):
        print(f"  failed edge {edge}: {reason}")
    for finding in run.findings:
        print(f"  WRONG: {finding}")

    if args.trace:
        values, detail = per_layer_metrics(run, samples, edges)
        units = metrics.PER_LAYER
        rows = []
        for name, row in detail.items():
            rows += [(f"{name}.calls", row["calls"], "count"),
                     (f"{name}.self_s", row["self_s"], "s")]
            if name in metrics.PER_EDGE_ENTRY:
                rows += [(f"{name}.p50_ms", row["p50_ms"], "ms"),
                         (f"{name}.p99_ms", row["p99_ms"], "ms")]
        print_table("traced functions (median self time over traced runs)", rows)
        print_table("main call (s)", [
            (f"{mode}.main_s", metrics.median(v), f"s, n={len(v)}")
            for mode, v in samples["main_s"].items()])
    else:
        values = {name: metrics.median(samples[name]) for name in metrics.END_TO_END}
        units = metrics.END_TO_END
        detail = {}
        rows = []
        for name, unit in (("wall_rel", "ref"), ("wall_s", "s"), ("reference_s", "s"),
                           ("setup_s", "s"), ("peak_rss_mb", "MB")):
            label, tail_value = metrics.tail(samples[name])
            rows += [(f"{name}.median", metrics.median(samples[name]), unit),
                     (f"{name}.{label}", tail_value, f"{unit}, n={len(samples[name])}")]
        print_table("samples", rows)
    print_table("metrics", [(k, v, units[k][0]) for k, v in values.items()])

    # every invocation of the run must give the same report bytes (checked
    # above), so repeats time the same edges again: each input edge is one
    # operation, and a seed always yields the same attempted and failed
    result = {
        "correct": not run.findings,
        "attempted": edges,
        "failed": failed_edges,
        "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in values.items()},
    }
    (run.dir / f"result-t{args.trace}.json").write_text(json.dumps({
        "result": result, "shape": run.inst.shape, "samples": samples if not args.trace
        else samples["main_s"], "functions": detail, "failed_edges": {
            f"{u},{v}": r for (u, v), r in verdict.failed.items()},
        "findings": run.findings}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
