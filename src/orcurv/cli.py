"""Command-line front end: `orc compute|compare|fixture`.

compute runs one curvature method over selected edges and writes a JSON
or CSV report; compare runs a classical/quantum-simulation pair per edge
and fails (exit 1) when the difference exceeds the tolerance; fixture
writes small named input files. compute and compare share one run loop,
`_run`. It reads the input and selects the edges, settles the run, and
only then computes the distances, the neighborhoods and the one distance
encoding. A tree's neighborhoods read its edge weights, so a classical
run on a tree computes no all-pairs distances; a qsim route still does,
for the encoding. Reading takes the file's text alone: `graph` parses
every input format and checks its numbers, and its OrcError exits 2
here.
Settling refuses, never ignores, what the run cannot use: a qsim option
that no method reads (`_QSIM_OPTIONS` defines each one), --seed on
qsim_tree without --shots, a tree method without a tree, and an --out or
--trace path that is a directory, whose directory is missing, that the
OS cannot stat, that is the input file or that is one file with the
other. Every configuration error thus exits 2 before any distance work,
except NotSquare, which reads p and q, and a write that fails later; and
a leaf --edge (empty neighborhood, exit 3) in a refused run exits 2. A
per-edge solver error is prefixed with its edge here. Exit codes: 0 ok,
1 comparison failure, 2 configuration error, 3 solver error.

A run imports `qpipeline`, and with it numpy, only when its route is a
qsim method, and reads its names through the module at call time; a
classical run never loads numpy. When numpy is not yet loaded, `main`
sets OPENBLAS_NUM_THREADS=1, so that OpenBLAS's idle worker threads do
not spin. A `qsim_pq` report does not depend on it: the power stage's
reductions are too short for OpenBLAS to split across threads (a p = 8
edge was checked at 1 and 4 threads on one CPU model). The pin reaches
only an `orc` process that
starts before numpy is loaded. A process that loaded numpy before
calling `main` (perfbench's traced child does, through its tracer) and
a library call of the qsim routes keep the OpenBLAS threads they have.

A run reads once how many CPUs it may use (`_cpus`): those of its
affinity mask. Each stage then takes as many processes as give each one
at least a gate's worth of work, and no more than those CPUs
(`_workers`): the Dijkstra rows _ROW_GATE relaxations (N * 2E) each; the
edge loop of a run whose methods are all classical _EDGE_GATE cells
(p * q summed over the edges) each. A tree's rows and the `tree`
method's edge loop stay in process, their work per entry about what
pickling it back would cost, and so do the qsim edge loops.
`spread.spread` forks the children, or stays in process without os.fork
or with a second OS thread (a process that loaded a threaded BLAS
first). It keeps the serial order, so the report is the serial one, byte
for byte, and the first failing edge in edge order still decides exit 3
and its message. `spread`, and with it `pickle`, is imported only by a
run that passes a gate.

Reports are byte-identical for identical configuration (including the
seed): timing goes to stderr, never into the report.

`entry` is the `orc` process: `python -m orcurv` and the `orc` script
both call it. It runs `main` with the cyclic garbage collector off, then
freezes the heap before `sys.exit`, so the interpreter's full
collections at exit have nothing to scan. Reference counting still frees
what a run drops, and a run makes no reference cycle per edge; its one
cyclic garbage is the argparse parser. `main` itself leaves its caller's
collector as it found it: tests, library callers and perfbench's
children call it in process.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import io
import json
import math
import os
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

from . import __version__
from .errors import ConfigError, OrcError
from .graph import (
    Graph,
    LocalNeighborhood,
    all_pairs_geodesic,
    load_cost_matrix,
    load_graph,
    neighborhood,
    verify_tree,
)
from .transport import ALL_METHODS, DEFAULT_DIM_CAP, QSIM_METHODS, CurvatureResult, curvature

if TYPE_CHECKING:
    from .qpipeline import AuditTrail, DistanceEncoding

_FIXTURES = {
    "appendix_a": (
        "appendix_a.json",
        json.dumps({"cost": [[1, 3, 3, 2], [2, 3, 3, 3], [3, 2, 2, 3]], "dxy": 1}) + "\n",
    ),
    "path4": ("path4.txt", "0 1\n1 2\n2 3\n"),
    "star": ("star.txt", "0 1\n0 2\n0 3\n"),
}

_QSIM_PARTNER = {"qsim_tree": "tree", "qsim_pq": "assignment"}

#: qsim option -> (argparse type, accepts the value?, what it accepts in
#: words, methods that read it, why others cannot, default when not given)
_QSIM_OPTIONS = {
    # numpy's binomial draw takes an int64 count
    "--shots": (int, lambda v: 1 <= v <= 2 ** 63 - 1, "an integer in [1, 2^63 - 1]",
                ("qsim_tree",), "has no shot-noise model", None),
    "--trace": (str, bool, "a path for the audit trace (JSON lines)",
                QSIM_METHODS, "writes no audit trace", None),
    "--margin": (float, lambda v: math.isfinite(v) and v >= 0, "a finite number >= 0",
                 QSIM_METHODS, "builds no distance encoding", 0.05),
    "--seed": (int, lambda v: v >= 0, "an integer >= 0",
               QSIM_METHODS, "draws no random numbers", 0),
    # below float64's resolution rounding, not the bound, decides the stop
    "--eps": (float, lambda v: math.isfinite(v) and v >= 2.0 ** -52,
              "a finite number >= 2^-52", ("qsim_pq",), "runs no power iteration", 1e-10),
    "--cap": (int, lambda v: v >= 1, "an integer >= 1",
              ("qsim_pq",), "has no dimension cap", DEFAULT_DIM_CAP),
}

#: the least work each process of a spread stage gets: for the Dijkstra
#: rows, N * 2E relaxations; for a classical edge loop, the cells p * q
#: summed over the edges. Below about 65 000 relaxations or 4 000 cells in
#: all, two processes were slower than one on a 2-vCPU machine (median
#: of 21): the fork, the child's start and pickling the results back cost
#: more than the share they take off the parent. So two processes start
#: from 100 000 relaxations or 8 000 cells; more than two were not
#: measured, and each added process brings its own gate's worth of work.
_ROW_GATE = 50_000
_EDGE_GATE = 4_000

#: options a report echoes under meta.config, each where its subcommand has it
_ECHOED = ("command", "input", "format", "method", "qsim_method", "numeric", "all_edges",
           "include_endpoints", "margin", "eps", "seed", "shots", "cap", "tol")


def __getattr__(name: str):
    """`cli.w1_tree_qsim`, which `perfbench/spans.py` names as a binding it
    wraps, read from qpipeline on each access so that a wrapper installed
    there shows here. cli itself reaches qpipeline only on a qsim route."""
    if name == "w1_tree_qsim":
        from . import qpipeline
        return qpipeline.w1_tree_qsim
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="orc",
                                     description="Ollivier-Ricci curvature toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--input", required=True, help="input file path")
        sp.add_argument("--format", choices=["edge_list", "json", "cost_matrix"],
                        default="edge_list")
        sp.add_argument("--edge", action="append", default=None, metavar="U,V",
                        help="edge selector, repeatable")
        sp.add_argument("--all-edges", action="store_true")
        sp.add_argument("--numeric", choices=["rational", "float"], default="rational")
        sp.add_argument("--include-endpoints", action="store_true")
        sp.add_argument("--out", default=None, help="report path (default: stdout)")
        sp.add_argument("--out-format", choices=["json", "csv"], default="json")
        # None is "not given"; _settle puts in the defaults
        for option, (kind, _, accepted, *_) in _QSIM_OPTIONS.items():
            sp.add_argument(option, type=kind, default=None, help=accepted)

    sp_compute = sub.add_parser("compute", help="curvature with one method")
    add_common(sp_compute)
    sp_compute.add_argument("--method", default="lp", choices=ALL_METHODS)

    sp_compare = sub.add_parser("compare", help="classical vs quantum-sim per edge")
    add_common(sp_compare)
    sp_compare.add_argument("--qsim-method", default="auto", choices=("auto", *QSIM_METHODS))
    sp_compare.add_argument("--tol", type=float, default=1e-8)

    sp_fixture = sub.add_parser("fixture", help="write a named fixture file")
    sp_fixture.add_argument("name", choices=sorted(_FIXTURES))
    sp_fixture.add_argument("--dir", default=".")
    return parser


def _parse_edges(raw: list[str] | None) -> list[tuple[int, int]] | None:
    if raw is None:
        return None
    edges = []
    for item in raw:
        parts = item.split(",")
        if len(parts) != 2:
            raise ConfigError(f"--edge expects 'u,v', got {item!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise ConfigError(f"--edge expects integers, got {item!r}") from exc
    return edges


def _check_values(args: argparse.Namespace) -> None:
    """Refuse an out-of-range value (None: not given) before any work starts."""
    for option, (_, ok, accepted, *_) in _QSIM_OPTIONS.items():
        value = getattr(args, option[2:])
        if value is not None and not ok(value):
            raise ConfigError(f"{option} must be {accepted}, got {value!r}")
    if args.out == "":
        raise ConfigError("--out must be a path for the report, got ''")
    tol = getattr(args, "tol", 0.0)    # compare only
    if not (math.isfinite(tol) and tol >= 0):
        raise ConfigError(f"--tol must be a finite number >= 0, got {tol!r}")


def _config_echo(args: argparse.Namespace) -> dict:
    echo = {name: getattr(args, name) for name in _ECHOED if hasattr(args, name)}
    echo["edges"] = args.edge
    return echo


# --------------------------------------------------------------------------
# read and settle: the input, the edges, the methods and the options
# --------------------------------------------------------------------------

def _read_input(args: argparse.Namespace) -> Graph | LocalNeighborhood:
    """The input graph, or the one neighborhood of a cost-matrix fixture."""
    try:
        text = Path(args.input).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read input {args.input!r}: {exc}") from exc
    try:
        if args.format == "cost_matrix":
            return load_cost_matrix(text, args.numeric)
        return load_graph(text, format=args.format, numeric=args.numeric)
    except OrcError as exc:
        raise ConfigError(f"cannot parse input: {exc}") from exc


def _select_edges(args: argparse.Namespace, g: Graph | None) -> list[tuple[int, int]] | None:
    """The edges the run computes; None for a cost-matrix fixture (g None),
    which has no edge to select."""
    if g is None:
        for option, given in (("--edge", args.edge), ("--all-edges", args.all_edges),
                              ("--include-endpoints", args.include_endpoints)):
            if given:
                raise ConfigError(f"{option} needs a graph input, not a cost-matrix fixture")
        return None
    if args.all_edges and args.edge:
        raise ConfigError("use either --edge or --all-edges, not both")
    if args.all_edges:
        edges = [(u, v) for u, v, _ in g.edges]
        if not args.include_endpoints:
            # leaf edges have an empty neighborhood on one side; skip them
            degree = [len(g.neighbors(v)) for v in range(g.vertex_count)]
            edges = [(u, v) for u, v in edges if degree[u] > 1 and degree[v] > 1]
        if not edges:
            raise ConfigError("no edges with nonempty neighborhoods to process")
        return edges
    if args.edge:
        for u, v in args.edge:
            if not g.has_edge(u, v):
                raise ConfigError(f"({u}, {v}) is not an edge of the input graph")
        return args.edge
    raise ConfigError("select edges with --edge u,v or --all-edges")


def _settle(args: argparse.Namespace, g: Graph | None, is_tree: bool) -> tuple[str, ...]:
    """The run's methods, a compare's classical partner first, once every
    option is accepted and every qsim option not given has its default."""
    if args.command == "compute":
        methods = (args.method,)
    else:
        route = args.qsim_method
        if route == "auto":
            route = "qsim_tree" if is_tree else "qsim_pq"
        methods = (_QSIM_PARTNER[route], route)
    route = methods[-1]
    if route == "qsim_tree" and args.seed is not None and args.shots is None:
        raise ConfigError("method 'qsim_tree' draws no random numbers without --shots; "
                          "drop --seed")
    for option, (*_, readers, reason, default) in _QSIM_OPTIONS.items():
        if getattr(args, option[2:]) is None:
            setattr(args, option[2:], default)
        elif not set(methods) & set(readers):
            raise ConfigError(f"method {route!r} {reason}; drop {option}")
    one_file = f"--out and --trace both name {args.out!r}; give each its own path"
    if args.trace and args.out and os.path.realpath(args.trace) == os.path.realpath(args.out):
        raise ConfigError(one_file)
    # so a run refused for one of its files writes neither
    for option, path in (("--out", args.out), ("--trace", args.trace)):
        if not path:
            continue
        try:
            if Path(path).is_dir():
                raise ConfigError(f"cannot write {option} {path!r}: it is a directory")
            if not Path(path).parent.is_dir():
                raise ConfigError(f"cannot write {option} {path!r}: "
                                  f"no directory {str(Path(path).parent)!r}")
            # samefile() stats the path (is_dir() reads a symlink loop as "not
            # a directory") and so catches a symlink or hard link to the input,
            # and a --trace hard-linked to an --out that exists
            if os.path.samefile(path, args.input):
                raise ConfigError(f"cannot write {option} {path!r}: it is the input file")
            if option == "--trace" and args.out and os.path.samefile(path, args.out):
                raise ConfigError(one_file)
        except FileNotFoundError:
            pass                 # a file the run makes
        except OSError as exc:   # a name the OS refuses to stat: too long, a symlink loop
            raise ConfigError(f"cannot write {option} {path!r}: {exc}") from exc
    # a compare's partner is a tree method exactly when its route is
    if methods[0] in ("tree", "qsim_tree"):
        if g is None:
            raise ConfigError(f"method {methods[0]!r} needs a graph input, "
                              "not a cost-matrix fixture")
        if not is_tree:
            raise ConfigError(f"NotATree: method {methods[0]!r} needs a tree graph")
    return methods


# --------------------------------------------------------------------------
# compute
# --------------------------------------------------------------------------

def _run_method(args: argparse.Namespace, method: str, nb: LocalNeighborhood,
                be: DistanceEncoding | None, audit: AuditTrail | None) -> CurvatureResult:
    if method not in QSIM_METHODS:
        return curvature(nb, method=method)
    from . import qpipeline
    if method == "qsim_tree":
        return qpipeline.w1_tree_qsim(nb, be, shots=args.shots, seed=args.seed, audit=audit)
    return qpipeline.w1_pq_qsim(nb, be, seed=args.seed, eps=args.eps, dim_cap=args.cap,
                                audit=audit)


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift Python's int/str digit limit (4300) while exact results become
    text; ingest keeps it, so parsing stays cheap."""
    if not hasattr(sys, "set_int_max_str_digits"):    # no limit before 3.10.7
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _exact_json(v: Fraction) -> int | str:
    """An exact result as report JSON: an int when whole, else "num/den"."""
    return int(v) if v.denominator == 1 else str(v)


def _record(nb: LocalNeighborhood, result: CurvatureResult) -> dict:
    rec = {
        "x": result.x,
        "y": result.y,
        "p": nb.p,
        "q": nb.q,
        "w1": result.w1,
        "dxy": result.dxy,
        "curvature": result.curvature,
        "method": result.method,
    }
    if result.diagnostics is not None:    # the EigenEstimate of a qsim_pq run
        rec["diagnostics"] = result.diagnostics.fields()
    return rec


def _comparison(args: argparse.Namespace, nb: LocalNeighborhood, be: DistanceEncoding,
                res_c: CurvatureResult, res_q: CurvatureResult) -> dict:
    """The compare fields of one edge's record."""
    abs_diff = abs(float(res_c.w1) - float(res_q.w1))
    tol = args.tol
    if args.shots is not None:    # only the tree route accepts --shots
        from . import qpipeline
        tol = max(tol, 5.0 * qpipeline.tree_qsim_standard_error(nb, be, args.shots))
    return {
        "w1_classical": res_c.w1,
        "w1_qsim": res_q.w1,
        "abs_diff": abs_diff,
        "rel_diff": abs_diff / max(abs(float(res_c.w1)), 1e-300),
        "tol": tol,
        "within_tol": abs_diff <= tol,
    }


def _cpus() -> int:
    """The processes a run may spread its work over: the CPUs it may run
    on. `spread.spread` itself stays in process where it may not fork."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _workers(cpus: int, work: int, gate: int) -> int:
    """The processes a stage of `work` units spreads over: at most `cpus`,
    and few enough that each gets at least `gate` units; 1 below 2 gates."""
    return max(1, min(cpus, work // gate))


def _prepare(args: argparse.Namespace, cpus: int) -> tuple[
        tuple[str, ...], list, DistanceEncoding | None, AuditTrail | None]:
    """Read, settle, then compute the methods, each edge with its neighborhood,
    and a qsim route's one distance encoding, with the audit trail that
    --trace writes; the graph and its rows are freed on return. A
    classical run on a tree computes no distance rows, and a qsim run
    computes a tree's in process; Dijkstra rows spread over up to `cpus`
    processes, _ROW_GATE relaxations each (`_workers`)."""
    source = _read_input(args)
    g = source if isinstance(source, Graph) else None
    edges = _select_edges(args, g)
    is_tree = g is not None and verify_tree(g)
    methods = _settle(args, g, is_tree)
    if g is None:
        pairs = [(None, source)]    # a cost-matrix fixture has no edge
    else:
        # a tree's neighborhoods read its edge weights; a qsim route's
        # encoding reads max d over all pairs, so it computes the rows. The
        # gate was measured on Dijkstra rows: a tree's, one addition per
        # entry, cost about what pickling them back would
        workers = 1 if is_tree else _workers(cpus, g.vertex_count * 2 * g.edge_count, _ROW_GATE)
        dg = (None if is_tree and methods[-1] not in QSIM_METHODS
              else all_pairs_geodesic(g, workers=workers))
        pairs = []
        for u, v in edges:
            try:
                nb = neighborhood(g, dg, u, v, include_endpoints=args.include_endpoints)
            except OrcError as exc:
                raise _SolverFailure((u, v), exc) from exc
            pairs.append(((u, v), nb))
    # a compare's partner needs p = q exactly when its route does
    if methods[0] in ("assignment", "brute_force", "qsim_pq"):
        for edge, nb in pairs:
            if nb.p != nb.q:
                where = "the cost matrix" if edge is None else f"edge {edge}"
                raise ConfigError(f"NotSquare: {where} has "
                                  f"p={nb.p}, q={nb.q} for method {methods[0]!r}")
    if methods[-1] not in QSIM_METHODS:
        return methods, pairs, None, None
    from . import qpipeline
    audit = qpipeline.AuditTrail() if args.trace else None
    be = qpipeline.build_distance_encoding(qpipeline.cost_rows(source.cost) if g is None else dg,
                                           margin=args.margin, audit=audit)
    return methods, pairs, be, audit


def _run(args: argparse.Namespace) -> tuple[dict, int]:
    """compute runs one method per edge; compare runs the classical partner
    and the qsim route per edge and adds the comparison fields. A run
    whose methods are all classical spreads its edge loop over up to
    `cpus` processes, _EDGE_GATE cells each (`_workers`); the `tree` method
    and the qsim routes keep theirs in process."""
    cpus = _cpus()
    methods, pairs, be, audit = _prepare(args, cpus)

    def edge_record(i: int) -> dict:
        edge, nb = pairs[i]
        try:
            results = [_run_method(args, m, nb, be, audit) for m in methods]
        except OrcError as exc:
            raise _SolverFailure(edge, exc) from exc
        rec = _record(nb, results[-1])
        if args.command == "compare":
            rec.update(_comparison(args, nb, be, *results))
        return rec

    # the gate was measured on LP edges; a `tree` edge takes O(p + q), and
    # two processes were slower than one from 10 000 to 476 000 cells
    workers = 1 if methods[-1] in QSIM_METHODS or methods[-1] == "tree" else _workers(
        cpus, sum(nb.p * nb.q for _, nb in pairs), _EDGE_GATE)
    if workers == 1:
        records = [edge_record(i) for i in range(len(pairs))]
    else:
        from .spread import spread
        records = spread(edge_record, len(pairs), workers)
    report = {
        "meta": {"version": __version__, "config": _config_echo(args)},
        "records": records,
    }
    code = 0
    if args.command == "compare":
        ok = all(r["within_tol"] for r in records)
        report["summary"] = {
            "classical_method": methods[0],
            "qsim_method": methods[-1],
            "max_abs_diff": max((r["abs_diff"] for r in records), default=0.0),
            "max_rel_diff": max((r["rel_diff"] for r in records), default=0.0),
            "within_tol": ok,
        }
        code = 0 if ok else 1
    _write_trace(args, audit)
    return report, code


def _cmd_fixture(args: argparse.Namespace) -> int:
    filename, content = _FIXTURES[args.name]
    path = Path(args.dir) / filename
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write --dir {args.dir!r}: {exc}") from exc
    _write_stdout(f"{path}\n", "the fixture path")
    return 0


# --------------------------------------------------------------------------
# output
# --------------------------------------------------------------------------

class _SolverFailure(Exception):
    def __init__(self, edge: tuple[int, int] | None, cause: OrcError) -> None:
        label = "" if edge is None else f"edge {edge}: "
        super().__init__(f"{label}{type(cause).__name__}: {cause}")
        self.edge = edge
        self.cause = cause


def _report_to_csv(report: dict) -> str:
    """One row per record, its fields in record order; a run selects at
    least one edge, and every record of a run has the same fields."""
    records = report["records"]
    fields = [k for k in records[0] if k != "diagnostics"]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, extrasaction="ignore",
                            lineterminator="\n")
    writer.writeheader()
    writer.writerows(records)
    return buf.getvalue()


def _emit_report(args: argparse.Namespace, report: dict) -> None:
    with _unlimited_int_digits():
        if args.out_format == "json":
            text = json.dumps(report, sort_keys=True, indent=2, default=_exact_json,
                              allow_nan=False) + "\n"
        else:
            text = _report_to_csv(report)
    if args.out:
        _write_file(args.out, text, "--out")
    else:
        _write_stdout(text, "the report")


def _write_trace(args: argparse.Namespace, audit: AuditTrail | None) -> None:
    if audit is None:
        return
    lines = [json.dumps(rec, sort_keys=True, default=str, allow_nan=False)
             for rec in audit.records]
    _write_file(args.trace, "\n".join(lines) + "\n", "--trace")


def _write_stdout(text: str, what: str) -> None:
    """Write and flush text, so a full, broken or closed stdout exits 2 here."""
    if sys.stdout is None:    # Python's stdout when the process starts without fd 1
        raise ConfigError(f"cannot write {what} to stdout: it is closed")
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        raise ConfigError(f"cannot write {what} to stdout: {exc}") from exc


def _write_file(path: str, text: str, option: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {option} {path!r}: {exc}") from exc


def _tell(message: str) -> None:
    """Write an `orc:` line to stderr. A missing, closed or full stderr
    loses the line, and changes neither the exit code nor stdout."""
    if sys.stderr is None:    # Python's stderr when the process starts without fd 2
        return
    try:
        sys.stderr.write(f"orc: {message}\n")
        sys.stderr.flush()
    except OSError:
        pass


def main(argv=None) -> int:
    if "numpy" not in sys.modules:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    start = time.monotonic()
    try:
        if args.command == "fixture":
            return _cmd_fixture(args)
        _check_values(args)
        args.edge = _parse_edges(args.edge)
        report, code = _run(args)
        _emit_report(args, report)
        return code
    except ConfigError as exc:
        _tell(f"config error: {exc}")
        return 2
    except _SolverFailure as exc:
        _tell(f"solver error: {exc}")
        return 3
    except OrcError as exc:
        _tell(f"solver error: {type(exc).__name__}: {exc}")
        return 3
    finally:
        _tell(f"finished in {time.monotonic() - start:.3f}s")


def entry() -> NoReturn:
    """`main` as a process of its own. The collector stays off for the
    run, and the freeze leaves the exit-time collections an empty heap;
    `sys.exit` keeps the normal exit: atexit handlers, stream flushes and
    the exit code, all of which os._exit would skip."""
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
