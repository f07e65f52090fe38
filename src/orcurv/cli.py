"""Command-line front end: `orc compute|compare|fixture`.

compute runs one curvature method over selected edges and writes a JSON
or CSV report; compare runs a classical/quantum-simulation pair per edge
and fails (exit 1) when the difference exceeds the tolerance; fixture
writes small named input files. Exit codes: 0 ok, 1 comparison failure,
2 configuration error, 3 solver error.

Reports are byte-identical for identical configuration (including the
seed): timing goes to stderr, never into the report.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import __version__
from .errors import ConfigError, InvalidWeight, OrcError, UnknownFixture
from .graph import (
    GeodesicMatrix,
    Graph,
    LocalNeighborhood,
    all_pairs_geodesic,
    load_graph,
    neighborhood,
    parse_fraction,
)
from .qpipeline import (
    AuditTrail,
    QsimConfig,
    build_distance_encoding,
    cost_grid,
    tree_qsim_standard_error,
    w1_pq_qsim,
    w1_tree_qsim,
)
from .transport import QSIM_METHODS, CurvatureResult, curvature, verify_tree

_FIXTURES = {
    "appendix_a": (
        "appendix_a.json",
        json.dumps({"cost": [[1, 3, 3, 2], [2, 3, 3, 3], [3, 2, 2, 3]], "dxy": 1}) + "\n",
    ),
    "path4": ("path4.txt", "0 1\n1 2\n2 3\n"),
    "star": ("star.txt", "0 1\n0 2\n0 3\n"),
}

_QSIM_PARTNER = {"qsim_tree": "tree", "qsim_pq": "assignment"}


@dataclass
class RunConfig:
    """Validated CLI options plus the loaded instance."""

    command: str
    input_path: str | None
    format: str
    method: str
    qsim_method: str
    edges: list[tuple[int, int]] | None
    all_edges: bool
    include_endpoints: bool
    numeric: str
    tol: float
    out: str | None
    out_format: str
    trace: str | None
    qsim: QsimConfig


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
        sp.add_argument("--margin", type=float, default=0.05)
        sp.add_argument("--eps", type=float, default=1e-10)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--shots", type=int, default=None)
        sp.add_argument("--include-endpoints", action="store_true")
        sp.add_argument("--cap", type=int, default=10 ** 6)
        sp.add_argument("--out", default=None, help="report path (default: stdout)")
        sp.add_argument("--out-format", choices=["json", "csv"], default="json")
        sp.add_argument("--trace", default=None, help="audit-trace JSON lines path")

    sp_compute = sub.add_parser("compute", help="curvature with one method")
    add_common(sp_compute)
    sp_compute.add_argument(
        "--method", default="lp",
        choices=["lp", "tree", "assignment", "brute_force", "qsim_tree", "qsim_pq"])

    sp_compare = sub.add_parser("compare", help="classical vs quantum-sim per edge")
    add_common(sp_compare)
    sp_compare.add_argument("--qsim-method", default="auto",
                            choices=["auto", "qsim_tree", "qsim_pq"])
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


def _check_numeric_options(args: argparse.Namespace) -> None:
    """Refuse out-of-range numeric options before any work starts."""
    tol = getattr(args, "tol", 0.0)    # compare only
    bounds = [
        ("--shots", args.shots, args.shots is None or args.shots >= 1, "an integer >= 1"),
        ("--seed", args.seed, args.seed >= 0, "an integer >= 0"),
        ("--cap", args.cap, args.cap >= 1, "an integer >= 1"),
        ("--margin", args.margin, math.isfinite(args.margin) and args.margin >= 0,
         "a finite number >= 0"),
        ("--eps", args.eps, math.isfinite(args.eps) and args.eps > 0,
         "a finite number > 0"),
        ("--tol", tol, math.isfinite(tol) and tol >= 0, "a finite number >= 0"),
    ]
    for option, value, ok, expected in bounds:
        if not ok:
            raise ConfigError(f"{option} must be {expected}, got {value!r}")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    _check_numeric_options(args)
    return RunConfig(
        command=args.command,
        input_path=args.input,
        format=args.format,
        method=getattr(args, "method", "lp"),
        qsim_method=getattr(args, "qsim_method", "auto"),
        edges=_parse_edges(args.edge),
        all_edges=args.all_edges,
        include_endpoints=args.include_endpoints,
        numeric=args.numeric,
        tol=getattr(args, "tol", 1e-8),
        out=args.out,
        out_format=args.out_format,
        trace=args.trace,
        qsim=QsimConfig(
            margin=args.margin,
            shots=args.shots,
            seed=args.seed,
            eps=args.eps,
            dim_cap=args.cap,
        ),
    )


def _config_echo(cfg: RunConfig) -> dict:
    echo = {
        "command": cfg.command,
        "input": cfg.input_path,
        "format": cfg.format,
        "method": cfg.method,
        "numeric": cfg.numeric,
        "edges": [list(e) for e in cfg.edges] if cfg.edges else None,
        "all_edges": cfg.all_edges,
        "margin": cfg.qsim.margin,
        "eps": cfg.qsim.eps,
        "seed": cfg.qsim.seed,
        "shots": cfg.qsim.shots,
        "include_endpoints": cfg.include_endpoints,
        "cap": cfg.qsim.dim_cap,
    }
    if cfg.command == "compare":
        echo["qsim_method"] = cfg.qsim_method
        echo["tol"] = cfg.tol
    return echo


# --------------------------------------------------------------------------
# instance loading and validation
# --------------------------------------------------------------------------

@dataclass
class _Instance:
    dg: GeodesicMatrix | None    # None for a cost-matrix fixture
    is_tree: bool
    #: the selected edges, each with its neighborhood; a cost-matrix
    #: fixture is one record with no edge (None)
    pairs: list[tuple[tuple[int, int] | None, LocalNeighborhood]]


def _load_instance(cfg: RunConfig) -> _Instance:
    try:
        text = Path(cfg.input_path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read input {cfg.input_path!r}: {exc}") from exc
    if cfg.format == "cost_matrix":
        parse_float = float if cfg.numeric == "float" else parse_fraction
        try:
            obj = json.loads(text, parse_float=parse_float)
        except (ValueError, InvalidWeight) as exc:
            # JSONDecodeError, an over-long integer, or an over-long exponent
            raise ConfigError(f"invalid cost-matrix JSON: {exc}") from exc
        if not isinstance(obj, dict) or "cost" not in obj or "dxy" not in obj:
            raise ConfigError('cost-matrix input must be {"cost": [[...]], "dxy": r}')
        nb = _cost_fixture(obj["cost"], obj["dxy"], cfg.numeric)
        for option, given in (("--edge", cfg.edges), ("--all-edges", cfg.all_edges),
                              ("--include-endpoints", cfg.include_endpoints)):
            if given:
                raise ConfigError(f"{option} needs a graph input, not a cost-matrix fixture")
        return _Instance(dg=None, is_tree=False, pairs=[(None, nb)])
    try:
        g = load_graph(text, format=cfg.format, numeric=cfg.numeric)
    except OrcError as exc:
        raise ConfigError(f"cannot parse input: {exc}") from exc
    dg = all_pairs_geodesic(g)
    pairs = []
    for u, v in _select_edges(cfg, g):
        try:
            nb = neighborhood(g, dg, u, v, include_endpoints=cfg.include_endpoints)
        except OrcError as exc:
            raise _SolverFailure((u, v), exc) from exc
        pairs.append(((u, v), nb))
    return _Instance(dg=dg, is_tree=verify_tree(g), pairs=pairs)


def _cost_fixture(cost, dxy, numeric: str) -> LocalNeighborhood:
    """Neighborhood of a cost-matrix fixture whose entries are all numbers."""
    if not isinstance(cost, list) or not all(isinstance(row, list) for row in cost):
        raise ConfigError(f'"cost" must be a list of rows, got {type(cost).__name__}')
    for v in [*(v for row in cost for v in row), dxy]:
        if isinstance(v, bool) or not isinstance(v, (int, Fraction, float)):
            raise ConfigError(f"cost-matrix value {v!r} is not a number")
        if v < 0:
            raise ConfigError(f"cost-matrix value {v!r} is negative")
    try:
        if numeric == "float":
            cost = [[float(v) for v in row] for row in cost]
            dxy = float(dxy)
        return LocalNeighborhood.from_cost(cost, dxy)
    except OverflowError as exc:
        raise ConfigError(f"cost-matrix entry too large for float mode: {exc}") from exc
    except OrcError as exc:
        raise ConfigError(f"bad cost-matrix fixture: {exc}") from exc


def _select_edges(cfg: RunConfig, g: Graph) -> list[tuple[int, int]]:
    if cfg.all_edges and cfg.edges:
        raise ConfigError("use either --edge or --all-edges, not both")
    if cfg.all_edges:
        edges = [(u, v) for u, v, _ in g.edges]
        if not cfg.include_endpoints:
            # leaf edges have an empty neighborhood on one side; skip them
            degree = [len(g.neighbors(v)) for v in range(g.vertex_count)]
            edges = [(u, v) for u, v in edges if degree[u] > 1 and degree[v] > 1]
        if not edges:
            raise ConfigError("no edges with nonempty neighborhoods to process")
        return edges
    if cfg.edges:
        for u, v in cfg.edges:
            if not g.has_edge(u, v):
                raise ConfigError(f"({u}, {v}) is not an edge of the input graph")
        return cfg.edges
    raise ConfigError("select edges with --edge u,v or --all-edges")


def _validate_method(cfg: RunConfig, inst: _Instance, method: str) -> None:
    if method == "qsim_pq" and cfg.qsim.shots is not None:
        raise ConfigError("method 'qsim_pq' has no shot-noise model; drop --shots")
    if method in ("tree", "qsim_tree"):
        if inst.dg is None:
            raise ConfigError(f"method {method!r} needs a graph input, "
                              "not a cost-matrix fixture")
        if not inst.is_tree:
            raise ConfigError(f"NotATree: method {method!r} needs a tree graph")
    if method in ("assignment", "brute_force", "qsim_pq"):
        for edge, nb in inst.pairs:
            if nb.p != nb.q:
                where = "the cost matrix" if edge is None else f"edge {edge}"
                raise ConfigError(f"NotSquare: {where} has "
                                  f"p={nb.p}, q={nb.q} for method {method!r}")


# --------------------------------------------------------------------------
# execution
# --------------------------------------------------------------------------

def _distance_encoding(cfg: RunConfig, inst: _Instance, audit: AuditTrail | None):
    """The (be, meta) every qsim edge of this run queries, built once."""
    dist = inst.dg if inst.dg is not None else cost_grid(inst.pairs[0][1].cost)
    return build_distance_encoding(
        dist, margin=cfg.qsim.margin, power_mode=cfg.qsim.power_mode,
        power_degree=cfg.qsim.power_degree,
        power_eps_target=cfg.qsim.power_eps_target, audit=audit)


def _run_method(cfg: RunConfig, method: str, nb: LocalNeighborhood, encoding,
                audit: AuditTrail | None) -> CurvatureResult:
    if method == "qsim_tree":
        return w1_tree_qsim(nb, encoding, cfg.qsim, audit=audit)
    if method == "qsim_pq":
        return w1_pq_qsim(nb, encoding, cfg.qsim, audit=audit)
    return curvature(nb, method=method)


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


def _ser(v):
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return int(v)
        with _unlimited_int_digits():
            return str(v)
    return v


def _record(nb: LocalNeighborhood, result: CurvatureResult) -> dict:
    rec = {
        "x": result.x,
        "y": result.y,
        "p": nb.p,
        "q": nb.q,
        "w1": _ser(result.w1),
        "dxy": _ser(result.dxy),
        "curvature": _ser(result.curvature),
        "method": result.method,
    }
    diag = result.diagnostics
    if diag is not None:
        rec["diagnostics"] = {
            "value": diag.value,
            "iterations": diag.iterations,
            "initial_overlap": diag.initial_overlap,
            "gap_proxy": diag.gap_proxy,
            "converged": diag.converged,
        }
    return rec


def _cmd_compute(cfg: RunConfig) -> tuple[dict, int]:
    inst = _load_instance(cfg)
    _validate_method(cfg, inst, cfg.method)
    audit = AuditTrail() if cfg.trace else None
    encoding = (_distance_encoding(cfg, inst, audit)
                if cfg.method in QSIM_METHODS else None)
    records = []
    for edge, nb in inst.pairs:
        try:
            result = _run_method(cfg, cfg.method, nb, encoding, audit)
        except OrcError as exc:
            raise _SolverFailure(edge, exc) from exc
        records.append(_record(nb, result))
    report = {
        "meta": {"version": __version__, "config": _config_echo(cfg)},
        "records": records,
    }
    _write_trace(cfg, audit)
    return report, 0


def _cmd_compare(cfg: RunConfig) -> tuple[dict, int]:
    inst = _load_instance(cfg)
    qsim_method = cfg.qsim_method
    if qsim_method == "auto":
        qsim_method = "qsim_tree" if inst.is_tree else "qsim_pq"
    classical = _QSIM_PARTNER[qsim_method]
    _validate_method(cfg, inst, classical)
    _validate_method(cfg, inst, qsim_method)
    audit = AuditTrail() if cfg.trace else None
    encoding = _distance_encoding(cfg, inst, audit)
    records = []
    for edge, nb in inst.pairs:
        try:
            res_c = _run_method(cfg, classical, nb, None, None)
            res_q = _run_method(cfg, qsim_method, nb, encoding, audit)
        except OrcError as exc:
            raise _SolverFailure(edge, exc) from exc
        abs_diff = abs(float(res_c.w1) - float(res_q.w1))
        rel_diff = abs_diff / max(abs(float(res_c.w1)), 1e-300)
        tol = cfg.tol
        if cfg.qsim.shots is not None and qsim_method == "qsim_tree":
            se = tree_qsim_standard_error(nb, encoding, cfg.qsim)
            tol = max(tol, 5.0 * se)
        rec = _record(nb, res_q)
        rec.update({
            "w1_classical": _ser(res_c.w1),
            "w1_qsim": res_q.w1,
            "abs_diff": abs_diff,
            "rel_diff": rel_diff,
            "tol": tol,
            "within_tol": abs_diff <= tol,
        })
        records.append(rec)
    max_abs = max((r["abs_diff"] for r in records), default=0.0)
    max_rel = max((r["rel_diff"] for r in records), default=0.0)
    ok = all(r["within_tol"] for r in records)
    report = {
        "meta": {"version": __version__, "config": _config_echo(cfg)},
        "summary": {
            "classical_method": classical,
            "qsim_method": qsim_method,
            "max_abs_diff": max_abs,
            "max_rel_diff": max_rel,
            "within_tol": ok,
        },
        "records": records,
    }
    _write_trace(cfg, audit)
    return report, 0 if ok else 1


def _cmd_fixture(args: argparse.Namespace) -> int:
    name = args.name
    if name not in _FIXTURES:
        raise UnknownFixture(f"unknown fixture {name!r}")
    filename, content = _FIXTURES[name]
    path = Path(args.dir) / filename
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write --dir {args.dir!r}: {exc}") from exc
    print(str(path))
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
    records = report["records"]
    fields = ["x", "y", "p", "q", "w1", "dxy", "curvature", "method"]
    extras = ["w1_classical", "w1_qsim", "abs_diff", "rel_diff", "tol", "within_tol"]
    if records and "w1_classical" in records[0]:
        fields = fields + extras
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, extrasaction="ignore",
                            lineterminator="\n")
    writer.writeheader()
    for rec in records:
        writer.writerow({k: rec.get(k) for k in fields})
    return buf.getvalue()


def _emit_report(cfg: RunConfig, report: dict) -> None:
    with _unlimited_int_digits():
        if cfg.out_format == "json":
            text = json.dumps(report, sort_keys=True, indent=2) + "\n"
        else:
            text = _report_to_csv(report)
    if cfg.out:
        _write_file(cfg.out, text, "--out")
    else:
        sys.stdout.write(text)


def _write_trace(cfg: RunConfig, audit: AuditTrail | None) -> None:
    if audit is None or cfg.trace is None:
        return
    lines = [json.dumps(rec, sort_keys=True, default=str) for rec in audit.records]
    _write_file(cfg.trace, "\n".join(lines) + "\n", "--trace")


def _write_file(path: str, text: str, option: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {option} {path!r}: {exc}") from exc


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    start = time.monotonic()
    try:
        if args.command == "fixture":
            return _cmd_fixture(args)
        cfg = _config_from_args(args)
        if args.command == "compute":
            report, code = _cmd_compute(cfg)
        else:
            report, code = _cmd_compare(cfg)
        _emit_report(cfg, report)
        return code
    except ConfigError as exc:
        print(f"orc: config error: {exc}", file=sys.stderr)
        return 2
    except UnknownFixture as exc:
        print(f"orc: {exc}", file=sys.stderr)
        return 2
    except _SolverFailure as exc:
        print(f"orc: solver error: {exc}", file=sys.stderr)
        return 3
    except OrcError as exc:
        print(f"orc: solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        print(f"orc: finished in {time.monotonic() - start:.3f}s", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
