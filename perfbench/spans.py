"""Outside-in tracing of the `orcurv` layers.

A Tracer wraps every public function and public method of the layer
modules (`graph`, `transport`, `qpipeline`, `blockenc`, `cli`) at every
module attribute the program reaches it through: `cli.w1_tree_qsim` and
`qpipeline.w1_tree_qsim` are the same function bound twice, and both
bindings are replaced. Spans stay in memory; `summary()` turns them into
per-function calls, self time and span durations, and `uninstall()` puts
every original attribute back.

Spans nest through one stack, so the tracer assumes the program runs its
layers on one thread. That holds for the default `--workers 1`; a
parallel executor would need per-thread stacks and wait-time spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

LAYERS = ("graph", "transport", "qpipeline", "blockenc", "cli")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into the span list, -1 for a root span
    size: int = 0        # computed work size, for functions with a sizer


def covered_length(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of `intervals`."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - covered_length(s.start, s.end, children[i])
            for i, s in enumerate(spans)]


def _sizer_dilated_apply(args, kwargs):
    phi = kwargs.get("phi", args[1] if len(args) > 1 else None)
    return phi.dim


def _sizer_build_dp(args, kwargs):
    p = len(kwargs.get("ds", args[0] if args else ()))
    return p * p ** p


#: computed work sizes, read from the arguments (state dimension, p * p^p)
SIZERS = {
    "blockenc.dilated_apply": _sizer_dilated_apply,
    "qpipeline.build_DP": _sizer_build_dp,
}


def discover(package: str = "orcurv") -> tuple[dict, list]:
    """Public functions and public methods of the layer modules.

    Returns ({function: name}, [(class, attribute, descriptor, name)]).
    A method is named after its layer and attribute, as `graph.has_edge`.
    """
    functions: dict = {}
    methods: list = []
    names: set[str] = set()
    for layer in LAYERS:
        mod = importlib.import_module(f"{package}.{layer}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                functions[obj] = f"{layer}.{attr}"
                names.add(f"{layer}.{attr}")
            elif inspect.isclass(obj):
                for mname, desc in vars(obj).items():
                    if mname.startswith("_"):
                        continue
                    if isinstance(desc, (staticmethod, classmethod)) or inspect.isfunction(desc):
                        methods.append((obj, mname, desc, f"{layer}.{mname}"))
    for _, _, _, name in methods:
        if name in names:
            raise ValueError(f"traced name {name!r} is not unique")
        names.add(name)
    return functions, methods


class Tracer:
    """Collects spans from wrapped `orcurv` functions while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        sizer = SIZERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1,
                        sizer(args, kwargs) if sizer else 0)
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        return traced

    def install(self, package: str = "orcurv") -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        functions, methods = discover(package)
        wrappers = {fn: self.wrap(name, fn) for fn, name in functions.items()}
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for cls, mname, desc, name in methods:
            if isinstance(desc, (staticmethod, classmethod)):
                replacement = type(desc)(self.wrap(name, desc.__func__))
            else:
                replacement = self.wrap(name, desc)
            self._patched.append((cls, mname, desc))
            setattr(cls, mname, replacement)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per function: calls, self seconds, span durations and work size."""
        out: dict = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            row = out.setdefault(span.name, {"calls": 0, "self_s": 0.0,
                                             "durations_s": [], "elements": 0})
            row["calls"] += 1
            row["self_s"] += own
            row["durations_s"].append(span.end - span.start)
            row["elements"] += span.size
        return out

    def root_seconds(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent < 0)
