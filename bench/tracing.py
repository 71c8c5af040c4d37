"""Spans at the library's module boundaries, recorded from the benchmark's side.

A Tracer replaces module attributes (the names one module imports from
another) with timing wrappers while it is installed, and puts the originals
back when it is removed.  Each call through a wrapper records a span: name,
layer, start and end (ns of the thread's CPU clock, like the end-to-end
times), parent span and the id of the public call it belongs to.  Spans
stay in memory until the run writes them out.  A name that the library no
longer has is listed as absent rather than failing, so the benchmark
survives refactors.

complexmath calls take microseconds and are not wrapped; their time is in
the descent numbers.  polynomial.evaluate is counted, not timed, for the
same reason.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Optional

# (module, attribute, span name, layer).  The span is named after the layer
# that does the work, the attribute is where the caller looks it up.
SPANNED = (
    ("dalembert", "find_root", "solver.find_root", "solver"),
    ("dalembert", "find_all_roots", "solver.find_all_roots", "solver"),
    ("dalembert.cli", "main", "cli.main", "cli"),
    ("dalembert.cli", "parse_polynomial", "cli.parse_polynomial", "cli"),
    ("dalembert.cli", "find_root", "solver.find_root", "solver"),
    ("dalembert.cli", "find_all_roots", "solver.find_all_roots", "solver"),
    ("dalembert.cli", "certified_min", "gridmin.certified_min", "gridmin"),
    ("dalembert.cli", "growth_certificate", "growth.growth_certificate", "growth"),
    ("dalembert.solver", "growth_certificate", "growth.growth_certificate", "growth"),
    ("dalembert.solver", "minimum_enclosing_square", "growth.minimum_enclosing_square", "growth"),
    ("dalembert.solver", "polynomial_objective", "gridmin.polynomial_objective", "gridmin"),
    ("dalembert.solver", "minimize_with_bound", "gridmin.minimize_with_bound", "gridmin"),
    ("dalembert.solver", "certified_min", "gridmin.certified_min", "gridmin"),
    ("dalembert.solver", "descend", "descent.descend", "descent"),
    ("dalembert.solver", "deflate", "polynomial.deflate", "polynomial"),
    ("dalembert.solver", "from_roots", "polynomial.from_roots", "polynomial"),
    ("dalembert.descent", "shift", "polynomial.shift", "polynomial"),
)
COUNTED = (("dalembert.descent", "evaluate", "polynomial.evaluate"),)

# Result attributes kept on a span, by span name.
_KEEP = {
    "gridmin.minimize_with_bound": ("evaluations", "budget_exhausted", "value", "gap"),
    "gridmin.certified_min": ("evaluations", "budget_exhausted", "value", "gap"),
    "descent.descend": ("iterations", "converged"),
    "growth.growth_certificate": ("enclosure_radius",),
    "growth.minimum_enclosing_square": ("side",),
}


@dataclass
class Span:
    id: int
    parent: int  # -1 for a span opened directly by the benchmark
    call: int
    name: str
    layer: str
    start: int = 0
    end: int = 0
    info: Optional[dict] = None


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    absent: list = field(default_factory=list)
    fp_warnings: int = 0
    call: int = -1
    _stack: list = field(default_factory=list)
    _saved: list = field(default_factory=list)

    def install(self) -> None:
        for module_name, attr, name, layer in SPANNED:
            original = self._lookup(module_name, attr)
            if original is not None:
                self._patch(module_name, attr, self._span_wrapper(original, name, layer))
        for module_name, attr, name in COUNTED:
            original = self._lookup(module_name, attr)
            if original is not None:
                self.counts.setdefault(name, 0)
                self._patch(module_name, attr, self._count_wrapper(original, name))

    def remove(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self._warnings = warnings.catch_warnings()
        self._warnings.__enter__()
        warnings.simplefilter("always", RuntimeWarning)
        warnings.showwarning = self._on_warning
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()
        self._warnings.__exit__(*exc)

    def _lookup(self, module_name: str, attr: str):
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(f"{module_name}.{attr}")
        return original

    def _patch(self, module_name: str, attr: str, wrapper) -> None:
        module = sys.modules[module_name]
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _span_wrapper(self, original, name: str, layer: str):
        keep = _KEEP.get(name, ())
        signature = inspect.signature(original) if name == "descent.descend" else None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else -1
            span = Span(len(self.spans), parent, self.call, name, layer)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.thread_time_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.thread_time_ns()
                self._stack.pop()
            if keep:
                span.info = {k: getattr(result, k) for k in keep if hasattr(result, k)}
                if signature is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.info["max_iter"] = bound.arguments.get("max_iter")
            return result

        return wrapper

    def _count_wrapper(self, original, name: str):
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    def _on_warning(self, message, category, filename, lineno, file=None, line=None):
        if any(span.layer == "gridmin" for span in self._stack):
            self.fp_warnings += 1


def _median(values, default=0.0) -> float:
    return float(statistics.median(values)) if values else default


def layer_metrics(tracer: Tracer, out_bytes: int, root_scale: dict) -> dict[str, Any]:
    """Per-layer numbers of one traced pass.

    root_scale maps a call id to max |reference root| of its input, for the
    enclosure-radius ratio.  Times are in ms, summed over the pass.
    """
    spans = tracer.spans
    dur = [(s.end - s.start) / 1e6 for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s.parent >= 0:
            child[s.parent] += d

    def inclusive(pred) -> float:
        return sum(d for s, d in zip(spans, dur) if pred(s))

    def self_time(layer) -> float:
        return sum(d - c for s, d, c in zip(spans, dur, child) if s.layer == layer)

    def parent_layer(s) -> Optional[str]:
        return spans[s.parent].layer if s.parent >= 0 else None

    bnb = [s for s in spans if s.info and "evaluations" in s.info and parent_layer(s) != "gridmin"]
    seed = [s for s in bnb if parent_layer(s) == "solver"]
    solver_calls = [s for s in spans if s.layer == "solver" and parent_layer(s) != "solver"]
    descends = [s for s in spans if s.name == "descent.descend"]
    steps = sum(s.info.get("iterations", 0) for s in descends if s.info)
    at_max_iter = sum(
        1 for s in descends
        if s.info and not s.info.get("converged") and s.info.get("iterations") == s.info.get("max_iter")
    )
    cells = sum(s.info["evaluations"] for s in bnb)
    gridmin_ms = inclusive(lambda s: s.layer == "gridmin" and parent_layer(s) != "gridmin")
    descent_ms = inclusive(lambda s: s.name == "descent.descend")
    evaluations = tracer.counts.get("polynomial.evaluate", 0)

    gaps = []
    for s in seed:
        value, gap = s.info.get("value", 0.0), s.info.get("gap", 0.0)
        rel = gap / value if value > 0 else (0.0 if gap == 0 else float("inf"))
        gaps.append(min(rel, sys.float_info.max))

    ratios, seen = [], set()
    for s in spans:
        if s.layer == "growth" and s.info and s.call not in seen and root_scale.get(s.call):
            seen.add(s.call)
            radius = s.info.get("enclosure_radius", s.info.get("side", 0.0) / 2.0)
            ratios.append(radius / root_scale[s.call])

    return {
        "cli.self_ms": self_time("cli"),
        "cli.parse_ms": inclusive(lambda s: s.name == "cli.parse_polynomial"),
        "cli.out_bytes": out_bytes,
        "solver.self_ms": self_time("solver"),
        "solver.seed_calls": len(seed) / len(solver_calls) if solver_calls else 0.0,
        "solver.deflate_ms": inclusive(lambda s: s.name == "polynomial.deflate"),
        "solver.reconstruct_ms": inclusive(lambda s: s.name == "polynomial.from_roots"),
        "gridmin.ms": gridmin_ms,
        "gridmin.cells": cells,
        "gridmin.cells_per_s": cells / (gridmin_ms / 1e3) if gridmin_ms else 0.0,
        "gridmin.budget_exhausted_frac": (
            sum(1 for s in bnb if s.info.get("budget_exhausted")) / len(bnb) if bnb else 0.0
        ),
        "gridmin.seed_gap_rel_p50": _median(gaps),
        "gridmin.fp_warnings": tracer.fp_warnings,
        "growth.ms": inclusive(lambda s: s.layer == "growth" and parent_layer(s) != "growth"),
        "growth.radius_ratio_p50": _median(ratios),
        "descent.ms": descent_ms,
        "descent.steps": steps,
        "descent.ms_per_step": descent_ms / steps if steps else 0.0,
        "descent.evals_per_step": evaluations / steps if steps else 0.0,
        "descent.max_iter_frac": at_max_iter / len(descends) if descends else 0.0,
        "polynomial.shift_ms": inclusive(lambda s: s.name == "polynomial.shift"),
        "polynomial.shift_calls": sum(1 for s in spans if s.name == "polynomial.shift"),
        "polynomial.evaluate_calls": evaluations,
    }


# Every per-layer metric: unit and which direction is better.
LAYER_METRICS = {
    "cli.self_ms": ("ms", "lower"),
    "cli.parse_ms": ("ms", "lower"),
    "cli.out_bytes": ("B", "lower"),
    "solver.self_ms": ("ms", "lower"),
    "solver.seed_calls": ("ratio", "lower"),
    "solver.deflate_ms": ("ms", "lower"),
    "solver.reconstruct_ms": ("ms", "lower"),
    "gridmin.ms": ("ms", "lower"),
    "gridmin.cells": ("count", "lower"),
    "gridmin.cells_per_s": ("1/s", "higher"),
    "gridmin.budget_exhausted_frac": ("ratio", "lower"),
    "gridmin.seed_gap_rel_p50": ("ratio", "lower"),
    "gridmin.fp_warnings": ("count", "lower"),
    "growth.ms": ("ms", "lower"),
    "growth.radius_ratio_p50": ("ratio", "lower"),
    "descent.ms": ("ms", "lower"),
    "descent.steps": ("count", "lower"),
    "descent.ms_per_step": ("ms", "lower"),
    "descent.evals_per_step": ("ratio", "lower"),
    "descent.max_iter_frac": ("ratio", "lower"),
    "polynomial.shift_ms": ("ms", "lower"),
    "polynomial.shift_calls": ("count", "lower"),
    "polynomial.evaluate_calls": ("count", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.absent_names": ("count", "lower"),
}

# Counts that must repeat exactly from one pass to the next.
EXACT = (
    "cli.out_bytes",
    "solver.seed_calls",
    "gridmin.cells",
    "gridmin.fp_warnings",
    "descent.steps",
    "polynomial.shift_calls",
    "polynomial.evaluate_calls",
)


def write_spans(tracer_list, path) -> None:
    """Tab-separated spans of every traced pass: pass, call, id, parent, name, layer, start_ns, end_ns."""
    with open(path, "w", encoding="utf-8") as out:
        out.write("pass\tcall\tid\tparent\tname\tlayer\tstart_ns\tend_ns\n")
        for number, tracer in enumerate(tracer_list, start=1):
            for s in tracer.spans:
                out.write(f"{number}\t{s.call}\t{s.id}\t{s.parent}\t{s.name}\t{s.layer}\t{s.start}\t{s.end}\n")
