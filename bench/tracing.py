"""In-memory span tracing of dupcox's public functions, and per-layer metrics.

A traced operation temporarily replaces each public function of the
library's layers (data, design, cox, inference, simlab, cli) with a wrapper
that records one span: name, start, end, parent and a few counts read from
the arguments or the result.  Every module namespace that holds the function
is patched, so calls between modules are traced too, in the order the
library makes them.  The originals are restored when the operation ends.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import dupcox
from dupcox import cli, cox, data, design, inference, simlab

ROOT_SPAN = "bench.op"

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("data.load_s", "s", "lower"),
    ("data.validate_s", "s", "lower"),
    ("data.input_bytes", "bytes", "lower"),
    ("data.fingerprint_s", "s", "lower"),
    ("data.rows", "count", "higher"),
    ("design.augment_s", "s", "lower"),
    ("design.build_s", "s", "lower"),
    ("design.single_s", "s", "lower"),
    ("design.rows", "count", "lower"),
    ("design.columns", "count", "lower"),
    ("design.x_bytes", "bytes", "lower"),
    ("cox.fit_s", "s", "lower"),
    ("cox.iterations", "count", "lower"),
    ("cox.s_per_iteration", "s", "lower"),
    ("cox.sandwich_s", "s", "lower"),
    ("cox.strata_used", "count", "higher"),
    ("cox.events", "count", "higher"),
    ("cox.converged_ratio", "ratio", "higher"),
    ("inference.wald_s", "s", "lower"),
    ("inference.report_s", "s", "lower"),
    ("inference.compare_self_s", "s", "lower"),
    ("simlab.simulate_s", "s", "lower"),
    ("simlab.replicate_s", "s", "lower"),
    ("simlab.naive_s", "s", "lower"),
    ("simlab.replicate_failures", "count", "lower"),
    ("cli.main_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("trace.op_s", "s", "lower"),
    ("trace.untraced_op_s", "s", "lower"),
    ("trace.stage_sum_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _rows_of_first_arg(args, result):
    return {"rows": len(args[0])}


def _load_counts(args, result):
    return {"rows": len(result), "input_bytes": os.path.getsize(args[0])}


def _design_counts(args, result):
    return {"rows": len(result), "columns": result.n_columns, "x_bytes": result.X.nbytes}


def _fit_counts(args, result):
    diag = result.diagnostics
    return {"fits": 1, "iterations": result.iterations, "converged": int(result.converged),
            "strata_used": diag.n_strata_used, "events": diag.n_events}


def _calibration_counts(args, result):
    return {"replicates": result.n_replicates, "failures": result.n_failures}


def _main_counts(args, result):
    argv = list(args[0]) if args else []
    path = argv[argv.index("--output") + 1] if "--output" in argv else None
    return {"output_bytes": os.path.getsize(path) if path and os.path.exists(path) else 0}


def _traced_functions() -> dict:
    """Public function -> (span name, counts read from its arguments/result)."""
    table = {
        data.load_dataset: ("data.load", _load_counts),
        data.validate: ("data.validate", None),
        data.Dataset.fingerprint: ("data.fingerprint", None),
        design.duplicate_augment: ("design.augment", None),
        design.build_design_matrix: ("design.build", _design_counts),
        design.single_exposure_design: ("design.single", _design_counts),
        cox.fit: ("cox.fit", _fit_counts),
        cox.robust_covariance: ("cox.sandwich", None),
        inference.compare_exposures: ("inference.compare_exposures", _rows_of_first_arg),
        inference.wald_multivariate: ("inference.wald", None),
        inference.render_table: ("inference.report", None),
        inference.ComparisonReport.to_dict: ("inference.report", None),
        simlab.estimate_type1_error: ("simlab.estimate_type1_error", _calibration_counts),
        simlab.simulate_cohort: ("simlab.simulate", None),
        cli.main: ("cli.main", _main_counts),
    }
    # The naive separate-fit baseline has no public entry point; trace the
    # helper while it exists, and read zero once it is gone.
    naive = getattr(simlab, "_naive_p", None)
    if naive is not None:
        table[naive] = ("simlab.naive", None)
    return table


# Namespaces searched for the traced functions: every dupcox module, plus the
# classes whose methods are traced.
_NAMESPACES = (dupcox, data, design, cox, inference, simlab, cli,
               data.Dataset, inference.ComparisonReport)


@dataclass
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps every span in memory; the caller writes them out once, at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op = 0

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), parent, self._op, name, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if counts is not None:
                s.attrs = counts(args, result)
            return result
        return traced

    @contextmanager
    def operation(self, index: int):
        """Trace one operation under a root span, with the library patched."""
        table = _traced_functions()
        wrappers = {fn: self._wrap(fn, name, counts) for fn, (name, counts) in table.items()}
        patched = []
        try:
            for owner in _NAMESPACES:
                for attr, value in list(vars(owner).items()):
                    if callable(value) and value in wrappers:
                        patched.append((owner, attr, value))
                        setattr(owner, attr, wrappers[value])
            self._op = index
            with self.span(ROOT_SPAN):
                yield
        finally:
            for owner, attr, value in reversed(patched):
                setattr(owner, attr, value)

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _child_time(spans: list[Span]) -> dict:
    """Span id -> summed duration of its direct children."""
    out = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            out[s.parent] += s.duration
    return out


def _op_metrics(spans: list[Span]) -> dict:
    """Per-layer figures of one traced operation."""
    child_time = _child_time(spans)
    total = defaultdict(float)
    self_time = defaultdict(float)
    attr_sum = defaultdict(float)
    attr_max = defaultdict(float)
    root = None
    for s in spans:
        if s.name == ROOT_SPAN:
            root = s
        total[s.name] += s.duration
        self_time[s.name] += s.duration - child_time[s.id]
        for key, value in s.attrs.items():
            attr_sum[s.name, key] += value
            attr_max[s.name, key] = max(attr_max[s.name, key], value)

    fits = attr_sum["cox.fit", "fits"]
    iterations = attr_sum["cox.fit", "iterations"]
    replicates = attr_sum["simlab.estimate_type1_error", "replicates"]

    def largest_design(key):
        return max(attr_max["design.build", key], attr_max["design.single", key])

    return {
        "data.load_s": total["data.load"],
        "data.validate_s": total["data.validate"],
        "data.input_bytes": attr_max["data.load", "input_bytes"],
        "data.fingerprint_s": total["data.fingerprint"],
        "data.rows": attr_sum["inference.compare_exposures", "rows"],
        "design.augment_s": total["design.augment"],
        "design.build_s": total["design.build"],
        "design.single_s": total["design.single"],
        "design.rows": largest_design("rows"),
        "design.columns": largest_design("columns"),
        "design.x_bytes": largest_design("x_bytes"),
        "cox.fit_s": self_time["cox.fit"],
        "cox.iterations": iterations,
        "cox.s_per_iteration": self_time["cox.fit"] / iterations if iterations else 0.0,
        "cox.sandwich_s": total["cox.sandwich"],
        "cox.strata_used": attr_sum["cox.fit", "strata_used"],
        "cox.events": attr_sum["cox.fit", "events"],
        "cox.converged_ratio": attr_sum["cox.fit", "converged"] / fits if fits else 0.0,
        "inference.wald_s": total["inference.wald"],
        "inference.report_s": total["inference.report"],
        "inference.compare_self_s": self_time["inference.compare_exposures"],
        "simlab.simulate_s": total["simlab.simulate"],
        "simlab.replicate_s": (total["simlab.estimate_type1_error"] / replicates
                               if replicates else 0.0),
        "simlab.naive_s": total["simlab.naive"],
        "simlab.replicate_failures": attr_sum["simlab.estimate_type1_error", "failures"],
        "cli.main_s": total["cli.main"],
        "cli.self_s": self_time["cli.main"],
        "cli.output_bytes": attr_max["cli.main", "output_bytes"],
        "trace.stage_sum_s": child_time[root.id],
    }


def layer_metrics(spans: list[Span], traced_s: list[float], untraced_s: list[float]) -> dict:
    """Median over traced operations of each per-layer figure."""
    by_op = defaultdict(list)
    for s in spans:
        by_op[s.op].append(s)
    per_op = [_op_metrics(op_spans) for op_spans in by_op.values()]
    out = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
    out["trace.op_s"] = statistics.median(traced_s)
    out["trace.untraced_op_s"] = statistics.median(untraced_s)
    out["trace.overhead_s"] = out["trace.op_s"] - out["trace.untraced_op_s"]
    return out


def self_time_by_span(spans: list[Span]) -> dict:
    """Mean self time per operation of each span name (sums to the op time)."""
    child_time = _child_time(spans)
    ops = len({s.op for s in spans})
    out = defaultdict(float)
    for s in spans:
        out[s.name] += (s.duration - child_time[s.id]) / ops
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))
