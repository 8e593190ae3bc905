"""Span tracer that instruments ultraflow from outside.

Each traced call is recorded by replacing the attribute the caller looks up:
a module global (for functions, in every ultraflow module that holds a
reference to it) or a class attribute (for methods).  Nothing under ``src/``
changes; ``Tracer.uninstall`` puts every original back.

A span has a name, start, end and parent.  Spans stay in memory and are
written out when the run ends.  Hot calls (the padded and plain transforms,
the IMEX step and its right-hand side, region classification and its root
solves, and the descent projection) are only aggregated per (name, parent
name) as count, total time and self time, so that a few hundred thousand
calls per pass do not bloat memory; every other span is also kept
individually.  Self time is a span's duration minus the time its child
spans cover.
"""

from __future__ import annotations

import functools
import statistics
import sys
from time import perf_counter

import numpy as np

from ultraflow import cli, constants, counterexamples, discretization, flows, functionals
from ultraflow import improvements

MODULES = (sys.modules["ultraflow"], cli, constants, counterexamples, discretization,
           flows, functionals, improvements)

# span name -> callables recorded under it, as (owner, attribute)
FUNCTION_SPANS = {
    "functionals.report": [(functionals, "dissipation_heat"),
                           (functionals, "dissipation_nonlinear")],
    "functionals.cdc": [(functionals, "cdc_triple")],
    "functionals.scalar": [(functionals, n) for n in ("entropy", "fisher", "deficit", "quotient")],
    "flows.sample": [(flows, "_sample_report")],
    "flows.rhs": [(flows, "_full_rhs")],
    "constants.classify": [(constants, "classify_region")],
    "constants.beta_roots": [(constants, "beta_roots")],
    "improvements.project": [(improvements, "project_feasible")],
    "improvements.verify": [(improvements, "verify_improved_inequality")],
    "counterexamples.obstruction": [(counterexamples, "first_obstruction"),
                                    (counterexamples, "second_obstruction")],
    "cli.emit": [(cli, "_emit"), (constants, "region_rows_to_csv")],
    **{f"cli.{c}": [(cli, f"cmd_{c}")]
       for c in ("constants", "region", "flow", "counterexample", "improve", "verify")},
}
METHOD_SPANS = {
    "discretization.quad_build": [(discretization.Quadrature, "__init__")],
    "discretization.xform": [(discretization.Quadrature, n) for n in
                             ("to_values", "to_coeffs", "derivative_values",
                              "second_derivative_values")],
    "discretization.padded": [(discretization.Quadrature, n) for n in
                              ("padded_values", "padded_derivative", "project_padded")],
    "cli.emit": [(flows.Trajectory, "to_csv"), (discretization.GridFn, "to_csv")],
}
HOT = {"discretization.xform", "discretization.padded", "flows.imex", "flows.rhs",
       "constants.classify", "constants.beta_roots", "improvements.project"}
FLOP_SPANS = ("discretization.xform", "discretization.padded")


class Tracer:
    def __init__(self):
        self._stack = []  # open spans: [name, start, child_time, span_id]
        self.aggregates = {}  # (name, parent name) -> [count, total_s, self_s]
        self.spans = []  # cold spans: (id, parent id, name, start, end)
        self.counters = {"flop.discretization.xform": 0, "flop.discretization.padded": 0,
                         "imex.accepted": 0, "imex.rejected": 0, "descent.iters": 0}
        self.accepted_dt = []
        self._pending_step = None  # (coefficient array, dt) of the last IMEX attempt
        self._next_id = 0
        self._patches = []

    # -- recording ------------------------------------------------------------

    def span(self, name, fn):
        """``fn`` wrapped so that every call records a span called ``name``."""
        stack, aggregates, spans, hot = self._stack, self.aggregates, self.spans, name in HOT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            frame = [name, perf_counter(), 0.0, self._next_id]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += dur
                key = (name, parent[0] if parent is not None else None)
                agg = aggregates.get(key)
                if agg is None:
                    agg = aggregates[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[2]
                if not hot:
                    spans.append((frame[3], parent[3] if parent is not None else None,
                                  name, frame[1], end))

        return traced

    def _flop_span(self, name, fn):
        """Span plus a computed flop count: 2 * rows * cols per matvec."""
        traced = self.span(name, fn)
        counters, key = self.counters, f"flop.{name}"

        @functools.wraps(fn)
        def counted(quad, x):
            out = traced(quad, x)
            counters[key] += 2 * out.shape[0] * np.size(x)
            return out

        return counted

    def _imex_span(self, fn):
        """IMEX step span that tells accepted from rejected attempts.

        ``_advance_to`` retries a rejected step with the same coefficient
        array and moves on with the returned one, so an attempt was rejected
        exactly when the next attempt passes the same array again.
        """
        traced = self.span("flows.imex", fn)

        @functools.wraps(fn)
        def attempt(form, spec, quad, c, dt):
            if self._pending_step is not None:
                self._resolve_step(self._pending_step[0] is not c)
            self._pending_step = (c, dt)
            return traced(form, spec, quad, c, dt)

        return attempt

    def _controller_span(self, fn):
        traced = self.span("flows.controller", fn)

        @functools.wraps(fn)
        def advance(*args, **kwargs):
            try:
                out = traced(*args, **kwargs)
            except BaseException:
                self._resolve_step(False)
                raise
            self._resolve_step(True)
            return out

        return advance

    def _resolve_step(self, accepted):
        if self._pending_step is None:
            return
        if accepted:
            self.counters["imex.accepted"] += 1
            self.accepted_dt.append(self._pending_step[1])
        else:
            self.counters["imex.rejected"] += 1
        self._pending_step = None

    def _descent_span(self, fn):
        traced = self.span("improvements.descent", fn)

        @functools.wraps(fn)
        def descent(*args, **kwargs):
            est = traced(*args, **kwargs)
            self.counters["descent.iters"] += est.iterations
            return est

        return descent

    # -- installation ---------------------------------------------------------

    def _patch_function(self, original, wrapper):
        """Replace ``original`` in every ultraflow namespace that refers to it."""
        found = False
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
                    found = True
        if not found:
            raise LookupError(f"{original.__qualname__} is referenced by no ultraflow module")

    def _patch_method(self, cls, attr, wrapper):
        self._patches.append((cls, attr, vars(cls)[attr]))
        setattr(cls, attr, wrapper)

    def install(self):
        for name, targets in FUNCTION_SPANS.items():
            for owner, attr in targets:
                fn = getattr(owner, attr)
                self._patch_function(fn, self.span(name, fn))
        for name, targets in METHOD_SPANS.items():
            for cls, attr in targets:
                fn = vars(cls)[attr]
                wrap = self._flop_span if name in FLOP_SPANS else self.span
                self._patch_method(cls, attr, wrap(name, fn))
        self._patch_function(flows._imex_step, self._imex_span(flows._imex_step))
        self._patch_function(flows._advance_to, self._controller_span(flows._advance_to))
        self._patch_function(improvements.estimate_lambda_star,
                             self._descent_span(improvements.estimate_lambda_star))

        quad_cls = discretization.Quadrature
        pad_tables = vars(quad_cls)["_pad_tables"]
        pad_build = self.span("discretization.pad_build", pad_tables)

        @functools.wraps(pad_tables)
        def first_pad_build(quad):
            return pad_build(quad) if quad._padded is None else pad_tables(quad)

        self._patch_method(quad_cls, "_pad_tables", first_pad_build)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def count(self, name):
        return sum(a[0] for (n, _), a in self.aggregates.items() if n == name)

    def seconds(self, name):
        """Inclusive time of the outermost spans called ``name``."""
        return sum((a[1] for (n, parent), a in self.aggregates.items()
                    if n == name and parent != name), 0.0)

    def self_seconds(self, name):
        return sum((a[2] for (n, _), a in self.aggregates.items() if n == name), 0.0)

    def layer_metrics(self):
        """Per-layer metric values, keyed as in BENCHMARK.json's per_layer."""
        dts = self.accepted_dt
        c = self.counters
        out = {
            "discretization.quad_build.count": self.count("discretization.quad_build"),
            "discretization.quad_build.s": self.seconds("discretization.quad_build"),
            "discretization.pad_build.count": self.count("discretization.pad_build"),
            "discretization.pad_build.s": self.seconds("discretization.pad_build"),
            "discretization.xform.count": self.count("discretization.xform"),
            "discretization.xform.s": self.seconds("discretization.xform"),
            "discretization.xform.flop": c["flop.discretization.xform"],
            "discretization.padded.count": self.count("discretization.padded"),
            "discretization.padded.s": self.seconds("discretization.padded"),
            "discretization.padded.flop": c["flop.discretization.padded"],
            "flows.imex.attempts": self.count("flows.imex"),
            "flows.imex.accepted": c["imex.accepted"],
            "flows.imex.rejected": c["imex.rejected"],
            "flows.imex.s": self.seconds("flows.imex"),
            "flows.rhs.count": self.count("flows.rhs"),
            "flows.rhs.s": self.seconds("flows.rhs"),
            "flows.controller.s": self.self_seconds("flows.controller"),
            "flows.dt.min": min(dts) if dts else 0.0,
            "flows.dt.median": statistics.median(dts) if dts else 0.0,
            "flows.dt.max": max(dts) if dts else 0.0,
            "flows.sample.s": self.seconds("flows.sample"),
            "functionals.report.count": self.count("functionals.report"),
            "functionals.report.s": self.seconds("functionals.report"),
            "functionals.cdc.count": self.count("functionals.cdc"),
            "functionals.scalar.count": self.count("functionals.scalar"),
            "functionals.scalar.s": self.seconds("functionals.scalar"),
            "constants.classify.count": self.count("constants.classify"),
            "constants.classify.s": self.seconds("constants.classify"),
            "constants.beta_roots.count": self.count("constants.beta_roots"),
            "improvements.descent.iters": c["descent.iters"],
            "improvements.descent.s": self.seconds("improvements.descent"),
            "improvements.project.count": self.count("improvements.project"),
            "improvements.verify.s": self.seconds("improvements.verify"),
            "counterexamples.obstruction.count": self.count("counterexamples.obstruction"),
            "counterexamples.obstruction.s": self.seconds("counterexamples.obstruction"),
            "cli.emit.s": self.seconds("cli.emit"),
        }
        for command in ("constants", "region", "flow", "counterexample", "improve", "verify"):
            out[f"cli.{command}.s"] = self.seconds(f"cli.{command}")
        return out

    def dump(self):
        """JSON-ready record of every span and aggregate."""
        return {
            "spans": {"fields": ["id", "parent", "name", "start", "end"], "rows": self.spans},
            "aggregates": [{"name": n, "parent": p, "count": a[0], "total_s": a[1], "self_s": a[2]}
                           for (n, p), a in sorted(self.aggregates.items(), key=str)],
            "counters": self.counters,
        }
