"""Span tracer for the benchmark's traced run.

The tracer replaces every module binding of the named frameiso functions
(``solver``, ``cli`` and ``paulsen`` import them by name, so patching the
defining module alone would miss most calls) and of ``numpy.linalg``'s
``eigh``, ``svd`` and ``det`` with wrappers that record a span per call:
name, start, end, parent span and operation id.  Self time is a span's
duration minus the time its child spans cover.  Aggregates are kept for
every span; full span records only while ``record`` is set.  The original
bindings are restored on exit.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# Layer (frameiso module) -> public functions timed at its boundary.
LAYER_FUNCTIONS = {
    "frames": ("is_generic", "column_span_dim", "frame_operator"),
    "objective": (
        "scaled_frame_operator",
        "log_det_potential_grad",
        "enumerate_minors",
        "grad_via_minors",
    ),
    "solver": ("minimize",),
    "polytope": ("in_orbit_polytope", "in_relative_interior"),
    "paulsen": ("paulsen_round", "perturb_to_generic"),
    "quiver": ("nearness",),
    "io": ("read_frame_file", "write_frame_file", "encode_report"),
    "cli": ("main",),
}
LINALG_FUNCTIONS = ("eigh", "svd", "det")
OP_SPAN = "bench.op"

# Per-layer metrics of the traced run: (name, unit, better).
PER_LAYER = (
    ("polytope.in_orbit_polytope.calls", "count", "lower"),
    ("polytope.in_orbit_polytope.self_s", "s", "lower"),
    ("polytope.in_relative_interior.calls", "count", "lower"),
    ("frames.column_span_dim.calls", "count", "lower"),
    ("frames.column_span_dim.self_s", "s", "lower"),
    ("frames.is_generic.calls", "count", "lower"),
    ("frames.is_generic.self_s", "s", "lower"),
    ("frames.is_generic.minors", "count", "lower"),
    ("frames.frame_operator.calls", "count", "lower"),
    ("objective.scaled_frame_operator.calls", "count", "lower"),
    ("objective.scaled_frame_operator.self_s", "s", "lower"),
    ("objective.log_det_potential_grad.calls", "count", "lower"),
    ("objective.log_det_potential_grad.self_s", "s", "lower"),
    ("objective.enumerate_minors.calls", "count", "lower"),
    ("objective.enumerate_minors.self_s", "s", "lower"),
    ("objective.enumerate_minors.terms", "count", "lower"),
    ("objective.grad_via_minors.calls", "count", "lower"),
    ("linalg.eigh.calls", "count", "lower"),
    ("linalg.eigh.self_s", "s", "lower"),
    ("linalg.svd.calls", "count", "lower"),
    ("linalg.svd.self_s", "s", "lower"),
    ("linalg.det.calls", "count", "lower"),
    ("solver.minimize.calls", "count", "lower"),
    ("solver.minimize.self_s", "s", "lower"),
    ("solver.iterations", "count", "lower"),
    ("solver.eigh_per_iteration", "ratio", "lower"),
    ("paulsen.paulsen_round.calls", "count", "lower"),
    ("paulsen.paulsen_round.self_s", "s", "lower"),
    ("paulsen.perturb_to_generic.calls", "count", "lower"),
    ("paulsen.perturb_to_generic.self_s", "s", "lower"),
    ("paulsen.generic_accept_ratio", "ratio", "higher"),
    ("quiver.nearness.calls", "count", "lower"),
    ("quiver.nearness.self_s", "s", "lower"),
    ("io.read_frame_file.self_s", "s", "lower"),
    ("io.write_frame_file.self_s", "s", "lower"),
    ("io.encode_report.self_s", "s", "lower"),
    ("io.bytes_out", "bytes", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# Counts that must repeat exactly for the same seed.
EXACT = tuple(name for name, unit, _ in PER_LAYER if unit in ("count", "bytes"))


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _count_minors(tracer, args, kwargs, result):
    frame = _first_arg(args, kwargs, "frame")
    tracer.extra["frames.is_generic.minors"] += math.comb(frame.total_cols, frame.d)


def _count_terms(tracer, args, kwargs, result):
    tracer.extra["objective.enumerate_minors.terms"] += len(result)


def _count_iterations(tracer, args, kwargs, result):
    tracer.extra["solver.iterations"] += result.iterations


def _count_file_bytes(tracer, args, kwargs, result):
    tracer.extra["io.bytes_out"] += os.path.getsize(_first_arg(args, kwargs, "path"))


_AFTER = {
    "frames.is_generic": _count_minors,
    "objective.enumerate_minors": _count_terms,
    "solver.minimize": _count_iterations,
    "io.write_frame_file": _count_file_bytes,
}


class Tracer:
    """Records spans while ``enabled``; inert otherwise."""

    def __init__(self):
        self.enabled = False
        self._patches = []
        self.reset(record=False)

    def reset(self, record: bool):
        """Clear the aggregates; keep full span records when ``record``."""
        self.record = record
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.extra = Counter()
        self.spans = []  # [name, start, end, parent index, op id]
        self.op_id = -1
        self._stack = []  # open spans: [name, start, child seconds, index]
        self._minimize_depth = 0

    def enter(self, name: str) -> list:
        if name == "solver.minimize":
            self._minimize_depth += 1
        elif name == "linalg.eigh" and self._minimize_depth:
            self.extra["solver.eigh_calls"] += 1
        index = -1
        if self.record:
            index = len(self.spans)
            parent = self._stack[-1][3] if self._stack else -1
            self.spans.append([name, 0.0, 0.0, parent, self.op_id])
        entry = [name, time.perf_counter(), 0.0, index]
        self._stack.append(entry)
        return entry

    def exit(self, entry: list):
        end = time.perf_counter()
        name, start, child_s, index = entry
        duration = end - start
        self._stack.pop()
        if self._stack:
            self._stack[-1][2] += duration
        self.calls[name] += 1
        self.self_s[name] += duration - child_s
        if name == "solver.minimize":
            self._minimize_depth -= 1
        if index >= 0:
            self.spans[index][1] = start
            self.spans[index][2] = end

    @contextlib.contextmanager
    def operation(self, op_id: int):
        """Root span of one benchmark operation."""
        self.op_id = op_id
        entry = self.enter(OP_SPAN)
        try:
            yield
        finally:
            self.exit(entry)

    def _wrap(self, name: str, fn):
        after = _AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            entry = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(entry)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    def _patch(self, name: str, original, modules):
        wrapper = self._wrap(name, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding of the traced functions; restore on exit."""
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "frameiso" or key.startswith("frameiso."))
        ]
        targets = []
        for layer, names in LAYER_FUNCTIONS.items():
            module = sys.modules.get(f"frameiso.{layer}")
            for fname in names:
                original = getattr(module, fname, None)
                if callable(original):
                    targets.append((f"{layer}.{fname}", original))
        for fname in LINALG_FUNCTIONS:
            targets.append((f"linalg.{fname}", getattr(np.linalg, fname)))
        try:
            for name, original in targets:
                self._patch(name, original, modules + [np.linalg])
            yield self
        finally:
            self.enabled = False
            for module, attr, original in reversed(self._patches):
                setattr(module, attr, original)
            self._patches.clear()

    def layer_metrics(self) -> dict:
        """Per-layer metrics; the caller sets trace.overhead_ratio."""
        out = {}
        for name, unit, _ in PER_LAYER:
            span, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = self.calls[span]
            elif kind == "self_s":
                out[name] = self.self_s[span]
            else:
                out[name] = self.extra[name]
        iterations = self.extra["solver.iterations"]
        out["solver.eigh_per_iteration"] = (
            self.extra["solver.eigh_calls"] / iterations if iterations else 0.0
        )
        generic = self.calls["frames.is_generic"]
        out["paulsen.generic_accept_ratio"] = (
            self.calls["paulsen.perturb_to_generic"] / generic if generic else 0.0
        )
        return out


def write_spans(spans, path):
    """Span records as CSV, times in seconds from the first span."""
    origin = spans[0][1] if spans else 0.0
    lines = ["index,name,start_s,end_s,parent,op"]
    for index, (name, start, end, parent, op) in enumerate(spans):
        lines.append(
            f"{index},{name},{start - origin:.9f},{end - origin:.9f},{parent},{op}"
        )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
