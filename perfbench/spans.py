"""Span tracing for the benchmark's traced run, and the per-layer table derived from it.

The tracer wraps otdetect's public functions as the calling module sees
them (``otdetect.cli.run_sweep`` rather than ``otdetect.sweep.run_sweep``),
so each span sits on a layer boundary.  It is installed only in the traced
worker process.  Spans stay in memory until the worker writes them out.
"""

from __future__ import annotations

import functools
import itertools
import os
import statistics
import threading
from time import perf_counter, thread_time

# (module the caller lives in, function names it imported, layer of those functions)
WRAPPED = (
    ("cli", ("run_sweep", "emit_csv"), "sweep"),
    ("sweep", ("run_batch",), "protocol"),
    (
        "sweep",
        ("analytic_error_probs", "expected_transmissions", "transmission_savings_bounds"),
        "analysis",
    ),
    ("sweep", ("deflection_coefficient", "optimal_attack_strength"), "attack"),
    (
        "analysis",
        ("abs_llr_cdf", "abs_llr_pdf", "llr_mixture", "population_moments", "q_function"),
        "core",
    ),
)
ROOT = "cli.main"
LAYER_OF = {ROOT: "cli"}
LAYER_OF.update(
    {f"{module}.{name}": layer for module, names, layer in WRAPPED for name in names}
)
LAYERS = ("cli", "sweep", "protocol", "analysis", "attack", "core")

# Span tuple fields, in order.
FIELDS = ("id", "parent", "name", "call", "thread", "t0", "t1", "cpu0", "cpu1", "attrs")


def _attrs_run_batch(args, kwargs, result):
    return {
        "trials": result.n_trials,
        "mean_stop_k": result.mean_stop_k.value,
        "n_sensors": result.config.n_sensors,
    }


def _attrs_expected_transmissions(args, kwargs, result):
    return {"samples": result.n_samples}


def _attrs_run_sweep(args, kwargs, result):
    workers = kwargs.get("workers", args[1] if len(args) > 1 else 1)
    return {"points": len(result.rows), "workers": workers}


def _attrs_emit_csv(args, kwargs, result):
    return {"bytes": os.path.getsize(result)}


ATTRS = {
    "sweep.run_batch": _attrs_run_batch,
    "sweep.expected_transmissions": _attrs_expected_transmissions,
    "cli.run_sweep": _attrs_run_sweep,
    "cli.emit_csv": _attrs_emit_csv,
}


class Tracer:
    """Records (name, start, end, parent, thread) spans in memory.

    Each thread keeps its own stack of open spans.  A span opened on a
    thread with no open span (a sweep pool worker) takes as parent the
    innermost open span of the thread that installed the tracer, which is
    the ``run_sweep`` call waiting on the pool.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.call = 0
        self._ids = itertools.count(1)
        self._main_thread = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            sid = next(self._ids)
            stack.append(sid)
            result = None
            t0, c0 = perf_counter(), thread_time()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                c1, t1 = thread_time(), perf_counter()
                stack.pop()
                attrs = attrs_of(args, kwargs, result) if attrs_of and result is not None else None
                self.spans.append(
                    (sid, parent, name, self.call, threading.get_ident(), t0, t1, c0, c1, attrs)
                )

        return traced

    def install(self) -> None:
        """Replace each wrapped function in its calling module by a traced one."""
        import importlib

        for module_name, names, _ in WRAPPED:
            module = importlib.import_module(f"otdetect.{module_name}")
            for name in names:
                setattr(module, name, self.wrap(f"{module_name}.{name}", getattr(module, name)))


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its duration minus the part its child spans cover.

    Children on the span's own thread nest and do not overlap; children on
    pool threads can overlap each other, so coverage is the union of the
    child intervals, not their sum.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["t0"], s["t1"]))
    return {
        s["id"]: (s["t1"] - s["t0"]) - _covered(children.get(s["id"], []), s["t0"], s["t1"])
        for s in spans
    }


def _call_metrics(spans: list[dict], self_s: dict[int, float]) -> dict[str, float]:
    """The per-layer metrics of one CLI call."""

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total_self(names):
        return sum(self_s[s["id"]] for s in spans if s["name"] in names)

    def total_dur(group):
        return sum(s["t1"] - s["t0"] for s in group)

    batches = named("sweep.run_batch")
    trials = sum(s["attrs"]["trials"] for s in batches)
    bounds = named("sweep.transmission_savings_bounds")
    estimates = named("sweep.expected_transmissions")
    sweeps = named("cli.run_sweep")
    emits = named("cli.emit_csv")
    core = [s for s in spans if LAYER_OF[s["name"]] == "core"]
    sweep_ids = {s["id"] for s in sweeps}
    busy = sum(s["cpu1"] - s["cpu0"] for s in spans if s["parent"] in sweep_ids)
    capacity = sum((s["t1"] - s["t0"]) * s["attrs"]["workers"] for s in sweeps)
    m = {
        "protocol.run_batch.calls": len(batches),
        "protocol.trials": trials,
        "protocol.run_batch.self_s": total_self({"sweep.run_batch"}),
        "protocol.run_batch.us_per_trial": 1e6 * total_dur(batches) / trials if trials else 0.0,
        "protocol.stop_fraction": (
            sum(s["attrs"]["mean_stop_k"] / s["attrs"]["n_sensors"] * s["attrs"]["trials"]
                for s in batches) / trials
            if trials
            else 0.0
        ),
        "analysis.transmission_savings_bounds.self_s": total_self(
            {"sweep.transmission_savings_bounds"}
        ),
        "analysis.transmission_savings_bounds.ms_per_point": (
            1e3 * total_dur(bounds) / len(bounds) if bounds else 0.0
        ),
        "analysis.expected_transmissions.self_s": total_self({"sweep.expected_transmissions"}),
        "analysis.expected_transmissions.samples": sum(s["attrs"]["samples"] for s in estimates),
        "analysis.analytic_error_probs.self_s": total_self({"sweep.analytic_error_probs"}),
        "attack.self_s": total_self(
            {"sweep.deflection_coefficient", "sweep.optimal_attack_strength"}
        ),
        "core.calls": len(core),
        "core.self_s": sum(self_s[s["id"]] for s in core),
        "sweep.points": sum(s["attrs"]["points"] for s in sweeps),
        "sweep.self_s": total_self({"cli.run_sweep"}),
        "sweep.emit_csv_s": total_dur(emits),
        "sweep.csv_bytes": sum(s["attrs"]["bytes"] for s in emits),
        "sweep.parallel_efficiency": busy / capacity if capacity else 0.0,
        "cli.self_s": total_self({ROOT}),
    }
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = sum(
            self_s[s["id"]] for s in spans if LAYER_OF[s["name"]] == layer
        )
    return m


def layer_table(span_rows: list[list]) -> dict[str, float]:
    """Per-layer metrics, each the median over the traced CLI calls."""
    spans = [dict(zip(FIELDS, row)) for row in span_rows]
    self_s = self_times(spans)
    by_call: dict[int, list[dict]] = {}
    for s in spans:
        by_call.setdefault(s["call"], []).append(s)
    per_call = [_call_metrics(group, self_s) for _, group in sorted(by_call.items())]
    return {key: statistics.median(m[key] for m in per_call) for key in per_call[0]}
