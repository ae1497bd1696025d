"""Layer spans for the benchmark's traced runs, and their aggregation.

The child harness (``child.py``) calls :func:`install` before
``repro.cli.main`` runs.  It wraps public functions of the program at
the names where their callers look them up (a module attribute, or a
class attribute for methods), so the program itself is unchanged.  Each
call records a span: name, start, end, parent span and run id.  Spans
stay in memory; the child writes them to its result file at exit.
Every workload runs in one process (no ``--jobs`` above 1), so the
child's spans are the whole trace.

:func:`layer_metrics` turns one traced repetition (all its invocations)
into the per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import statistics
import time

#: Span name -> the (module, attribute) names it wraps.  A dotted
#: attribute names a method on a class.  Names bound to the same
#: function share one wrapper.
SPANS = (
    ("traffic.run", (("repro.traffic", "run_traffic"), ("repro.traffic.run", "run_traffic"))),
    (
        "traffic.schedule",
        (("repro.traffic.run", "build_schedule"), ("repro.traffic.schedule", "build_schedule")),
    ),
    ("traffic.window", (("repro.traffic.run", "run_window"),)),
    ("traffic.splice", (("repro.traffic.run", "splice_windows"),)),
    (
        "traffic.record",
        (("repro.traffic", "record_traffic"), ("repro.traffic.recording", "record_traffic")),
    ),
    ("properties.ab1", (("repro.properties.broadcast", "check_validity"),)),
    ("properties.ab2", (("repro.properties.broadcast", "check_agreement"),)),
    ("properties.ab3", (("repro.properties.broadcast", "check_at_most_once"),)),
    ("properties.ab4", (("repro.properties.broadcast", "check_non_triviality"),)),
    ("properties.ab5", (("repro.properties.broadcast", "check_total_order"),)),
    (
        "batchreplay.evaluate",
        (("repro.analysis.batchreplay", "BatchReplayEvaluator.evaluate"),),
    ),
    ("verification", (("repro.analysis.verification", "verify_consistency"),)),
    ("enumeration", (("repro.analysis.enumeration", "enumerate_tail_patterns"),)),
    ("sweep.run", (("repro.sweep", "run_sweep"), ("repro.sweep.run", "run_sweep"))),
    ("sweep.plan", (("repro.sweep", "pending_cells"), ("repro.sweep.run", "pending_cells"))),
    (
        "sweep.cell",
        (("repro.sweep.cell", "evaluate_cell"), ("repro.sweep.cell", "evaluate_traffic_cell")),
    ),
    ("sweep.store.append", (("repro.sweep.store", "ResultStore.append"),)),
    ("sweep.store.compact", (("repro.sweep.store", "ResultStore.compact"),)),
)

#: Every module the wrappers touch.  The child imports these in traced
#: and untraced runs alike, so set-up time is the same in both.
MODULES = tuple(sorted({module for _, names in SPANS for module, _ in names}))

#: The route counters ``BatchReplayEvaluator.stats`` keeps.
ROUTES = ("batch", "scalar", "header", "engine")

#: Backends ``WindowResult.backend`` names.
WINDOW_BACKENDS = ("batch", "resume", "engine")


def counters() -> dict:
    """This process's cumulative cache counters."""
    from repro.can.encoding import header_shape, wire_program
    from repro.traffic.batch import window_cache_stats

    window = window_cache_stats()
    return {
        "window_cache.hits": window["hits"],
        "window_cache.misses": window["misses"],
        "wire_program.misses": wire_program.cache_info().misses,
        "header_shape.misses": header_shape.cache_info().misses,
    }


class Tracer:
    """In-memory span recorder of the child process."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.pid = os.getpid()
        self.spans: list = []
        self.stack: list = []
        self.baseline = counters()

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append(
            {
                "name": name,
                "id": index,
                "parent": self.stack[-1] if self.stack else None,
                "run": self.run_id,
                "pid": self.pid,
                "start": time.monotonic(),
                "end": None,
            }
        )
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index]["end"] = time.monotonic()
        self.stack.pop()

    def delta(self) -> dict:
        """Counters accumulated by this process since its baseline."""
        now = counters()
        return {key: now[key] - self.baseline[key] for key in now}


def _span(tracer: Tracer, name: str, fn):
    """Wrap ``fn`` in a span, with the span's attributes from :data:`_AFTER`."""
    snapshot = _BEFORE.get(name)
    after = _AFTER.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        before = snapshot(args) if snapshot else None
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if after is not None:
            tracer.spans[index].update(after(args, result, before))
        return result

    return traced


def _window_attrs(args, result, before):
    return {"backend": result.backend, "bits": result.bits}


def _record_attrs(args, result, before):
    return {"bytes": os.path.getsize(args[0])}


def _route_attrs(args, result, before):
    stats = args[0].stats
    return {"routes": {key: stats.get(key, 0) - before.get(key, 0) for key in ROUTES}}


#: Span name -> state taken before the call, handed to its ``_AFTER`` hook.
_BEFORE = {"batchreplay.evaluate": lambda args: dict(args[0].stats)}

#: Span name -> ``hook(args, result, before)`` returning span attributes.
_AFTER = {
    "traffic.window": _window_attrs,
    "traffic.record": _record_attrs,
    "batchreplay.evaluate": _route_attrs,
}


def install(run_id: str) -> Tracer:
    """Wrap every name in :data:`SPANS`; returns the process's tracer."""
    tracer = Tracer(run_id)
    wrappers: dict = {}
    for name, targets in SPANS:
        for module_name, attribute in targets:
            owner = importlib.import_module(module_name)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            if id(original) not in wrappers:
                wrappers[id(original)] = _span(tracer, name, original)
            setattr(owner, leaf, wrappers[id(original)])
    return tracer


# ---------------------------------------------------------------------------
# Aggregation (runner side)
# ---------------------------------------------------------------------------


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _self_times(spans: list) -> dict:
    """Span (pid, id) -> duration minus the durations of its children."""
    child_time: dict = {}
    for span in spans:
        if span["parent"] is not None:
            key = (span["pid"], span["parent"])
            child_time[key] = child_time.get(key, 0.0) + _duration(span)
    return {
        (span["pid"], span["id"]): _duration(span)
        - child_time.get((span["pid"], span["id"]), 0.0)
        for span in spans
    }


def _percentile(values: list, share: float) -> float:
    """Nearest-rank percentile of ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def layer_metrics(invocations: list) -> dict:
    """Per-layer metrics of one traced repetition.

    ``invocations`` holds one dict per CLI process, each with ``wall``
    and ``setup`` seconds, the child's ``spans`` and its ``counters``.
    """
    spans: list = []
    count_totals: dict = {}
    for invocation in invocations:
        spans.extend(invocation["spans"])
        for key, value in invocation["counters"].items():
            count_totals[key] = count_totals.get(key, 0) + value
    self_time = _self_times(spans)

    def named(name):
        return [span for span in spans if span["name"] == name]

    def total(name):
        return sum(_duration(span) for span in named(name))

    def self_total(name):
        return sum(self_time[(s["pid"], s["id"])] for s in named(name))

    wall = sum(invocation["wall"] for invocation in invocations)
    setup = sum(invocation["setup"] for invocation in invocations)
    covered = setup + sum(_duration(span) for span in spans if span["parent"] is None)

    metrics = {"process.import_s": setup, "traffic.schedule_s": total("traffic.schedule")}
    windows = named("traffic.window")
    metrics["traffic.window_s"] = total("traffic.window")
    simulated_bits, simulated_s = 0, 0.0
    for backend in WINDOW_BACKENDS:
        chosen = [span for span in windows if span["backend"] == backend]
        seconds = sum(_duration(span) for span in chosen)
        metrics["traffic.window.%s_s" % backend] = seconds
        metrics["traffic.window.%s_n" % backend] = len(chosen)
        if backend != "batch":
            simulated_bits += sum(span["bits"] for span in chosen)
            simulated_s += seconds
    metrics["traffic.engine_bits_per_s"] = simulated_bits / simulated_s if simulated_s else 0.0
    metrics["traffic.window_cache.hits"] = count_totals.get("window_cache.hits", 0)
    metrics["traffic.window_cache.misses"] = count_totals.get("window_cache.misses", 0)
    metrics["traffic.splice_self_s"] = self_total("traffic.splice")
    metrics["traffic.record_s"] = total("traffic.record")
    metrics["traffic.record_bytes"] = sum(span["bytes"] for span in named("traffic.record"))
    checks = 0.0
    for number in range(1, 6):
        seconds = total("properties.ab%d" % number)
        metrics["properties.ab%d_s" % number] = seconds
        checks += seconds
    metrics["properties.share"] = checks / wall if wall else 0.0

    evaluations = named("batchreplay.evaluate")
    metrics["batchreplay.evaluate_s"] = total("batchreplay.evaluate")
    metrics["batchreplay.evaluate_calls"] = len(evaluations)
    routes = {key: sum(span["routes"][key] for span in evaluations) for key in ROUTES}
    for key in ROUTES:
        metrics["batchreplay.route.%s_n" % key] = routes[key]
    placements = sum(routes.values())
    metrics["batchreplay.engine_share"] = routes["engine"] / placements if placements else 0.0
    metrics["verification.self_s"] = self_total("verification")
    metrics["enumeration.self_s"] = self_total("enumeration")
    metrics["encoding.wire_program.misses"] = count_totals.get("wire_program.misses", 0)
    metrics["encoding.header_shape.misses"] = count_totals.get("header_shape.misses", 0)

    cells = [_duration(span) for span in named("sweep.cell")]
    metrics["sweep.plan_s"] = total("sweep.plan")
    metrics["sweep.cell_s"] = sum(cells)
    metrics["sweep.cell_n"] = len(cells)
    metrics["sweep.cell.p50_ms"] = 1000.0 * statistics.median(cells) if cells else 0.0
    metrics["sweep.cell.p99_ms"] = 1000.0 * _percentile(cells, 0.99)
    metrics["sweep.store.append_s"] = total("sweep.store.append")
    metrics["sweep.store.compact_s"] = total("sweep.store.compact")
    metrics["trace.unattributed_share"] = 1.0 - covered / wall if wall else 0.0
    return metrics
