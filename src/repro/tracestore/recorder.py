"""Recording completed simulation runs to the v1 JSONL trace schema.

:func:`outcome_records` is the v1 record generator (manifest through
verdict, one record per line); :func:`record_outcome` streams it to a
file through :func:`repro.metrics.export.write_jsonl`, the one JSONL
writer, so it never materialises the whole document.  The v2 generator
is :func:`repro.traffic.traffic_records`.

Recording deliberately does **not** hook the engine's per-bit loop:
the engine already maintains everything a recording needs (the resolved
bus history in both paths, per-bit :class:`BitRecord` objects when
``record_bits=True``, and the controller event streams), so capture
happens once, after the run, from those structures.  That is what keeps
the ``record_bits=False`` fast path untouched — recording a fast-path
run costs one post-run serialization pass and zero per-bit work.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional

from repro.can.bits import levels_to_string
from repro.errors import TraceStoreError
from repro.metrics.export import normalise_value, write_jsonl
from repro.tracestore.spec import ScenarioSpec, spec_from_outcome


def event_record(event) -> Dict[str, Any]:
    """The JSONL record of one controller :class:`Event`."""
    return {
        "type": "event",
        "t": event.time,
        "node": event.node,
        "kind": event.kind,
        "data": normalise_value(event.data),
    }


def bit_record(record) -> Dict[str, Any]:
    """The JSONL record of one per-bit :class:`BitRecord`."""
    return {
        "type": "bit",
        "t": record.time,
        "bus": record.bus.symbol,
        "drives": {name: level.symbol for name, level in record.drives.items()},
        "views": {name: level.symbol for name, level in record.views.items()},
        "pos": {name: list(pos) for name, pos in record.positions.items()},
        "state": dict(record.states),
    }


def verdict_record(outcome) -> Dict[str, Any]:
    """The JSONL verdict line of a completed scenario outcome."""
    return {
        "type": "verdict",
        "deliveries": dict(outcome.deliveries),
        "crashed": list(outcome.crashed),
        "attempts": outcome.attempts,
        "errors_injected": outcome.errors_injected,
        "consistent": outcome.consistent,
        "inconsistent_omission": outcome.inconsistent_omission,
        "double_reception": outcome.double_reception,
    }


def outcome_records(
    outcome,
    spec: Optional[ScenarioSpec] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> Iterator[Dict[str, Any]]:
    """Yield the full recording of ``outcome``, line by line, in order.

    ``spec`` defaults to :func:`spec_from_outcome`, i.e. the manifest is
    derived from the very engine that ran.  Supply it explicitly when
    the outcome was produced by :meth:`ScenarioSpec.run` and you want
    the original manifest round-tripped untouched.
    """
    if spec is None:
        spec = spec_from_outcome(outcome)
    yield spec.to_manifest(meta=meta)
    engine = outcome.engine
    if engine is None:
        raise TraceStoreError("outcome %r carries no engine" % outcome.name)
    yield {
        "type": "bus",
        "levels": levels_to_string(engine.bus.history),
    }
    for record in outcome.trace.bits:
        yield bit_record(record)
    for event in outcome.trace.events:
        yield event_record(event)
    yield verdict_record(outcome)


def record_outcome(
    path,
    outcome,
    spec: Optional[ScenarioSpec] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> str:
    """Record ``outcome`` to ``path``; returns the path written."""
    write_jsonl(path, outcome_records(outcome, spec=spec, meta=meta))
    return str(path)
