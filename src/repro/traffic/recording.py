"""Schema-v2 serialisation of traffic runs.

Line order of a v2 (traffic) recording:

1. exactly one ``manifest`` line — ``version: 2``, ``kind: traffic``,
   the full :class:`TrafficSpec` under ``traffic``/``engine`` (the run
   is a deterministic function of the spec, so the manifest alone
   rebuilds it);
2. zero or more ``submission`` lines — the precomputed schedule, in
   time order;
3. exactly one ``bus`` line — the spliced d/r level stream;
4. zero or more ``event`` lines — the merged controller event stream
   in spliced global time (present when ``record_events``);
5. zero or more ``frame_verdict`` lines — one per scheduled message,
   in schedule order;
6. exactly one ``verdict`` line — aggregate counts, bus statistics and
   the AB1–AB5 results.

Traffic runs never record per-bit lines: steady-state runs are long
and always use the engine fast path.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional

from repro.metrics.export import write_jsonl
from repro.tracestore.schema import BUS, FRAME_VERDICT, SUBMISSION, VERDICT
from repro.traffic.run import MessageVerdict, TrafficOutcome
from repro.traffic.spec import Submission


def submission_record(sub: Submission) -> Dict[str, Any]:
    """The v2 ``submission`` record of one scheduled message."""
    return {
        "type": SUBMISSION,
        "t": sub.time,
        "window": sub.window,
        "node": sub.node,
        "seq": sub.seq,
        "id": sub.identifier,
        "payload": sub.payload.hex(),
        "message_id": sub.message_id,
    }


def frame_verdict_record(verdict: MessageVerdict) -> Dict[str, Any]:
    """The v2 ``frame_verdict`` record of one per-message verdict."""
    return {
        "type": FRAME_VERDICT,
        "origin": verdict.origin,
        "seq": verdict.seq,
        "window": verdict.window,
        "t": verdict.submitted_at,
        "status": verdict.status,
        "counts": dict(verdict.counts),
        "first_delivered": verdict.first_delivered,
    }


def traffic_verdict_record(outcome: TrafficOutcome) -> Dict[str, Any]:
    """The v2 aggregate ``verdict`` record of a traffic run."""
    stats = outcome.stats
    return {
        "type": VERDICT,
        "frames": stats.frames_submitted,
        "delivered": stats.delivered,
        "duplicated": stats.duplicated,
        "omitted": stats.omitted,
        "lost": stats.lost,
        "total_bits": stats.total_bits,
        "bus_load": stats.bus_load,
        "max_backlog": stats.max_backlog,
        "errors_injected": stats.errors_injected,
        "window_bits": list(stats.window_bits),
        "properties": {
            name: bool(result) for name, result in outcome.properties.items()
        },
        "deliveries": {
            name: len(node.deliveries)
            for name, node in sorted(outcome.ledger.nodes.items())
        },
    }


def traffic_records(
    outcome: TrafficOutcome, meta: Optional[Dict[str, Any]] = None
) -> Iterator[Dict[str, Any]]:
    """Yield the v2 records of ``outcome`` in schema order."""
    yield outcome.spec.to_manifest(meta)
    for sub in outcome.schedule:
        yield submission_record(sub)
    yield {"type": BUS, "levels": outcome.bus}
    for record in outcome.events or ():
        yield record
    for verdict in outcome.verdicts:
        yield frame_verdict_record(verdict)
    yield traffic_verdict_record(outcome)


def record_traffic(
    path, outcome: TrafficOutcome, meta: Optional[Dict[str, Any]] = None
) -> None:
    """Write ``outcome`` as a v2 recording at ``path``."""
    write_jsonl(path, traffic_records(outcome, meta))
