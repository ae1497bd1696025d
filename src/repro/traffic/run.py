"""Execute a traffic spec: window workers, splicing, ledger verdicts.

Run model
---------

A run is ``spec.windows`` independent time segments.  Each window
starts from idle, submits its slice of the global schedule at
window-local bit times before ``spec.window_bits``, then *drains*: the
bus stays alive until every online controller is quiet, so no message
is cut off at a window boundary.  A window is a clean prefix rendered
in closed form (:mod:`repro.traffic.batch`) followed by an engine
suffix from cut tick ``s`` (:mod:`repro.traffic.window`); the engine
backend runs the suffix from ``s = 0``.
The spliced global trace concatenates the windows' actual bit streams
(active + drain), offsetting every event and delivery time by the
cumulative length of the preceding windows.

Windows are the sharding unit over ``repro.parallel``: each
:func:`run_window` task is pure in (spec, window, submissions, noise
child seed), so ``--jobs 1`` and ``--jobs N`` produce bit-identical
ledgers by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.can.events import EventKind
from repro.errors import ConfigurationError
from repro.parallel.pool import run_tasks
from repro.parallel.seeds import rng_from
from repro.properties.broadcast import check_atomic_broadcast
from repro.properties.ledger import NodeLedger, SystemLedger, delivery_flags
from repro.traffic.batch import run_window_batch
from repro.traffic.schedule import build_schedule, traffic_seed_tree
from repro.traffic.spec import Submission, TrafficSpec
from repro.traffic.window import WindowResult, _run_engine_suffix


@dataclass(frozen=True)
class MessageVerdict:
    """Per-message delivery verdict over the correct nodes.

    ``status`` is one of ``delivered`` (every correct node exactly
    once), ``duplicated`` (some correct node more than once),
    ``omitted`` (delivered somewhere but missing at a correct node) or
    ``lost`` (no correct node delivered it) — checked in that
    precedence order, duplication first.
    """

    origin: str
    seq: int
    window: int
    submitted_at: int
    status: str
    counts: Dict[str, int]
    first_delivered: Optional[int]


@dataclass(frozen=True)
class TrafficStats:
    """Aggregate run statistics."""

    frames_submitted: int
    delivered: int
    duplicated: int
    omitted: int
    lost: int
    total_bits: int
    busy_bits: int
    bus_load: float
    max_backlog: int
    arbitration_lost: int
    errors_detected: int
    errors_injected: int
    bus_off: int
    bus_off_recovered: int
    window_bits: Tuple[int, ...]


@dataclass
class TrafficOutcome:
    """Everything a traffic run produced."""

    spec: TrafficSpec
    schedule: Tuple[Submission, ...]
    verdicts: Tuple[MessageVerdict, ...]
    ledger: object
    properties: Dict[str, object]
    stats: TrafficStats
    bus: str
    events: Optional[List[dict]]
    #: Windows per evaluation backend (``{"batch": ..., "resume": ...,
    #: "engine": ...}``) when the run was asked for the batch backend;
    #: None on the engine backend.  Same counter shape as the analytic
    #: workloads' ``repro.analysis.batchreplay`` stats.
    backend_stats: Optional[Dict[str, int]] = None

    @property
    def atomic(self) -> bool:
        """Whether every AB1–AB5 property held over the whole stream."""
        return all(bool(result) for result in self.properties.values())

    def summary(self) -> str:
        stats = self.stats
        lines = [
            "traffic %r: %s%s, %d nodes, %d window(s) x %d bits (+drain)"
            % (
                self.spec.name,
                self.spec.protocol,
                "+%s" % self.spec.hlp if self.spec.hlp else "",
                self.spec.n_nodes,
                self.spec.windows,
                self.spec.window_bits,
            ),
            "frames: %d submitted - %d delivered, %d omitted, %d duplicated, %d lost"
            % (
                stats.frames_submitted,
                stats.delivered,
                stats.omitted,
                stats.duplicated,
                stats.lost,
            ),
            "bus: %d bits, measured load %.3f, max backlog %d, arbitration lost %d"
            % (stats.total_bits, stats.bus_load, stats.max_backlog,
               stats.arbitration_lost),
            "faults: %d injected, %d errors detected, bus-off %d (recovered %d)"
            % (stats.errors_injected, stats.errors_detected, stats.bus_off,
               stats.bus_off_recovered),
        ]
        for name in sorted(self.properties):
            lines.append(str(self.properties[name]))
        return "\n".join(lines)


def run_window(
    spec: TrafficSpec,
    window: int,
    submissions: Tuple[Submission, ...],
    noise_seed=None,
    backend: str = "engine",
) -> WindowResult:
    """Run one window of ``spec`` from idle and summarise it.

    ``submissions`` is the window's slice of the global schedule (still
    carrying global nominal times); ``noise_seed`` the spawned child
    seed for this window's noise injector (None when noise is off).

    Every window is a committed clean prefix, rendered in closed form,
    followed by an engine suffix from cut tick ``s``; the result's
    ``backend`` names which half is empty.  ``backend="engine"`` runs
    the suffix from ``s = 0`` (empty prefix, labelled ``"engine"``).
    ``backend="batch"`` hands every non-HLP window to
    :func:`repro.traffic.batch.run_window_batch`, which renders windows
    that see no fault as prefix only (``"batch"``) and otherwise cuts
    before the first fault (``"resume"``, or ``"engine"`` when nothing
    commits before it).  HLP windows always run from ``s = 0``: HLP
    timers submit frames mid-run, so the clean timeline is not known
    in advance.
    """
    if backend == "batch" and spec.hlp is None:
        return run_window_batch(spec, window, submissions, noise_seed)
    offset = window * spec.window_bits
    rng = rng_from(noise_seed) if spec.noise_ber > 0.0 else None
    return _run_engine_suffix(
        spec, window, [(sub.time - offset, sub) for sub in submissions], rng
    )


def frame_statuses(counts) -> List[str]:
    """Each message's frame-verdict status from a ``[messages, correct
    nodes]`` delivery count matrix, by the delivery rule: ``duplicated``
    (some correct node above 1), ``lost`` (none delivered), ``omitted``
    (the counts split) or ``delivered`` (every correct node at 1)."""
    flags = delivery_flags(counts)
    # With no correct node above 1 and one at 1, a split leaves another
    # correct node short of it: an omission.
    return [
        "duplicated" if double else "lost" if none else "omitted" if split else "delivered"
        for double, none, split in zip(
            flags.double.tolist(), flags.none.tolist(), flags.split.tolist()
        )
    ]


def splice_windows(
    spec: TrafficSpec,
    schedule: Tuple[Submission, ...],
    results: List[WindowResult],
    backend_stats: Optional[Dict[str, int]] = None,
) -> TrafficOutcome:
    """Concatenate the window results into one global outcome."""
    offsets: List[int] = []
    total_bits = 0
    for result in results:
        offsets.append(total_bits)
        total_bits += result.bits

    bus = "".join(result.bus for result in results)
    events: Optional[List[dict]] = None
    if spec.record_events:
        events = []
        for result, offset in zip(results, offsets):
            for record in result.events or ():
                shifted = dict(record)
                shifted["t"] += offset
                events.append(shifted)

    ever_offline = set()
    for result in results:
        ever_offline.update(result.ever_offline)

    # Global per-node delivery streams (times offset into spliced time).
    delivered: Dict[str, List[Tuple[str, int]]] = {
        name: [] for name in spec.node_names
    }
    delivery_times: Dict[str, List[int]] = {name: [] for name in spec.node_names}
    counts: Dict[str, Dict[Tuple[str, int], int]] = {
        name: {} for name in spec.node_names
    }
    first_time: Dict[Tuple[str, int], int] = {}
    for result, offset in zip(results, offsets):
        for name, rows in result.deliveries.items():
            for origin, seq, local_time in rows:
                key = (origin, seq)
                time = local_time + offset
                delivered[name].append(key)
                delivery_times[name].append(time)
                counts[name][key] = counts[name].get(key, 0) + 1
                if key not in first_time or time < first_time[key]:
                    first_time[key] = time

    broadcasts: Dict[str, List[Tuple[str, int]]] = {
        name: [] for name in spec.node_names
    }
    for sub in schedule:
        broadcasts[sub.node].append(sub.key)

    ledger = SystemLedger()
    for name in spec.node_names:
        node = NodeLedger(name=name, correct=name not in ever_offline)
        node.broadcasts = broadcasts[name]
        node.deliveries = delivered[name]
        node.delivery_times = delivery_times[name]
        ledger.nodes[name] = node

    rows = [[counts[name].get(sub.key, 0) for name in spec.node_names] for sub in schedule]
    correct = [i for i, name in enumerate(spec.node_names) if name not in ever_offline]
    matrix = np.array(rows, dtype=np.int64).reshape(len(rows), len(spec.node_names))
    verdicts: List[MessageVerdict] = []
    tally = {"delivered": 0, "duplicated": 0, "omitted": 0, "lost": 0}
    for sub, row, status in zip(schedule, rows, frame_statuses(matrix[:, correct])):
        tally[status] += 1
        verdicts.append(
            MessageVerdict(
                origin=sub.node,
                seq=sub.seq,
                window=sub.window,
                submitted_at=sub.time,
                status=status,
                counts=dict(zip(spec.node_names, row)),
                first_delivered=first_time.get(sub.key),
            )
        )

    event_totals: Dict[str, int] = {}
    for result in results:
        for kind, count in result.event_counts.items():
            event_totals[kind] = event_totals.get(kind, 0) + count

    busy = sum(result.busy_bits for result in results)
    stats = TrafficStats(
        frames_submitted=len(schedule),
        delivered=tally["delivered"],
        duplicated=tally["duplicated"],
        omitted=tally["omitted"],
        lost=tally["lost"],
        total_bits=total_bits,
        busy_bits=busy,
        bus_load=busy / total_bits if total_bits else 0.0,
        max_backlog=max((result.max_backlog for result in results), default=0),
        arbitration_lost=event_totals.get(EventKind.ARBITRATION_LOST, 0),
        errors_detected=event_totals.get(EventKind.ERROR_DETECTED, 0),
        errors_injected=sum(result.errors_injected for result in results),
        bus_off=event_totals.get(EventKind.BUS_OFF, 0),
        bus_off_recovered=event_totals.get(EventKind.BUS_OFF_RECOVERED, 0),
        window_bits=tuple(result.bits for result in results),
    )

    return TrafficOutcome(
        spec=spec,
        schedule=schedule,
        verdicts=tuple(verdicts),
        ledger=ledger,
        properties=check_atomic_broadcast(ledger),
        stats=stats,
        bus=bus,
        events=events,
        backend_stats=backend_stats,
    )


def run_traffic(
    spec: TrafficSpec,
    jobs: Optional[int] = None,
    backend: str = "engine",
) -> TrafficOutcome:
    """Run ``spec``, sharding its windows over ``jobs`` workers.

    The ledger, verdicts and property results are bit-identical for
    any ``jobs`` at the same spec: the schedule is precomputed
    serially, the per-window noise seeds are spawned from the root
    seed, and ``run_tasks`` preserves submission order.

    ``backend="batch"`` evaluates fault-free windows with the
    frame-granular replay of :mod:`repro.traffic.batch` — same ledger,
    stats and events, no per-bit engine — and noisy/burst windows with
    the vectorised noise dispatch (zero-flip realisations resolve
    through the clean replay, flipped ones resume the engine from the
    fault point); only HLP windows fall back to the engine outright.
    The per-window provenance is reported in
    :attr:`TrafficOutcome.backend_stats`.
    """
    if backend not in ("engine", "batch"):
        raise ConfigurationError("unknown traffic backend %r" % (backend,))
    schedule = build_schedule(spec)
    per_window: List[List[Submission]] = [[] for _ in range(spec.windows)]
    for sub in schedule:
        per_window[sub.window].append(sub)
    if spec.noise_ber > 0.0:
        _, noise_children = traffic_seed_tree(spec)
    else:
        noise_children = [None] * spec.windows
    tasks = [
        partial(
            run_window,
            spec,
            window,
            tuple(per_window[window]),
            noise_children[window],
            backend=backend,
        )
        for window in range(spec.windows)
    ]
    results = run_tasks(tasks, jobs=jobs)
    backend_stats: Optional[Dict[str, int]] = None
    if backend == "batch":
        # Measured provenance, not a prediction: noisy windows resolve
        # to "batch" (zero-flip), "resume" (fault-point re-entry) or
        # "engine" (nothing committable) only once their masks are
        # drawn.
        backend_stats = {}
        for result in results:
            backend_stats[result.backend] = backend_stats.get(result.backend, 0) + 1
    return splice_windows(spec, schedule, results, backend_stats=backend_stats)
