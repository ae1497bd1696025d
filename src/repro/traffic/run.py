"""Execute a traffic spec: window workers, splicing, ledger verdicts.

Run model
---------

A run is ``spec.windows`` independent time segments.  Each window
starts from idle, submits its slice of the global schedule at
window-local bit times before ``spec.window_bits``, then *drains*: the
bus stays alive until every online controller is quiet, so no message
is cut off at a window boundary.  A window is a clean prefix rendered
in closed form (:mod:`repro.traffic.batch`) followed by an engine
suffix from cut tick ``s``; :func:`_run_engine_suffix` is the one
per-bit engine driver, and the engine backend runs it from ``s = 0``.
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

from repro.errors import SimulationError
from repro.traffic.schedule import build_schedule, traffic_seed_tree
from repro.traffic.spec import ID_BASE, Submission, TrafficSpec

#: Extra quiet bits required before a window counts as drained.  HLP
#: runs settle longer so protocol timeouts (retransmission timers) get
#: a chance to fire after the controllers fall idle.
_SETTLE_BITS = 12
_SETTLE_BITS_HLP = 128

#: Backlog sampling stride (bit times); a power of two so the hook is
#: one mask test on the hot path.
_BACKLOG_STRIDE = 16


@dataclass
class WindowResult:
    """Picklable observables of one window's run."""

    window: int
    bits: int
    bus: str
    #: node name -> ((origin, seq, local_time), ...) in delivery order.
    deliveries: Dict[str, Tuple[Tuple[str, int, int], ...]]
    #: Event-kind -> count over the whole window (always present).
    event_counts: Dict[str, int]
    #: Serialized event records (local times); None when events are off.
    events: Optional[Tuple[dict, ...]]
    #: Nodes that were offline at any point (bus-off/crash/disconnect).
    ever_offline: Tuple[str, ...]
    offline_at_end: Tuple[str, ...]
    max_backlog: int
    busy_bits: int
    errors_injected: int
    #: Which half of the window is empty: ``"batch"`` (closed-form
    #: clean prefix only, incl. zero-flip noisy windows), ``"engine"``
    #: (engine suffix from tick 0, no prefix) or ``"resume"`` (both).
    #: Aggregated into :attr:`TrafficOutcome.backend_stats`.
    backend: str = "engine"


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


def _controller_config(spec: TrafficSpec):
    """Controller config honouring the spec's fault-confinement knobs."""
    if spec.protocol == "majorcan":
        from repro.core.majorcan import majorcan_config

        return majorcan_config(
            spec.m,
            bus_off_recovery=spec.bus_off_recovery,
            fast_path=spec.fast_path,
        )
    from repro.can.controller_config import ControllerConfig

    return ControllerConfig(
        bus_off_recovery=spec.bus_off_recovery, fast_path=spec.fast_path
    )


def _decode_wire_key(frame, n_nodes: int) -> Optional[Tuple[str, int]]:
    """(origin, seq) of a traffic data frame; None for foreign frames."""
    index = frame.can_id.value - ID_BASE
    data = frame.data
    if frame.remote or not 0 <= index < n_nodes or len(data) < 2:
        return None
    return ("n%d" % index, data[0] | (data[1] << 8))


def _submission_frame(spec: TrafficSpec, sub: Submission):
    """The data frame a node submits for ``sub``."""
    from repro.can.frame import data_frame

    return data_frame(
        sub.identifier,
        sub.payload,
        message_id=sub.message_id,
        origin=spec.node_names[sub.node_index],
    )


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
        from repro.traffic.batch import run_window_batch

        return run_window_batch(spec, window, submissions, noise_seed)
    offset = window * spec.window_bits
    rng = None
    if spec.noise_ber > 0.0:
        from repro.parallel.seeds import rng_from

        rng = rng_from(noise_seed)
    return _run_engine_suffix(
        spec, window, [(sub.time - offset, sub) for sub in submissions], rng
    )


def _run_engine_suffix(
    spec: TrafficSpec,
    window: int,
    pending: List[Tuple[int, Submission]],
    rng=None,
    cut: int = 0,
    attempts: Tuple[int, ...] = (),
) -> WindowResult:
    """The per-bit engine run of a window from window-local tick ``cut``.

    ``pending`` holds the ``(tick, submission)`` pairs still to submit,
    ticks counted from the cut and in submission order; ``rng`` is the
    noise generator already advanced to the cut (None when noise is
    off); ``attempts`` the arbitration attempt counters the nodes'
    head-of-queue frames carry into the suffix.  Bursts are shifted by
    the cut.  The result covers ticks ``cut..`` only — ``bits`` and
    ``bus`` are the suffix's — with every time on the window's clock,
    labelled ``"engine"``.
    """
    from repro.can.bits import count_busy_bits
    from repro.can.events import EventKind
    from repro.faults.scenarios import make_controller
    from repro.simulation.engine import SimulationEngine
    from repro.tracestore.recorder import event_record

    injectors: List[object] = []
    if rng is not None:
        from repro.faults.bit_errors import RandomViewErrorInjector

        injectors.append(
            RandomViewErrorInjector(
                spec.noise_ber, seed=rng, only_nodes=spec.noise_nodes
            )
        )
    for burst in spec.bursts_for_window(window):
        from repro.faults.bit_errors import BurstViewErrorInjector

        injectors.append(
            BurstViewErrorInjector(burst.node, burst.start - cut, burst.length)
        )
    if len(injectors) > 1:
        from repro.faults.injector import CompositeInjector

        injector = CompositeInjector(injectors)
    else:
        injector = injectors[0] if injectors else None

    config = _controller_config(spec)
    app_nodes = None
    if spec.hlp is None:
        controllers = [
            make_controller(spec.protocol, name, m=spec.m, config=config)
            for name in spec.node_names
        ]
        engine = SimulationEngine(
            controllers, injector=injector, record_bits=False
        )
    else:
        from repro.protocols import PROTOCOL_FACTORIES, build_protocol_network

        engine, app_nodes = build_protocol_network(
            PROTOCOL_FACTORIES[spec.hlp],
            spec.n_nodes,
            controller_factory=lambda name: make_controller(
                spec.protocol, name, m=spec.m, config=config
            ),
            engine_kwargs={"injector": injector, "record_bits": False},
        )
        controllers = [node.controller for node in app_nodes]
        first_seq: Dict[int, int] = {}
        for _, sub in pending:
            first_seq.setdefault(sub.node_index, sub.seq)
        for node_index, seq in first_seq.items():
            app_nodes[node_index].advance_sequence_to(seq)

    cursor = [0]

    def _submit(now: int) -> None:
        index = cursor[0]
        while index < len(pending) and pending[index][0] == now:
            sub = pending[index][1]
            if app_nodes is None:
                controllers[sub.node_index].submit(_submission_frame(spec, sub))
            else:
                message = app_nodes[sub.node_index].broadcast(sub.payload)
                if message.seq != sub.seq:
                    raise SimulationError(
                        "window %d: node n%d minted seq %d for scheduled seq %d"
                        % (window, sub.node_index, message.seq, sub.seq)
                    )
            index += 1
        cursor[0] = index
        if now == 0:
            # Losers of committed arbitration rounds retry with their
            # attempt counters intact, so the suffix's TX_START and
            # TX_SUCCESS events number exactly like a run from idle.
            for controller, carry in zip(controllers, attempts):
                if carry and controller.tx_queue:
                    controller.tx_queue[0].attempts = carry

    backlog = [0]

    def _sample_backlog(now: int) -> None:
        if (now + cut) & (_BACKLOG_STRIDE - 1) == 0:
            depth = max(c.pending_transmissions for c in controllers)
            if depth > backlog[0]:
                backlog[0] = depth

    engine.add_tick_hook(_submit)
    engine.add_tick_hook(_sample_backlog)

    engine.run(max(0, spec.window_bits - cut))
    try:
        # A prefix reaching into the drain has spent part of its budget.
        engine.run_until_idle(
            max_bits=spec.max_window_bits - max(0, cut - spec.window_bits),
            settle_bits=_SETTLE_BITS_HLP if spec.hlp else _SETTLE_BITS,
        )
    except SimulationError as exc:
        if not str(exc).startswith("bus did not become idle"):
            raise
        raise SimulationError(
            "bus did not become idle within %d bits" % spec.max_window_bits
        )

    trace = engine.collect_events()
    event_counts: Dict[str, int] = {}
    for event in trace.events:
        event_counts[event.kind] = event_counts.get(event.kind, 0) + 1
    events: Optional[Tuple[dict, ...]] = None
    if spec.record_events:
        records = []
        for event in trace.events:
            record = event_record(event)
            record["t"] += cut
            records.append(record)
        events = tuple(records)

    deliveries: Dict[str, Tuple[Tuple[str, int, int], ...]] = {}
    if app_nodes is None:
        for controller in controllers:
            rows = []
            for delivery in controller.deliveries:
                key = _decode_wire_key(delivery.frame, spec.n_nodes)
                if key is not None:
                    rows.append((key[0], key[1], delivery.time + cut))
            deliveries[controller.name] = tuple(rows)
    else:
        for node in app_nodes:
            deliveries[node.name] = tuple(
                ("n%d" % origin_id, seq, delivery.time + cut)
                for (origin_id, seq), delivery in zip(
                    node.delivered_keys, node.app_deliveries
                )
            )

    ever_offline = sorted(
        {
            event.node
            for event in trace.events
            if event.kind
            in (EventKind.BUS_OFF, EventKind.CRASHED, EventKind.DISCONNECTED)
        }
        | {c.name for c in controllers if c.offline}
    )
    bus = "".join(level.symbol for level in engine.bus.history)
    return WindowResult(
        window=window,
        bits=engine.time,
        bus=bus,
        deliveries=deliveries,
        event_counts=event_counts,
        events=events,
        ever_offline=tuple(ever_offline),
        offline_at_end=tuple(c.name for c in controllers if c.offline),
        max_backlog=backlog[0],
        busy_bits=count_busy_bits(bus),
        errors_injected=sum(getattr(part, "injected", 0) for part in injectors),
        backend="engine",
    )


def splice_windows(
    spec: TrafficSpec,
    schedule: Tuple[Submission, ...],
    results: List[WindowResult],
    backend_stats: Optional[Dict[str, int]] = None,
) -> TrafficOutcome:
    """Concatenate the window results into one global outcome."""
    from repro.can.events import EventKind
    from repro.properties.broadcast import check_atomic_broadcast
    from repro.properties.ledger import NodeLedger, SystemLedger

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

    correct_names = [
        name for name in spec.node_names if name not in ever_offline
    ]
    verdicts: List[MessageVerdict] = []
    tally = {"delivered": 0, "duplicated": 0, "omitted": 0, "lost": 0}
    for sub in schedule:
        key = sub.key
        per_node = {
            name: counts[name].get(key, 0) for name in spec.node_names
        }
        correct_counts = [per_node[name] for name in correct_names]
        if any(count > 1 for count in correct_counts):
            status = "duplicated"
        elif correct_counts and all(count == 1 for count in correct_counts):
            status = "delivered"
        elif any(count > 0 for count in correct_counts):
            status = "omitted"
        else:
            status = "lost"
        tally[status] += 1
        verdicts.append(
            MessageVerdict(
                origin=sub.node,
                seq=sub.seq,
                window=sub.window,
                submitted_at=sub.time,
                status=status,
                counts=per_node,
                first_delivered=first_time.get(key),
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
    from repro.errors import ConfigurationError
    from repro.parallel.pool import run_tasks

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
