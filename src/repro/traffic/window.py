"""One traffic window: its result type and the per-bit engine driver.

Every window is a committed clean prefix, rendered in closed form by
:mod:`repro.traffic.batch`, followed by an engine suffix from cut tick
``s``.  :func:`_run_engine_suffix` is the one per-bit engine driver;
the engine backend runs it from ``s = 0``.  This module holds what
both halves share: :class:`WindowResult`, the controller configuration
and the data frame of a scheduled submission.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.can.bits import count_busy_bits
from repro.can.controller_config import ControllerConfig
from repro.can.events import EventKind
from repro.can.frame import data_frame
from repro.core.majorcan import majorcan_config
from repro.errors import SimulationError
from repro.faults.bit_errors import BurstViewErrorInjector, RandomViewErrorInjector
from repro.faults.injector import CompositeInjector
from repro.faults.scenarios import make_controller
from repro.simulation.engine import SimulationEngine
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
    max_backlog: int
    busy_bits: int
    errors_injected: int
    #: Which half of the window is empty: ``"batch"`` (closed-form
    #: clean prefix only, incl. zero-flip noisy windows), ``"engine"``
    #: (engine suffix from tick 0, no prefix) or ``"resume"`` (both).
    #: Aggregated into ``TrafficOutcome.backend_stats``.
    backend: str = "engine"


def _controller_config(spec: TrafficSpec):
    """Controller config honouring the spec's fault-confinement knobs."""
    if spec.protocol == "majorcan":
        return majorcan_config(
            spec.m,
            bus_off_recovery=spec.bus_off_recovery,
            fast_path=spec.fast_path,
        )
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
    return data_frame(
        sub.identifier,
        sub.payload,
        message_id=sub.message_id,
        origin=spec.node_names[sub.node_index],
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
    injectors: List[object] = []
    if rng is not None:
        injectors.append(
            RandomViewErrorInjector(
                spec.noise_ber, seed=rng, only_nodes=spec.noise_nodes
            )
        )
    for burst in spec.bursts_for_window(window):
        injectors.append(
            BurstViewErrorInjector(burst.node, burst.start - cut, burst.length)
        )
    if len(injectors) > 1:
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
        from repro.protocols.base import build_protocol_network
        from repro.protocols.registry import PROTOCOL_FACTORIES

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
        from repro.tracestore.recorder import event_record

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
        max_backlog=backlog[0],
        busy_bits=count_busy_bits(bus),
        errors_injected=sum(getattr(part, "injected", 0) for part in injectors),
        backend="engine",
    )
