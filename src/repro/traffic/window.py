"""One traffic window: its result type and the per-bit engine driver.

A window is a sequence of segments on one clock: clean frames rendered
in closed form by :mod:`repro.traffic.batch`, and engine segments that
each start at a cut tick ``s``.  :class:`_EngineWindow` is the one
per-bit engine driver; the engine backend runs one segment from
``s = 0``.
This module holds what both kinds of segment share:
:class:`WindowResult`, the :class:`Boundary` an engine segment hands
back, the controller configuration and the data frame of a scheduled
submission.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.can.bits import Level, count_busy_bits, levels_to_string
from repro.can.controller import STATE_IDLE
from repro.can.controller_config import ControllerConfig
from repro.can.error_counters import ConfinementState, ErrorCounters
from repro.can.events import EventKind
from repro.can.frame import data_frame
from repro.core.majorcan import majorcan_config
from repro.errors import SimulationError
from repro.faults.bit_errors import BurstViewErrorInjector, RandomViewErrorInjector
from repro.faults.injector import CompositeInjector
from repro.faults.scenarios import make_controller
from repro.parallel.seeds import rng_from
from repro.simulation.engine import NEVER, SimulationEngine
from repro.traffic.spec import Submission, TrafficSpec, decode_wire_key

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
    #: How the window started: ``"batch"`` (no fault: rendered in
    #: closed form throughout, incl. zero-flip noisy windows),
    #: ``"engine"`` (the first engine segment starts at tick 0) or
    #: ``"resume"`` (it starts later).  Aggregated into
    #: ``TrafficOutcome.backend_stats``.
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


def window_noise(spec: TrafficSpec, noise_seed) -> Optional[RandomViewErrorInjector]:
    """The window's one noise injector, seeded by ``noise_seed``; None
    when noise is off.

    It knows its draw slots from the spec's node names, so the batch
    backend scans it for flips before the window's engine runs with it.
    """
    if spec.noise_ber <= 0.0:
        return None
    return RandomViewErrorInjector(
        spec.noise_ber,
        seed=rng_from(noise_seed),
        only_nodes=spec.noise_nodes,
        names=spec.node_names,
    )


def _submission_frame(sub: Submission):
    """The data frame a node submits for ``sub``."""
    return data_frame(
        sub.identifier, sub.payload, message_id=sub.message_id, origin=sub.node
    )


class Boundary(NamedTuple):
    """The state an engine segment hands back at window tick ``tick``.

    At the end of tick ``tick - 1`` every controller was idle,
    error-active and online, and the bus was recessive.  ``finished``
    counts, per node, the segment's submissions that left the queue
    (sent or abandoned); ``attempts`` are the head-of-queue arbitration
    attempt counters.  ``counters`` are the controllers' live TEC/REC
    pairs: the caller applies the clean frames it commits to them in
    place before the engine resumes.
    """

    tick: int
    finished: Tuple[int, ...]
    attempts: Tuple[int, ...]
    counters: Tuple[ErrorCounters, ...]


class _HandBack(Exception):
    """Stops an engine segment at a boundary its caller accepted."""

    def __init__(self, boundary: Boundary) -> None:
        super().__init__()
        self.boundary = boundary


class _Segment:
    """What the tick hooks of an :class:`_EngineWindow` read per segment."""

    __slots__ = (
        "cut", "pending", "cursor", "due", "submitted", "attempts", "gate",
        "hand_back", "backlog",
    )


class _EngineWindow:
    """The per-bit engine of one window, run in segments on the window clock.

    One engine, one injector and one set of controllers serve every
    engine segment of the window; between segments the engine's clock
    jumps over the ticks the caller renders in closed form.  ``noise``
    is the window's noise injector (:func:`window_noise`; None when
    noise is off).
    """

    def __init__(
        self,
        spec: TrafficSpec,
        window: int,
        noise: Optional[RandomViewErrorInjector] = None,
    ) -> None:
        self.spec = spec
        self.window = window
        injectors: List[object] = [] if noise is None else [noise]
        for burst in spec.bursts_for_window(window):
            injectors.append(
                BurstViewErrorInjector(burst.node, burst.start, burst.length)
            )
        if len(injectors) > 1:
            injector = CompositeInjector(injectors)
        else:
            injector = injectors[0] if injectors else None
        self.injectors = injectors

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
        self.engine = engine
        self.controllers = controllers
        self.app_nodes = app_nodes

        # The tick hook reads the running segment from ``segment`` and
        # holds no reference to the engine, so a finished window is freed
        # by reference counting.
        self.segment = segment = _Segment()
        history = engine.bus.history
        recessive = Level.RECESSIVE
        active = ConfinementState.ERROR_ACTIVE

        def _submit(now: int) -> None:
            pending = segment.pending
            index = segment.cursor
            while index < len(pending) and pending[index][0] <= now:
                sub = pending[index][1]
                segment.submitted[sub.node_index] += 1
                if app_nodes is None:
                    controllers[sub.node_index].submit(_submission_frame(sub))
                else:
                    message = app_nodes[sub.node_index].broadcast(sub.payload)
                    if message.seq != sub.seq:
                        raise SimulationError(
                            "window %d: node n%d minted seq %d for scheduled seq %d"
                            % (window, sub.node_index, message.seq, sub.seq)
                        )
                index += 1
            segment.cursor = index
            segment.due = pending[index][0] if index < len(pending) else NEVER
            if now == segment.cut:
                # Losers of committed arbitration rounds retry with their
                # attempt counters intact, so the segment's TX_START and
                # TX_SUCCESS events number exactly like a run from idle.
                for controller, carry in zip(controllers, segment.attempts):
                    if carry and controller.tx_queue:
                        controller.tx_queue[0].attempts = carry

        # One hook per tick: due submissions, the backlog sample, and from
        # ``segment.gate`` on, the offer to hand the window back.
        def _tick(now: int) -> None:
            if now >= segment.due:
                _submit(now)
            if now & (_BACKLOG_STRIDE - 1) == 0:
                depth = max(c.pending_transmissions for c in controllers)
                if depth > segment.backlog:
                    segment.backlog = depth
            if now < segment.gate or history[-1] is not recessive:
                return
            for controller in controllers:
                if (
                    controller.state != STATE_IDLE
                    or controller.offline
                    or controller.counters.state is not active
                ):
                    return
            boundary = Boundary(
                tick=now + 1,
                finished=tuple(
                    count - len(controller.tx_queue)
                    for count, controller in zip(segment.submitted, controllers)
                ),
                attempts=tuple(
                    controller.tx_queue[0].attempts if controller.tx_queue else 0
                    for controller in controllers
                ),
                counters=tuple(controller.counters for controller in controllers),
            )
            later = segment.hand_back(boundary)
            if later is None:
                raise _HandBack(boundary)
            segment.gate = later

        engine.add_tick_hook(_tick)

    def run_segment(
        self,
        cut: int,
        pending: List[Tuple[int, Submission]],
        attempts: Tuple[int, ...] = (),
        fault_tick: int = 0,
        hand_back: Optional[Callable[[Boundary], Optional[int]]] = None,
    ) -> Tuple[WindowResult, Optional[Boundary]]:
        """Run the engine from window tick ``cut``.

        Every controller is idle at ``cut`` (the window start, or a
        boundary it handed back); its queue is refilled from
        ``pending``, the ``(tick, submission)`` pairs still to submit,
        sorted by tick, each submitted after ``on_bit`` of its tick
        (ticks before ``cut`` count as ``cut``).  ``attempts`` are the
        arbitration attempt counters the head-of-queue frames carry
        into the segment.

        Without ``hand_back`` the segment runs to the end of the
        window.  With it, the segment offers the window back at every
        recovered tick once the engine has run ``fault_tick``:
        ``hand_back(boundary)`` returns None to take it, or the window
        tick of the next fault, before which the engine keeps the
        window without asking again.

        Returns the segment's result — ``bits`` and ``bus`` cover ticks
        ``cut..`` up to the end of the window or the boundary, every
        time on the window clock, labelled ``"engine"`` — and the
        accepted boundary, or None.
        """
        spec = self.spec
        engine = self.engine
        controllers = self.controllers
        app_nodes = self.app_nodes
        if app_nodes is not None:
            first_seq: Dict[int, int] = {}
            for _, sub in pending:
                first_seq.setdefault(sub.node_index, sub.seq)
            for node_index, seq in first_seq.items():
                app_nodes[node_index].advance_sequence_to(seq)
        # Each segment reports what it logs; the previous one has taken
        # its events, deliveries and bus levels.
        engine.bus.history.clear()
        for controller in controllers:
            controller.tx_queue.clear()
            controller.events.clear()
            controller.deliveries.clear()
        segment = self.segment
        segment.cut = cut
        segment.pending = pending
        segment.cursor = 0
        segment.due = pending[0][0] if pending else NEVER
        segment.submitted = [0] * len(controllers)
        segment.attempts = attempts
        segment.gate = NEVER if hand_back is None else fault_tick
        segment.hand_back = hand_back
        segment.backlog = 0
        engine.time = cut
        injected_before = [part.injected for part in self.injectors]

        boundary = None
        try:
            engine.run(max(0, spec.window_bits - cut))
            # A segment starting in the drain has lost part of its budget.
            engine.run_until_idle(
                max_bits=spec.max_window_bits - max(0, cut - spec.window_bits),
                settle_bits=_SETTLE_BITS_HLP if spec.hlp else _SETTLE_BITS,
            )
        except _HandBack as stop:
            boundary = stop.boundary
        except SimulationError as exc:
            if not str(exc).startswith("bus did not become idle"):
                raise
            raise SimulationError(
                "bus did not become idle within %d bits" % spec.max_window_bits
            )
        finally:
            segment.hand_back = None
        return self._result(injected_before, segment.backlog), boundary

    def _result(self, injected_before: List[int], max_backlog: int) -> WindowResult:
        """The segment's observables: everything logged since it began."""
        spec = self.spec
        controllers = self.controllers
        events = list(
            heapq.merge(
                *(controller.events for controller in controllers),
                key=lambda event: event.time,
            )
        )
        event_counts: Dict[str, int] = {}
        for event in events:
            event_counts[event.kind] = event_counts.get(event.kind, 0) + 1
        records: Optional[Tuple[dict, ...]] = None
        if spec.record_events:
            from repro.tracestore.recorder import event_record

            records = tuple(event_record(event) for event in events)

        deliveries: Dict[str, Tuple[Tuple[str, int, int], ...]] = {}
        if self.app_nodes is None:
            for controller in controllers:
                rows = []
                for delivery in controller.deliveries:
                    key = decode_wire_key(delivery.frame, spec.n_nodes)
                    if key is not None:
                        rows.append((key[0], key[1], delivery.time))
                deliveries[controller.name] = tuple(rows)
        else:
            # HLP windows run one segment from tick 0.
            for node in self.app_nodes:
                deliveries[node.name] = tuple(
                    ("n%d" % origin_id, seq, delivery.time)
                    for (origin_id, seq), delivery in zip(
                        node.delivered_keys, node.app_deliveries
                    )
                )

        ever_offline = sorted(
            {
                event.node
                for event in events
                if event.kind
                in (EventKind.BUS_OFF, EventKind.CRASHED, EventKind.DISCONNECTED)
            }
            | {c.name for c in controllers if c.offline}
        )
        bus = levels_to_string(self.engine.bus.history)
        return WindowResult(
            window=self.window,
            bits=len(bus),
            bus=bus,
            deliveries=deliveries,
            event_counts=event_counts,
            events=records,
            ever_offline=tuple(ever_offline),
            max_backlog=max_backlog,
            busy_bits=count_busy_bits(bus),
            errors_injected=sum(
                part.injected - before
                for part, before in zip(self.injectors, injected_before)
            ),
            backend="engine",
        )
