"""Closed-form rendering of traffic windows, between engine segments.

A traffic window is a sequence of segments on one clock: clean frames
rendered here in closed form, and engine segments run by
:class:`repro.traffic.window._EngineWindow` from cut ticks ``s``.  The
window's ``backend`` label says how it started:

- ``"batch"`` — no engine segment: a window free of higher-level
  protocols whose noise mask never fires and whose bursts miss the
  clean timeline (a noise-free window is the zero-flip case) is fully
  determined by its submission schedule.  Identifiers are fixed
  per node, so arbitration under contention resolves deterministically
  (lowest identifier = lowest node index wins), every frame is
  acknowledged, no error flag ever fires, and the bus trace is the
  concatenation of the winners' cached
  :attr:`repro.can.encoding.WireFrame.symbols` with recessive gaps in
  between.  A priority-queue scheduler at bus-idle instants
  (:func:`_plan_frames`) lays out the frames and :func:`_render_segment`
  reproduces the engine's observable surface *exactly* — bus string,
  per-node deliveries, event stream (times, payloads and merge order;
  built only when the spec records events, counted in closed form
  otherwise), backlog samples and busy-bit count.
- ``"resume"`` — :func:`_resume_window` commits the clean frames that
  end before the first fault, renders them with the same renderer and
  runs the engine from the cut.  Once the bus has recovered, the engine
  hands the window back: the rest is planned again from that tick and
  rendered up to the next fault, and so on to the window's end.
- ``"engine"`` — the same, but nothing commits before the first fault
  (``s = 0``) or the clean timeline overflows its drain budget.  HLP
  windows and the engine backend run one engine segment from tick 0
  and never plan or scan.

Timing model (verified against the engine's step order — drive, bus
resolve, ``on_bit``, tick hooks, ``time += 1``):

- a submission at tick ``a`` enters the node's queue after ``on_bit``
  of that tick, so the earliest SOF it can drive is ``a + 1``;
- a frame's SOF lands at ``t0 = max(idle_from, a_min + 1)`` where
  ``idle_from`` is the first drive instant after the previous frame's
  intermission (``t_end + 4``; the segment's first tick at its start)
  and ``a_min`` the earliest queued arrival;
- the contenders are the nodes whose head-of-queue arrival is
  ``<= t0 - 1``; the winner is the lowest node index; each loser
  withdraws at its first wire-level divergence from the winner (an
  arbitration position by construction) and turns receiver;
- receivers deliver at the protocol's EOF rule — standard CAN at the
  last-but-one EOF bit, MinorCAN and MajorCAN at the last — and the
  winner self-delivers at ``t_end``;
- every frame lowers its winner's TEC and every other node's REC by
  one, floored at 0;
- the drained window ends after twelve quiet bits:
  ``total = max(window_bits, t_last_end + 3) + 12``.

:func:`run_window_batch` is the one entry point: it plans the clean
timeline once, scans its length for the first fault and either renders
it whole or hands the plan to the segment loop.  Windows are
not memoised: periodic workloads advance their sequence numbers every
window, so distinct windows of one run rarely collide, and a measured
memo saved ~1% of a noisy sweep.
"""

from __future__ import annotations

import heapq
from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Tuple

from repro.can.bits import count_busy_bits
from repro.can.encoding import WireFrame, wire_program
from repro.can.error_counters import ErrorCounters
from repro.can.events import Event, EventKind
from repro.can.frame import Frame
from repro.can.identifiers import CanId
from repro.errors import SimulationError
from repro.faults.bit_errors import RandomViewErrorInjector
from repro.simulation.engine import NEVER
from repro.traffic.spec import Submission, TrafficSpec
from repro.traffic.window import (
    _BACKLOG_STRIDE,
    _SETTLE_BITS,
    Boundary,
    WindowResult,
    _controller_config,
    _EngineWindow,
    _submission_frame,
    window_noise,
)

#: Bit times between a frame's last EOF bit and the next possible SOF:
#: three intermission bits consumed, then the first idle drive instant.
_TURNAROUND = 4


def window_cache_stats() -> Dict[str, int]:
    """Zero counters of the retired window memo.

    Windows are no longer memoised; the function stays only because
    the benchmark's traced runs still read these counters.
    """
    return {"entries": 0, "hits": 0, "misses": 0}


def _arbitration_divergence(loser_values, winner_values) -> int:
    """First wire position where the loser's frame leaves the bus.

    Both frames share SOF and every stuffed prefix bit up to the
    first identifier bit where the winner drives dominant and the loser
    recessive (stuff decisions depend only on the identical prefix), so
    the first level difference is the loser's arbitration-loss
    position.
    """
    for position, (loser, winner) in enumerate(zip(loser_values, winner_values)):
        if loser != winner:
            return position
    raise SimulationError("contending frames share an identifier")


def _max_sampled_backlog(
    arrivals: List[List[int]], completions: List[List[int]], total_bits: int
) -> int:
    """The engine's stride-sampled queue-depth maximum, in closed form.

    The engine samples ``max(pending_transmissions)`` at every tick
    divisible by the stride, *after* the submission hook at the same
    tick and after any ``on_bit`` queue pop — so a submission at tick
    ``t`` and a completion at tick ``t`` are both visible at sample
    ``t``.  Walking each node's piecewise-constant depth segments and
    testing whether a sample tick lands inside reproduces the maximum
    without materialising the samples.
    """
    deepest = 0
    for node_arrivals, node_completions in zip(arrivals, completions):
        depth = 0
        arrival_index = completion_index = 0
        n_arrivals = len(node_arrivals)
        n_completions = len(node_completions)
        while arrival_index < n_arrivals or completion_index < n_completions:
            next_arrival = (
                node_arrivals[arrival_index]
                if arrival_index < n_arrivals
                else total_bits
            )
            next_completion = (
                node_completions[completion_index]
                if completion_index < n_completions
                else total_bits
            )
            start = min(next_arrival, next_completion)
            while arrival_index < n_arrivals and node_arrivals[arrival_index] == start:
                depth += 1
                arrival_index += 1
            while (
                completion_index < n_completions
                and node_completions[completion_index] == start
            ):
                depth -= 1
                completion_index += 1
            end = min(
                node_arrivals[arrival_index]
                if arrival_index < n_arrivals
                else total_bits,
                node_completions[completion_index]
                if completion_index < n_completions
                else total_bits,
                total_bits,
            )
            if depth > deepest:
                first_sample = -(-start // _BACKLOG_STRIDE) * _BACKLOG_STRIDE
                if first_sample < end:
                    deepest = depth
    return deepest


class _FramePlan:
    """One planned frame on the clean timeline (plan/render split).

    ``wire`` is the winner's :class:`repro.can.encoding.WireFrame`,
    taken from its queue entry, so the render never looks it up again.
    """

    __slots__ = ("t0", "t_end", "winner", "contenders", "wire")

    def __init__(
        self, t0: int, t_end: int, winner: int, contenders: Tuple[int, ...], wire
    ):
        self.t0 = t0
        self.t_end = t_end
        self.winner = winner
        self.contenders = contenders
        self.wire = wire


#: Per node, ``(window-local arrival, frame, submission, wire frame)``
#: in submission order.
_Queues = List[List[Tuple[int, Frame, Submission, WireFrame]]]


def _local_queues(
    spec: TrafficSpec, window: int, submissions: Tuple[Submission, ...]
) -> _Queues:
    """The window's per-node queues, each frame encoded once.

    Every segment plans from these entries, so a window that is
    planned again after each engine segment still encodes each frame
    once, however many frames it holds.
    """
    offset = window * spec.window_bits
    eof_length = _controller_config(spec).eof_length
    queues: _Queues = [[] for _ in range(spec.n_nodes)]
    for sub in submissions:
        frame = _submission_frame(sub)
        queues[sub.node_index].append(
            (sub.time - offset, frame, sub, wire_program(frame, eof_length))
        )
    return queues


def _plan_frames(
    spec: TrafficSpec,
    queues: _Queues,
    heads: List[int],
    start: int = 0,
) -> Tuple[List[_FramePlan], int]:
    """Lay the window's frames on the clean timeline; no rendering.

    Returns the time-ordered frame plans of :func:`_frames` and the
    window's total bit length (active + drain) on the clean timeline.
    """
    plans = list(_frames(queues, heads, start))
    return plans, _total_bits(spec, plans)


def _total_bits(spec: TrafficSpec, plans: List[_FramePlan]) -> int:
    """The window's length on the clean timeline of ``plans``: the
    active part, then the drain's quiet bits."""
    quiet_from = plans[-1].t_end + _TURNAROUND - 1 if plans else 0
    return max(spec.window_bits, quiet_from) + _SETTLE_BITS


def _frames(queues: _Queues, heads: List[int], start: int) -> Iterator[_FramePlan]:
    """Plan the frames of the clean timeline one at a time, in time order.

    Plans the entries of each node's queue from its head on, with the
    bus idle from window tick ``start``.  A heap of head-of-queue
    arrivals yields each frame's earliest arrival and its contenders,
    so a frame costs O(contenders), not a scan of every node.
    """
    heads = list(heads)
    arrivals = [
        (queue[head][0], index)
        for index, (queue, head) in enumerate(zip(queues, heads))
        if head < len(queue)
    ]
    heapq.heapify(arrivals)
    idle_from = start
    while arrivals:
        t0 = max(idle_from, arrivals[0][0] + 1)
        contenders = []
        while arrivals and arrivals[0][0] < t0:
            contenders.append(heapq.heappop(arrivals)[1])
        contenders.sort()
        winner = contenders[0]
        wire = queues[winner][heads[winner]][3]
        t_end = t0 + wire.length - 1
        yield _FramePlan(t0, t_end, winner, tuple(contenders), wire)
        heads[winner] += 1
        if heads[winner] == len(queues[winner]):
            del contenders[0]
        for index in contenders:
            heapq.heappush(arrivals, (queues[index][heads[index]][0], index))
        idle_from = t_end + _TURNAROUND


def _quiet_bound(queues: _Queues, heads: List[int], start: int) -> int:
    """An upper bound on the tick the clean timeline from ``start``
    falls quiet.

    The planner never leaves the bus idle while a frame is queued, so
    every frame has ended, intermission included, before the latest
    queued arrival (or ``start``) plus each queued frame's length and
    turnaround.
    """
    latest = start
    reach = 0
    for queue, head in zip(queues, heads):
        for arrival, _, _, wire in queue[head:]:
            latest = max(latest, arrival + 1)
            reach += wire.length + _TURNAROUND
    return latest + reach


def _frame_events(
    plan: _FramePlan,
    queues: _Queues,
    heads: List[int],
    attempts: List[int],
    names: Tuple[str, ...],
    rx_time: int,
    self_delivery: bool,
) -> Iterator[Tuple[int, Event]]:
    """The engine's events of one planned frame, as ``(node, event)``.

    Each node's events come in its own time order; ``heads`` and
    ``attempts`` are read as they stand before the frame completes.
    """
    t0 = plan.t0
    winner = plan.winner
    contending = set(plan.contenders)
    for index, name in enumerate(names):
        if index in contending:
            frame = queues[index][heads[index]][1]
            yield index, Event(
                time=t0,
                node=name,
                kind=EventKind.TX_START,
                data={
                    "frame": str(frame),
                    "attempt": attempts[index],
                    "message_id": frame.message_id,
                },
            )
        else:
            yield index, Event(time=t0, node=name, kind=EventKind.RX_START, data={})
    winner_values = plan.wire.bit_values
    for index in plan.contenders[1:]:
        loser = queues[index][heads[index]][3]
        position = _arbitration_divergence(loser.bit_values, winner_values)
        field, field_index = loser.positions[position]
        yield index, Event(
            time=t0 + position,
            node=names[index],
            kind=EventKind.ARBITRATION_LOST,
            data={"field": field, "index": field_index},
        )

    _, winner_frame, winner_sub, _ = queues[winner][heads[winner]]
    received = str(Frame(can_id=CanId(winner_sub.identifier), data=winner_sub.payload))
    for index, name in enumerate(names):
        if index != winner:
            yield index, Event(
                time=rx_time,
                node=name,
                kind=EventKind.FRAME_DELIVERED,
                data={"frame": received, "message_id": None, "attempt": None},
            )
    sent = {
        "frame": str(winner_frame),
        "attempt": attempts[winner],
        "message_id": winner_frame.message_id,
    }
    yield winner, Event(
        time=plan.t_end, node=names[winner], kind=EventKind.TX_SUCCESS, data=sent
    )
    if self_delivery:
        yield winner, Event(
            time=plan.t_end,
            node=names[winner],
            kind=EventKind.FRAME_DELIVERED,
            data={
                "frame": sent["frame"],
                "message_id": sent["message_id"],
                "attempt": sent["attempt"],
            },
        )


def _render_segment(
    spec: TrafficSpec,
    window: int,
    queues: _Queues,
    heads: List[int],
    attempts: List[int],
    plans: List[_FramePlan],
    start: int,
    bits: int,
) -> WindowResult:
    """Engine-exact surface of the planned frames over ticks ``start..bits``.

    The one closed-form renderer: the whole drained window on the clean
    path, each committed segment between engine segments on the resume
    path.  ``heads`` and ``attempts`` are the per-node queue heads and
    head-of-queue arbitration attempt counters at ``start``; they are
    advanced in place past the planned frames, so losers of committed
    rounds carry their counters into the next engine segment and their
    next TX_START numbers identically.  The result is labelled
    ``"batch"``.

    Events are built only when the spec records them.  Otherwise
    ``event_counts`` is summed in closed form: per frame, one TX_START
    per contender and one RX_START per other node, an
    ARBITRATION_LOST per loser, a FRAME_DELIVERED per receiver (and
    the winner's own under self-delivery) and one TX_SUCCESS.
    """
    record = spec.record_events
    self_delivery = _controller_config(spec).self_delivery
    names = spec.node_names
    n_nodes = spec.n_nodes
    # Receivers of a standard CAN frame deliver at the last-but-one EOF
    # bit; MinorCAN and MajorCAN postpone delivery to the last.
    rx_lag = 1 if spec.protocol == "can" else 0

    # Arrivals at or after ``bits`` belong to the next engine segment,
    # which samples them itself; queued frames count from ``start``.
    arrivals = [
        [max(entry[0], start) for entry in node_queue[head:] if entry[0] < bits]
        for node_queue, head in zip(queues, heads)
    ]
    node_events: List[List[Event]] = [[] for _ in range(n_nodes)]
    deliveries: List[List[Tuple[str, int, int]]] = [[] for _ in range(n_nodes)]
    completions: List[List[int]] = [[] for _ in range(n_nodes)]
    pieces: List[str] = []
    cursor = start
    contended = 0

    for plan in plans:
        t0 = plan.t0
        t_end = plan.t_end
        winner = plan.winner
        contenders = plan.contenders
        wire = plan.wire
        winner_sub = queues[winner][heads[winner]][2]
        for index in contenders:
            attempts[index] += 1
        contended += len(contenders)

        origin, seq = winner_sub.key
        rx_time = t_end - rx_lag
        received_row = (origin, seq, rx_time)
        for index in range(n_nodes):
            if index != winner:
                deliveries[index].append(received_row)
        if self_delivery:
            deliveries[winner].append((origin, seq, t_end))
        if record:
            for index, event in _frame_events(
                plan,
                queues,
                heads,
                attempts,
                names,
                rx_time,
                self_delivery,
            ):
                node_events[index].append(event)
        completions[winner].append(t_end)
        heads[winner] += 1
        attempts[winner] = 0
        pieces.append("r" * (t0 - cursor))
        pieces.append(wire.symbols)
        cursor = t0 + wire.length

    pieces.append("r" * (bits - cursor))
    bus = "".join(pieces)

    events: Optional[Tuple[dict, ...]] = None
    event_counts: Dict[str, int] = {}
    if record:
        from repro.tracestore.recorder import event_record

        merged = list(heapq.merge(*node_events, key=lambda event: event.time))
        for event in merged:
            event_counts[event.kind] = event_counts.get(event.kind, 0) + 1
        events = tuple(event_record(event) for event in merged)
    else:
        frames = len(plans)
        receivers = n_nodes - 1 + (1 if self_delivery else 0)
        for kind, count in (
            (EventKind.TX_START, contended),
            (EventKind.RX_START, frames * n_nodes - contended),
            (EventKind.ARBITRATION_LOST, contended - frames),
            (EventKind.FRAME_DELIVERED, frames * receivers),
            (EventKind.TX_SUCCESS, frames),
        ):
            if count:
                event_counts[kind] = count

    return WindowResult(
        window=window,
        bits=bits - start,
        bus=bus,
        deliveries={
            names[index]: tuple(deliveries[index]) for index in range(n_nodes)
        },
        event_counts=event_counts,
        events=events,
        ever_offline=(),
        max_backlog=_max_sampled_backlog(arrivals, completions, bits),
        busy_bits=count_busy_bits(bus),
        errors_injected=0,
        backend="batch",
    )


def _next_fault(
    spec: TrafficSpec,
    window: int,
    noise: Optional[RandomViewErrorInjector],
    start: int,
    end: int,
) -> Optional[int]:
    """The first window tick in ``start..end`` where a fault can act.

    That is the tick of the first flip of the window's ``noise``
    injector, or of a burst that is still active, whichever comes
    first; None when neither falls before ``end``.
    """
    fault_tick = None if noise is None else noise.next_flip(start, end)
    for burst in spec.bursts_for_window(window):
        tick = max(burst.start, start)
        if tick < min(end, burst.start + burst.length) and (
            fault_tick is None or tick < fault_tick
        ):
            fault_tick = tick
    return fault_tick


def run_window_batch(
    spec: TrafficSpec,
    window: int,
    submissions: Tuple[Submission, ...],
    noise_seed=None,
) -> WindowResult:
    """Evaluate one non-HLP window in closed-form and engine segments.

    Plans the clean timeline once, then asks the window's noise
    injector (:func:`repro.traffic.window.window_noise`) for its first
    flip on that timeline.  A window with no flip and no scheduled
    burst inside the clean timeline *is* the clean window: the plan is
    rendered whole (``"batch"``).  Otherwise
    the plan goes to :func:`_resume_window` with its first fault tick.
    When the clean timeline overflows the drain budget, the window
    resumes from tick 0, so the engine raises its own
    ``SimulationError``.
    """
    noise = window_noise(spec, noise_seed)
    queues = _local_queues(spec, window, submissions)
    heads = [0] * spec.n_nodes
    plans, total_bits = _plan_frames(spec, queues, heads)
    if total_bits - spec.window_bits > spec.max_window_bits:
        fault_tick = 0
    else:
        fault_tick = _next_fault(spec, window, noise, 0, total_bits)
    if fault_tick is None:
        return _render_segment(
            spec, window, queues, heads, [0] * spec.n_nodes, plans, 0, total_bits
        )
    return _resume_window(spec, window, queues, plans, noise, fault_tick)


def _resume_window(
    spec: TrafficSpec,
    window: int,
    queues: _Queues,
    plans: List[_FramePlan],
    noise: Optional[RandomViewErrorInjector],
    fault_tick: int,
) -> WindowResult:
    """A faulted window: closed-form and engine segments, alternating.

    ``queues`` and ``plans`` are the window's clean plan from
    :func:`run_window_batch`.  Each round commits the plan frame by
    frame while a frame's whole extent *including its three
    intermission bits* ends strictly before the next fault tick — so
    the frame carrying the fault (in body or intermission) is never
    committed, no frame is mid-flight at the cut, and every committed
    tick is provably fault-free.  The cut ``s`` is the latest tick with
    those guarantees: the fault tick itself, clamped below the next
    uncommitted frame's SOF.  The committed frames are rendered over
    ticks ``start..s``, their TEC/REC decrements are applied, and the
    window's one engine runs from ``s`` with the uncommitted
    submissions re-queued at ``max(arrival, s)`` and the carried
    arbitration attempt counters restored.  The engine runs with the
    ``noise`` injector that found the fault, so it goes on from the
    draws of that scan; bursts stay on the window clock.

    The engine segment hands the window back at the first tick ``h``
    after the fault where every controller is idle, error-active and
    online and the bus is recessive, *if* the commit rule, applied to
    the plan from ``h`` and the next fault, cuts after ``h`` (a burst
    still active is a fault at ``h``); otherwise it runs on to that
    fault and asks again.  The next round starts at ``h`` with the
    engine's queues and counters.  Segments are spliced in order (each
    one's events lie strictly within its ticks, so concatenation is the
    engine's heap merge).  The label is ``"engine"`` when the first cut
    is at 0, ``"resume"`` otherwise.
    """
    n_nodes = spec.n_nodes
    heads = [0] * n_nodes
    attempts = [0] * n_nodes
    counters: Tuple[ErrorCounters, ...] = ()
    start = 0
    total_bits = 0
    segments: List[WindowResult] = []
    engine = None
    handed: list = []

    def offer(boundary: Boundary) -> Optional[int]:
        tick = boundary.tick
        next_heads = [head + done for head, done in zip(heads, boundary.finished)]
        frames = _frames(queues, next_heads, tick)
        first = next(frames, None)
        if first is not None:
            # The commit rule declines exactly when a fault comes at
            # ``tick``, or before the first frame commits while that
            # frame starts at once; so a decline needs only the first
            # frame, unless the whole plan may overflow the drain.
            end = first.t_end + _TURNAROUND if first.t0 - 1 <= tick else tick + 1
            fault = _next_fault(spec, window, noise, tick, end)
            if fault is not None:
                longest = max(spec.window_bits, _quiet_bound(queues, next_heads, tick))
                if longest + _SETTLE_BITS - spec.window_bits <= spec.max_window_bits:
                    return fault
        next_plans = [] if first is None else [first, *frames]
        next_total = _total_bits(spec, next_plans)
        if next_total - spec.window_bits > spec.max_window_bits or (
            not next_plans and tick > spec.window_bits
        ):
            # The engine raises the drain error itself, or ends a drain
            # whose quiet run may have begun before ``tick``.
            return NEVER
        next_fault = _next_fault(spec, window, noise, tick, next_total)
        if next_fault is not None and _cut(next_plans, next_fault)[1] <= tick:
            return next_fault
        handed[:] = [next_heads, next_plans, next_total, next_fault]
        return None

    while True:
        if fault_tick is None:
            # Fault-free to the end: the rest of the window is closed form.
            segments.append(
                _render_segment(
                    spec, window, queues, heads, attempts, plans, start, total_bits
                )
            )
            break
        committed, cut = _cut(plans, fault_tick)
        if cut > start:
            _settle_counters(counters, plans[:committed])
            segments.append(
                _render_segment(
                    spec, window, queues, heads, attempts, plans[:committed],
                    start, cut,
                )
            )
        if engine is None:
            engine = _EngineWindow(spec, window, noise)
            backend = "resume" if cut else "engine"

        # Uncommitted submissions re-enter the engine; those that arrived
        # before the cut are queued at it.
        pending = sorted(
            (
                (arrival, sub)
                for node_queue, head in zip(queues, heads)
                for arrival, _, sub, _ in node_queue[head:]
            ),
            key=lambda item: (item[0], item[1].node_index),
        )
        result, boundary = engine.run_segment(
            cut, pending, tuple(attempts), fault_tick, offer
        )
        segments.append(result)
        if boundary is None:
            break
        heads, plans, total_bits, fault_tick = handed
        start = boundary.tick
        attempts = list(boundary.attempts)
        counters = boundary.counters
    return _splice(segments, backend)


def _cut(plans: List[_FramePlan], fault_tick: int) -> Tuple[int, int]:
    """The commit rule: how many plans commit before ``fault_tick``, and the cut.

    A frame commits while its whole extent, intermission included,
    ends strictly before the fault; the cut is the fault tick, clamped
    below the first uncommitted frame's SOF.
    """
    committed = 0
    while (
        committed < len(plans)
        and plans[committed].t_end + _TURNAROUND - 1 < fault_tick
    ):
        committed += 1
    cut = fault_tick
    if committed < len(plans):
        cut = min(cut, plans[committed].t0 - 1)
    return committed, cut


def _settle_counters(
    counters: Tuple[ErrorCounters, ...], plans: List[_FramePlan]
) -> None:
    """Apply the clean frames' TEC/REC decrements to ``counters`` in place.

    Every frame decrements its winner's TEC and every other node's REC
    (losers of arbitration receive it), each floored at 0; with no
    increments in between, ``k`` frames lower a counter by ``k``.
    Before the first engine segment there are no counters to settle.
    """
    if not counters:
        return
    won = [0] * len(counters)
    for plan in plans:
        won[plan.winner] += 1
    for index, counter in enumerate(counters):
        counter.tec = max(0, counter.tec - won[index])
        counter.rec = max(0, counter.rec - (len(plans) - won[index]))


def _splice(segments: List[WindowResult], backend: str) -> WindowResult:
    """One window's result from its segments, in tick order."""
    if len(segments) == 1:
        return replace(segments[0], backend=backend)
    bus = "".join(segment.bus for segment in segments)
    event_counts: Dict[str, int] = {}
    deliveries: Dict[str, Tuple[Tuple[str, int, int], ...]] = {}
    for segment in segments:
        for kind, count in segment.event_counts.items():
            event_counts[kind] = event_counts.get(kind, 0) + count
        for name, rows in segment.deliveries.items():
            deliveries[name] = deliveries.get(name, ()) + rows
    events = None
    if segments[0].events is not None:
        events = tuple(event for segment in segments for event in segment.events)
    return WindowResult(
        window=segments[0].window,
        bits=sum(segment.bits for segment in segments),
        bus=bus,
        deliveries=deliveries,
        event_counts=event_counts,
        events=events,
        ever_offline=tuple(
            sorted({name for segment in segments for name in segment.ever_offline})
        ),
        max_backlog=max(segment.max_backlog for segment in segments),
        busy_bits=count_busy_bits(bus),
        errors_injected=sum(segment.errors_injected for segment in segments),
        backend=backend,
    )
