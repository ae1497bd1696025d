"""Closed-form rendering of traffic windows: the clean prefix.

Every traffic window is a committed clean prefix, rendered here in
closed form, followed by an engine suffix from cut tick ``s``
(:func:`repro.traffic.window._run_engine_suffix`).  The window's
``backend`` label names which half is empty:

- ``"batch"`` — no suffix: a window free of higher-level protocols
  whose noise mask never fires and whose bursts miss the clean
  timeline (a noise-free window is the zero-flip case) is fully
  determined by its submission schedule.  Identifiers are fixed
  per node, so arbitration under contention resolves deterministically
  (lowest identifier = lowest node index wins), every frame is
  acknowledged, no error flag ever fires, and the bus trace is the
  concatenation of the winners' cached
  :attr:`repro.can.encoding.WireFrame.symbols` with recessive gaps in
  between.  A priority-queue scheduler at bus-idle instants
  (:func:`_plan_frames`) lays out the frames and :func:`_render_prefix`
  reproduces the engine's observable surface *exactly* — bus string,
  per-node deliveries, event stream (times, payloads and merge order;
  built only when the spec records events, counted in closed form
  otherwise), backlog samples and busy-bit count.
- ``"resume"`` — both halves: :func:`_resume_window` commits the clean
  frames of the same plan that end before the first fault, renders
  them with the same renderer and runs the engine suffix from the cut.
- ``"engine"`` — no prefix (``s = 0``): nothing commits before the
  first fault, the clean timeline overflows its drain budget, the
  window runs a higher-level protocol, or the run asked for the engine
  backend, which never plans or scans.

Timing model (verified against the engine's step order — drive, bus
resolve, ``on_bit``, tick hooks, ``time += 1``):

- a submission at tick ``a`` enters the node's queue after ``on_bit``
  of that tick, so the earliest SOF it can drive is ``a + 1``;
- a frame's SOF lands at ``t0 = max(idle_from, a_min + 1)`` where
  ``idle_from`` is the first drive instant after the previous frame's
  intermission (``t_end + 4``; ``0`` at the window start) and
  ``a_min`` the earliest queued arrival;
- the contenders are the nodes whose head-of-queue arrival is
  ``<= t0 - 1``; the winner is the lowest node index; each loser
  withdraws at its first wire-level divergence from the winner (an
  arbitration position by construction) and turns receiver;
- receivers deliver at the protocol's EOF rule — standard CAN at the
  last-but-one EOF bit, MinorCAN and MajorCAN at the last — and the
  winner self-delivers at ``t_end``;
- the drained window ends after twelve quiet bits:
  ``total = max(window_bits, t_last_end + 3) + 12``.

:func:`run_window_batch` is the one entry point: it plans the clean
timeline once, scans its length for the first fault and either renders
it whole or hands the plan to the resume path.  Windows are
not memoised: periodic workloads advance their sequence numbers every
window, so distinct windows of one run rarely collide, and a measured
memo saved ~1% of a noisy sweep.
"""

from __future__ import annotations

import heapq
from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.noisebatch import advance, first_flip, generator_state, restore_state
from repro.can.bits import count_busy_bits
from repro.can.encoding import wire_program
from repro.can.events import Event, EventKind
from repro.can.frame import Frame
from repro.can.identifiers import CanId
from repro.errors import SimulationError
from repro.faults.bit_errors import view_noise_ranks
from repro.parallel.seeds import rng_from
from repro.traffic.spec import Submission, TrafficSpec
from repro.traffic.window import (
    _BACKLOG_STRIDE,
    _SETTLE_BITS,
    WindowResult,
    _controller_config,
    _run_engine_suffix,
    _submission_frame,
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

    ``wire`` is the winner's :class:`repro.can.encoding.WireFrame`, so
    the render never looks the frame up again: each frame is encoded
    once per window, however many frames the window holds.
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


def _local_queues(
    spec: TrafficSpec, window: int, submissions: Tuple[Submission, ...]
) -> List[List[Tuple[int, object, Submission]]]:
    """Per-node (window-local arrival, frame, submission) queues."""
    offset = window * spec.window_bits
    queues: List[List[Tuple[int, object, Submission]]] = [
        [] for _ in range(spec.n_nodes)
    ]
    for sub in submissions:
        queues[sub.node_index].append(
            (sub.time - offset, _submission_frame(sub), sub)
        )
    return queues


def _plan_frames(
    spec: TrafficSpec,
    queues: List[List[Tuple[int, object, Submission]]],
    count: int,
) -> Tuple[List[_FramePlan], int]:
    """Lay the window's frames on the clean timeline; no rendering.

    Returns the time-ordered frame plans and the window's total bit
    length (active + drain) on the clean timeline.
    """
    eof_length = _controller_config(spec).eof_length
    n_nodes = spec.n_nodes
    heads = [0] * n_nodes
    plans: List[_FramePlan] = []
    idle_from = 0
    remaining = count
    while remaining:
        a_min = min(
            queues[index][heads[index]][0]
            for index in range(n_nodes)
            if heads[index] < len(queues[index])
        )
        t0 = max(idle_from, a_min + 1)
        contenders = tuple(
            index
            for index in range(n_nodes)
            if heads[index] < len(queues[index])
            and queues[index][heads[index]][0] < t0
        )
        winner = contenders[0]
        wire = wire_program(queues[winner][heads[winner]][1], eof_length)
        t_end = t0 + wire.length - 1
        plans.append(_FramePlan(t0, t_end, winner, contenders, wire))
        heads[winner] += 1
        remaining -= 1
        idle_from = t_end + _TURNAROUND
    if not plans:
        total_bits = spec.window_bits + _SETTLE_BITS
    else:
        total_bits = (
            max(spec.window_bits, plans[-1].t_end + _TURNAROUND - 1) + _SETTLE_BITS
        )
    return plans, total_bits


def _frame_events(
    plan: _FramePlan,
    queues: List[List[Tuple[int, object, Submission]]],
    heads: List[int],
    attempts: List[int],
    names: Tuple[str, ...],
    eof_length: int,
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
        loser = wire_program(queues[index][heads[index]][1], eof_length)
        position = _arbitration_divergence(loser.bit_values, winner_values)
        field, field_index = loser.positions[position]
        yield index, Event(
            time=t0 + position,
            node=names[index],
            kind=EventKind.ARBITRATION_LOST,
            data={"field": field, "index": field_index},
        )

    _, winner_frame, winner_sub = queues[winner][heads[winner]]
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


def _render_prefix(
    spec: TrafficSpec,
    window: int,
    queues: List[List[Tuple[int, object, Submission]]],
    plans: List[_FramePlan],
    bits: int,
) -> Tuple[WindowResult, List[int]]:
    """Engine-exact surface of the planned frames over ticks ``0..bits``.

    The one closed-form renderer: the whole drained window on the clean
    path, the committed prefix up to the cut on the resume path.
    Returns the result (labelled ``"batch"``) and the per-node
    arbitration attempt counters left standing after the last plan:
    losers of committed rounds carry them into the engine suffix so
    their next TX_START numbers identically.

    Events are built only when the spec records them.  Otherwise
    ``event_counts`` is summed in closed form: per frame, one TX_START
    per contender and one RX_START per other node, an
    ARBITRATION_LOST per loser, a FRAME_DELIVERED per receiver (and
    the winner's own under self-delivery) and one TX_SUCCESS.
    """
    record = spec.record_events
    config = _controller_config(spec)
    eof_length = config.eof_length
    self_delivery = config.self_delivery
    names = spec.node_names
    n_nodes = spec.n_nodes
    # Receivers of a standard CAN frame deliver at the last-but-one EOF
    # bit; MinorCAN and MajorCAN postpone delivery to the last.
    rx_lag = 1 if spec.protocol == "can" else 0

    heads = [0] * n_nodes
    attempts = [0] * n_nodes
    node_events: List[List[Event]] = [[] for _ in range(n_nodes)]
    deliveries: List[List[Tuple[str, int, int]]] = [[] for _ in range(n_nodes)]
    completions: List[List[int]] = [[] for _ in range(n_nodes)]
    pieces: List[str] = []
    cursor = 0
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
                eof_length,
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

    # Arrivals at or after ``bits`` belong to the engine suffix, which
    # samples them itself; the closed-form walk stops at its horizon.
    arrivals = [
        [entry[0] for entry in node_queue if entry[0] < bits] for node_queue in queues
    ]
    return WindowResult(
        window=window,
        bits=bits,
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
    ), attempts


def _noise_draw_width(spec: TrafficSpec) -> int:
    """Uniform draws the noise injector consumes per engine tick.

    One per noise-eligible node, by the rule the injector ranks its
    nodes with (:func:`repro.faults.bit_errors.view_noise_ranks`).
    """
    if spec.noise_ber <= 0.0:
        return 0
    return len(view_noise_ranks(spec.node_names, spec.noise_nodes))


def run_window_batch(
    spec: TrafficSpec,
    window: int,
    submissions: Tuple[Submission, ...],
    noise_seed=None,
) -> WindowResult:
    """Evaluate one non-HLP window: clean prefix, then the engine suffix.

    Plans the clean timeline once, then draws the window's whole noise
    mask in the engine's stream order (one uniform per noise-eligible
    node per tick over that timeline) and thresholds it against the
    BER.  A window with no flip and no scheduled burst inside the clean
    timeline *is* the clean window: the plan is rendered whole
    (``"batch"``, no suffix).  Otherwise the plan goes to
    :func:`_resume_window` with its first fault tick.  When the clean
    timeline overflows the drain budget, the window resumes from tick 0
    (an empty prefix), so the engine raises its own ``SimulationError``.
    """
    rng = rng_from(noise_seed) if spec.noise_ber > 0.0 else None
    draw_width = _noise_draw_width(spec)
    queues = _local_queues(spec, window, submissions)
    plans, total_bits = _plan_frames(spec, queues, len(submissions))
    if total_bits - spec.window_bits > spec.max_window_bits:
        return _resume_window(spec, window, queues, plans, rng, draw_width, 0)
    fault_tick = None
    if draw_width:
        state = generator_state(rng)
        flip = first_flip(rng, total_bits * draw_width, spec.noise_ber)
        restore_state(rng, state)
        if flip is not None:
            fault_tick = flip // draw_width
    for burst in spec.bursts_for_window(window):
        if burst.start < total_bits and (
            fault_tick is None or burst.start < fault_tick
        ):
            fault_tick = burst.start
    if fault_tick is None:
        return _render_prefix(spec, window, queues, plans, total_bits)[0]
    return _resume_window(spec, window, queues, plans, rng, draw_width, fault_tick)


def _resume_window(
    spec: TrafficSpec,
    window: int,
    queues: List[List[Tuple[int, object, Submission]]],
    plans: List[_FramePlan],
    rng,
    draw_width: int,
    fault_tick: int,
) -> WindowResult:
    """A faulted window: the clean prefix up to the cut, then the engine.

    ``queues`` and ``plans`` are the window's clean plan from
    :func:`run_window_batch`.  The plan is committed frame by frame
    while a frame's whole extent *including its three intermission
    bits* ends strictly before the first fault tick — so the frame
    carrying the fault (in body or intermission) is never committed,
    no frame is mid-flight at the cut, and every committed tick is
    provably fault-free.  The cut ``s`` is the latest tick with those
    guarantees: the first fault tick itself, clamped below the next
    uncommitted frame's SOF.  The engine suffix then runs window ticks
    ``s..`` with (a) the generator fast-forwarded ``s * draw_width``
    draws, (b) uncommitted submissions re-queued at
    ``max(0, arrival - s)``, (c) carried arbitration attempt counters
    restored and (d) bursts shifted by ``s``.  The halves are spliced
    (prefix events strictly precede tick ``s``, so concatenation is the
    engine's heap merge).  At ``s = 0`` nothing commits and the suffix
    is the whole window (``"engine"``).
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
    prefix, attempts = _render_prefix(spec, window, queues, plans[:committed], cut)

    # Uncommitted submissions re-enter the suffix at shifted times; a
    # stable (time, node) sort preserves each node's queue order, which
    # is all the per-node controllers can observe.
    heads = [0] * spec.n_nodes
    for plan in plans[:committed]:
        heads[plan.winner] += 1
    pending = sorted(
        (
            (max(0, arrival - cut), sub)
            for node_queue, head in zip(queues, heads)
            for arrival, _, sub in node_queue[head:]
        ),
        key=lambda item: (item[0], item[1].node_index),
    )
    if rng is not None:
        advance(rng, cut * draw_width)
    suffix = _run_engine_suffix(spec, window, pending, rng, cut, tuple(attempts))
    if not cut:
        return suffix

    bus = prefix.bus + suffix.bus
    event_counts = dict(prefix.event_counts)
    for kind, count in suffix.event_counts.items():
        event_counts[kind] = event_counts.get(kind, 0) + count
    return replace(
        suffix,
        bits=cut + suffix.bits,
        bus=bus,
        deliveries={
            name: prefix.deliveries[name] + rows
            for name, rows in suffix.deliveries.items()
        },
        event_counts=event_counts,
        events=None if suffix.events is None else prefix.events + suffix.events,
        max_backlog=max(prefix.max_backlog, suffix.max_backlog),
        busy_bits=count_busy_bits(bus),
        backend="resume",
    )
