"""Frame-granular batch evaluation of clean traffic windows.

A window free of noise, bursts and higher-level protocols is fully
determined by its submission schedule: identifiers are fixed per node,
so arbitration under contention resolves deterministically (lowest
identifier = lowest node index wins), every frame is acknowledged, no
error flag ever fires, and the bus trace is the concatenation of the
winners' cached :class:`repro.can.encoding.BusImage` wire images with
recessive gaps in between.  :func:`run_window_batch` therefore replays
the whole window with a priority-queue scheduler at bus-idle instants
instead of stepping :class:`repro.simulation.engine.SimulationEngine`
bit by bit, and reproduces the engine's observable surface *exactly* —
bus string, per-node deliveries, event stream (times, payloads and
merge order), backlog samples, busy-bit count and the drain-parity
``SimulationError``.

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

Window outcomes are memoised in a process-wide content-addressed cache
keyed like :func:`repro.sweep.cell.cell_key` — protocol, ``m``, the
config knobs and the exact window-local schedule — so identical window
shapes (empty windows, warm re-runs, sweep re-evaluations) collapse to
cache hits.  Note the honest limit: periodic workloads advance their
sequence numbers every window, so distinct windows of one run rarely
collide; the speedup comes from eliminating the engine, the cache from
eliminating *repeated* evaluation.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.can.events import Event, EventKind
from repro.errors import SimulationError
from repro.traffic.spec import Submission, TrafficSpec

#: Version of the window-cache key schema.  Bump whenever the batch
#: evaluator's semantics change in a way that invalidates cached
#: window results.
WINDOW_KEY_VERSION = 1

#: Quiet bits a drained window ends with (``run._SETTLE_BITS``).
_SETTLE_BITS = 12

#: Bit times between a frame's last EOF bit and the next possible SOF:
#: three intermission bits consumed, then the first idle drive instant.
_TURNAROUND = 4

#: Backlog sampling stride; mirrors ``run._BACKLOG_STRIDE``.
_BACKLOG_STRIDE = 16

#: Process-wide memo of evaluated windows, insertion-ordered for FIFO
#: eviction.  Values are canonical :class:`WindowResult` objects; hits
#: return copies re-stamped with the caller's window index.
_WINDOW_CACHE: Dict[str, object] = {}
_WINDOW_CACHE_MAX = 1024
_CACHE_STATS = {"hits": 0, "misses": 0}


def window_backend(spec: TrafficSpec, window: int) -> str:
    """Which evaluator handles ``window`` of ``spec`` under ``batch``.

    ``"batch"`` is the closed-form replay: nothing can perturb the
    deterministic arbitration timeline.  ``"noise"`` is the vectorised
    noise dispatch (:func:`run_window_noisy`): random view noise and
    scheduled bursts are scanned against the clean timeline and only
    actually-flipped realisations touch the engine, resumed from the
    fault point.  Only higher-level protocols stay on ``"engine"``
    outright — HLP timers submit frames mid-run, so the clean timeline
    the scan needs is not known in advance.
    """
    if spec.hlp is not None:
        return "engine"
    if spec.noise_ber > 0.0 or spec.bursts_for_window(window):
        return "noise"
    return "batch"


def window_cache_key(
    spec: TrafficSpec, window: int, submissions: Tuple[Submission, ...]
) -> str:
    """Content-addressed key of one window evaluation.

    Keyed like :func:`repro.sweep.cell.cell_key`: SHA-256 over the
    canonical JSON of everything the result depends on — protocol,
    ``m``, node count, the window/drain geometry, the config knobs and
    the *window-local* schedule (times relative to the window start, so
    two windows with the same shape share a key regardless of their
    position in the run).
    """
    from repro.metrics.export import json_line

    offset = window * spec.window_bits
    payload = {
        "key_version": WINDOW_KEY_VERSION,
        "protocol": spec.protocol,
        "m": spec.m,
        "n_nodes": spec.n_nodes,
        "window_bits": spec.window_bits,
        "max_window_bits": spec.max_window_bits,
        "bus_off_recovery": spec.bus_off_recovery,
        "fast_path": spec.fast_path,
        "record_events": spec.record_events,
        "schedule": [
            [
                sub.time - offset,
                sub.node_index,
                sub.seq,
                sub.identifier,
                sub.payload.hex(),
                sub.message_id,
            ]
            for sub in submissions
        ],
    }
    return hashlib.sha256(json_line(payload).encode("utf-8")).hexdigest()


def window_cache_stats() -> Dict[str, int]:
    """Hit/miss/size counters of the process-wide window cache."""
    return {
        "entries": len(_WINDOW_CACHE),
        "hits": _CACHE_STATS["hits"],
        "misses": _CACHE_STATS["misses"],
    }


def clear_window_cache() -> None:
    """Empty the window cache and reset its counters (tests, benches)."""
    _WINDOW_CACHE.clear()
    _CACHE_STATS["hits"] = 0
    _CACHE_STATS["misses"] = 0


def _eof_length(spec: TrafficSpec) -> int:
    from repro.traffic.run import _controller_config

    return _controller_config(spec).eof_length


def _submission_frame(spec: TrafficSpec, sub: Submission):
    """The exact frame the engine path would submit for ``sub``."""
    from repro.can.frame import data_frame

    return data_frame(
        sub.identifier,
        sub.payload,
        message_id=sub.message_id,
        origin=spec.node_names[sub.node_index],
    )


def _arbitration_divergence(loser_values, winner_values) -> int:
    """First wire position where the loser's program leaves the bus.

    Both programs share SOF and every stuffed prefix bit up to the
    first identifier bit where the winner drives dominant and the loser
    recessive (stuff decisions depend only on the identical prefix), so
    the first level difference is the loser's arbitration-loss
    position.
    """
    for position, (loser, winner) in enumerate(zip(loser_values, winner_values)):
        if loser != winner:
            return position
    raise SimulationError("contending frames share an identifier")


def _busy_symbols(symbols: str) -> int:
    """Busy-bit count of a trace string, same idle rule as the engine:
    dominant bits and the first twelve bits of every recessive run."""
    busy = 0
    idle_run = 0
    for symbol in symbols:
        if symbol == "d":
            busy += 1
            idle_run = 0
        else:
            idle_run += 1
            if idle_run <= _SETTLE_BITS:
                busy += 1
    return busy


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
    """One planned frame on the clean timeline (plan/render split)."""

    __slots__ = ("t0", "t_end", "winner", "contenders")

    def __init__(self, t0: int, t_end: int, winner: int, contenders: Tuple[int, ...]):
        self.t0 = t0
        self.t_end = t_end
        self.winner = winner
        self.contenders = contenders


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
            (sub.time - offset, _submission_frame(spec, sub), sub)
        )
    return queues


def _plan_frames(
    spec: TrafficSpec,
    queues: List[List[Tuple[int, object, Submission]]],
    count: int,
) -> Tuple[List[_FramePlan], int]:
    """Lay the window's frames on the clean timeline; no rendering.

    Returns the time-ordered frame plans and the window's total bit
    length (active + drain), raising the engine's drain-parity
    ``SimulationError`` when the clean timeline alone would overflow
    the window's drain budget.
    """
    from repro.can.encoding import bus_image

    eof_length = _eof_length(spec)
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
        image = bus_image(queues[winner][heads[winner]][1], eof_length)
        t_end = t0 + image.length - 1
        plans.append(_FramePlan(t0, t_end, winner, contenders))
        heads[winner] += 1
        remaining -= 1
        idle_from = t_end + _TURNAROUND
    if not plans:
        total_bits = spec.window_bits + _SETTLE_BITS
    else:
        total_bits = (
            max(spec.window_bits, plans[-1].t_end + _TURNAROUND - 1) + _SETTLE_BITS
        )
    if total_bits - spec.window_bits > spec.max_window_bits:
        raise SimulationError(
            "bus did not become idle within %d bits" % spec.max_window_bits
        )
    return plans, total_bits


def _render_frames(
    spec: TrafficSpec,
    queues: List[List[Tuple[int, object, Submission]]],
    plans: List[_FramePlan],
):
    """Engine-exact surface of the planned frames.

    Returns ``(node_events, deliveries, completions, segments,
    attempts)`` for exactly the frames in ``plans`` — the whole window
    on the clean path, the committed prefix on the noisy resume path.
    ``attempts`` is the per-node retry counter left standing after the
    last plan (losers of committed arbitration rounds carry it into
    the resumed engine so their next TX_START numbers identically).
    """
    from repro.can.frame import Frame
    from repro.can.encoding import bus_image
    from repro.can.identifiers import CanId
    from repro.traffic.run import _controller_config

    config = _controller_config(spec)
    eof_length = config.eof_length
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
    segments: List[Tuple[int, str]] = []

    for plan in plans:
        t0 = plan.t0
        t_end = plan.t_end
        winner = plan.winner
        contenders = plan.contenders
        _, winner_frame, winner_sub = queues[winner][heads[winner]]
        image = bus_image(winner_frame, eof_length)

        contending = set(contenders)
        for index in range(n_nodes):
            if index in contending:
                attempts[index] += 1
                frame = queues[index][heads[index]][1]
                node_events[index].append(
                    Event(
                        time=t0,
                        node=names[index],
                        kind=EventKind.TX_START,
                        data={
                            "frame": str(frame),
                            "attempt": attempts[index],
                            "message_id": frame.message_id,
                        },
                    )
                )
            else:
                node_events[index].append(
                    Event(time=t0, node=names[index], kind=EventKind.RX_START, data={})
                )
        for index in contenders[1:]:
            loser_program = bus_image(queues[index][heads[index]][1], eof_length).program
            position = _arbitration_divergence(
                loser_program.bit_values, image.program.bit_values
            )
            field, field_index = loser_program.positions[position]
            node_events[index].append(
                Event(
                    time=t0 + position,
                    node=names[index],
                    kind=EventKind.ARBITRATION_LOST,
                    data={"field": field, "index": field_index},
                )
            )

        origin = names[winner]
        seq = winner_sub.payload[0] | (winner_sub.payload[1] << 8)
        received = Frame(
            can_id=CanId(winner_sub.identifier), data=winner_sub.payload
        )
        received_str = str(received)
        rx_time = t_end - rx_lag
        for index in range(n_nodes):
            if index == winner:
                continue
            node_events[index].append(
                Event(
                    time=rx_time,
                    node=names[index],
                    kind=EventKind.FRAME_DELIVERED,
                    data={"frame": received_str, "message_id": None, "attempt": None},
                )
            )
            deliveries[index].append((origin, seq, rx_time))
        node_events[winner].append(
            Event(
                time=t_end,
                node=names[winner],
                kind=EventKind.TX_SUCCESS,
                data={
                    "frame": str(winner_frame),
                    "attempt": attempts[winner],
                    "message_id": winner_frame.message_id,
                },
            )
        )
        if config.self_delivery:
            node_events[winner].append(
                Event(
                    time=t_end,
                    node=names[winner],
                    kind=EventKind.FRAME_DELIVERED,
                    data={
                        "frame": str(winner_frame),
                        "message_id": winner_frame.message_id,
                        "attempt": attempts[winner],
                    },
                )
            )
            deliveries[winner].append((origin, seq, t_end))
        completions[winner].append(t_end)
        heads[winner] += 1
        attempts[winner] = 0
        segments.append((t0, image.symbols))

    return node_events, deliveries, completions, segments, attempts


def _evaluate_window(
    spec: TrafficSpec, window: int, submissions: Tuple[Submission, ...]
):
    """Closed-form replay of one clean window (see the module docs)."""
    from repro.tracestore.recorder import event_record
    from repro.traffic.run import WindowResult

    names = spec.node_names
    n_nodes = spec.n_nodes
    queues = _local_queues(spec, window, submissions)
    plans, total_bits = _plan_frames(spec, queues, len(submissions))
    node_events, deliveries, completions, segments, _ = _render_frames(
        spec, queues, plans
    )

    symbols = ["r"] * total_bits
    for start, frame_symbols in segments:
        symbols[start : start + len(frame_symbols)] = frame_symbols
    bus = "".join(symbols)

    merged = list(heapq.merge(*node_events, key=lambda event: event.time))
    event_counts: Dict[str, int] = {}
    for event in merged:
        event_counts[event.kind] = event_counts.get(event.kind, 0) + 1
    events: Optional[Tuple[dict, ...]] = (
        tuple(event_record(event) for event in merged)
        if spec.record_events
        else None
    )

    arrivals = [
        [entry[0] for entry in node_queue] for node_queue in queues
    ]
    return WindowResult(
        window=window,
        bits=total_bits,
        bus=bus,
        deliveries={
            names[index]: tuple(deliveries[index]) for index in range(n_nodes)
        },
        event_counts=event_counts,
        events=events,
        ever_offline=(),
        offline_at_end=(),
        max_backlog=_max_sampled_backlog(arrivals, completions, total_bits),
        busy_bits=_busy_symbols(bus),
        errors_injected=0,
        backend="batch",
    )


def run_window_batch(
    spec: TrafficSpec, window: int, submissions: Tuple[Submission, ...]
):
    """Evaluate one clean window through the memoised batch evaluator.

    The caller (``run_window`` with ``backend="batch"``) is responsible
    for routing only batch-eligible windows here — see
    :func:`window_backend`.
    """
    key = window_cache_key(spec, window, submissions)
    cached = _WINDOW_CACHE.get(key)
    if cached is not None:
        _CACHE_STATS["hits"] += 1
        return replace(
            cached,
            window=window,
            deliveries=dict(cached.deliveries),
            event_counts=dict(cached.event_counts),
        )
    _CACHE_STATS["misses"] += 1
    result = _evaluate_window(spec, window, submissions)
    if len(_WINDOW_CACHE) >= _WINDOW_CACHE_MAX:
        _WINDOW_CACHE.pop(next(iter(_WINDOW_CACHE)))
    _WINDOW_CACHE[key] = result
    return result


def _noise_draw_width(spec: TrafficSpec) -> int:
    """Uniform draws the noise injector consumes per engine tick.

    ``RandomViewErrorInjector`` draws once per ``perturb_view`` call —
    one per node per tick in engine node order — except that nodes
    outside ``only_nodes`` return early *before* the draw.
    """
    if spec.noise_ber <= 0.0:
        return 0
    if spec.noise_nodes is None:
        return spec.n_nodes
    allowed = set(spec.noise_nodes)
    return sum(1 for name in spec.node_names if name in allowed)


def run_window_noisy(
    spec: TrafficSpec,
    window: int,
    submissions: Tuple[Submission, ...],
    noise_seed,
):
    """Vectorised dispatch of one noisy/burst window (ISSUE 10).

    Draws the window's whole noise mask in the engine's stream order
    (one uniform per noise-eligible node per tick over the fault-free
    timeline) and thresholds it against the BER.  A zero-fault window
    *is* the clean window, so it resolves through the memoised batch
    evaluator with no simulation; a window whose mask fires — or whose
    scheduled burst lands inside the clean timeline — commits the
    clean frames that provably finish before the first fault and
    re-enters the engine from the cut point with the generator
    advanced to the same stream position, so error cascades and the
    shifted downstream schedule are exactly the engine's.  Falls back
    to a plain engine run when nothing can be committed (fault at the
    window start) or when even the clean timeline overflows the drain
    budget (only the engine reproduces the exact overflow surface).
    """
    from repro.analysis.noisebatch import first_flip, generator_state, restore_state
    from repro.traffic.run import _run_window_engine

    try:
        clean = run_window_batch(spec, window, submissions)
    except SimulationError:
        return _run_window_engine(spec, window, submissions, noise_seed)
    draw_width = _noise_draw_width(spec)
    rng = None
    fault_tick = None
    if draw_width:
        from repro.parallel.seeds import rng_from

        rng = rng_from(noise_seed)
        state = generator_state(rng)
        flip = first_flip(rng, clean.bits * draw_width, spec.noise_ber)
        restore_state(rng, state)
        if flip is not None:
            fault_tick = flip // draw_width
    for burst in spec.bursts_for_window(window):
        if burst.start < clean.bits and (
            fault_tick is None or burst.start < fault_tick
        ):
            fault_tick = burst.start
    if fault_tick is None:
        return clean
    return _resume_window(
        spec, window, submissions, noise_seed, rng, draw_width, fault_tick
    )


def _resume_window(
    spec: TrafficSpec,
    window: int,
    submissions: Tuple[Submission, ...],
    noise_seed,
    rng,
    draw_width: int,
    fault_tick: int,
):
    """Engine run of a faulted window, resumed from the last safe cut.

    The clean timeline is committed frame by frame while a frame's
    whole extent *including its three intermission bits* ends strictly
    before the first fault tick — so the frame carrying the fault (in
    body or intermission) is never committed, no frame is mid-flight
    at the cut, and every committed tick is provably fault-free.  The
    cut ``s`` is the latest tick with those guarantees: the first
    fault tick itself, clamped below the next uncommitted frame's SOF.
    A fresh engine then replays global ticks ``s..`` at local ``0..``
    with (a) the generator fast-forwarded ``s * draw_width`` draws, (b)
    uncommitted submissions re-queued at ``max(0, arrival - s)``, (c)
    carried arbitration attempt counters restored, and (d) bursts
    shifted by ``s``; the surfaces are spliced (prefix events strictly
    precede tick ``s``, so concatenation is the engine's heap merge).
    """
    from repro.analysis.noisebatch import advance
    from repro.can.events import EventKind
    from repro.faults.scenarios import make_controller
    from repro.simulation.engine import SimulationEngine
    from repro.tracestore.recorder import event_record
    from repro.traffic.run import (
        WindowResult,
        _controller_config,
        _decode_wire_key,
        _run_window_engine,
    )

    queues = _local_queues(spec, window, submissions)
    plans, _ = _plan_frames(spec, queues, len(submissions))
    committed: List[_FramePlan] = []
    for plan in plans:
        if plan.t_end + _TURNAROUND - 1 < fault_tick:
            committed.append(plan)
        else:
            break
    if len(committed) < len(plans):
        cut = min(fault_tick, plans[len(committed)].t0 - 1)
    else:
        cut = fault_tick
    if cut <= 0:
        # Nothing commits: the resume would be a full engine run, so
        # run (and account) it as one.
        return _run_window_engine(spec, window, submissions, noise_seed)

    names = spec.node_names
    n_nodes = spec.n_nodes
    node_events, deliveries, completions, segments, attempts_carry = _render_frames(
        spec, queues, committed
    )
    heads = [0] * n_nodes
    for plan in committed:
        heads[plan.winner] += 1

    # Uncommitted submissions re-enter the resumed engine at shifted
    # times; a stable (time, node) sort preserves each node's queue
    # order, which is all the per-node controllers can observe.
    carried: List[Tuple[int, int, object]] = []
    for index in range(n_nodes):
        for arrival, frame, _ in queues[index][heads[index]:]:
            carried.append((max(0, arrival - cut), index, frame))
    carried.sort(key=lambda item: (item[0], item[1]))

    injectors: List[object] = []
    if rng is not None:
        from repro.faults.bit_errors import RandomViewErrorInjector

        advance(rng, cut * draw_width)
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
    if not injectors:
        injector = None
    elif len(injectors) == 1:
        injector = injectors[0]
    else:
        from repro.faults.injector import CompositeInjector

        injector = CompositeInjector(list(injectors))

    config = _controller_config(spec)
    controllers = [
        make_controller(spec.protocol, name, m=spec.m, config=config)
        for name in names
    ]
    engine = SimulationEngine(controllers, injector=injector, record_bits=False)

    cursor = [0]

    def _submit(now: int) -> None:
        index = cursor[0]
        while index < len(carried) and carried[index][0] == now:
            _, node_index, frame = carried[index]
            controllers[node_index].submit(frame)
            index += 1
        cursor[0] = index
        if now == 0:
            # Losers of committed arbitration rounds retry with their
            # attempt counters intact, so resumed TX_START/TX_SUCCESS
            # events number exactly like the engine's.
            for node_index, carry in enumerate(attempts_carry):
                if carry and controllers[node_index].tx_queue:
                    controllers[node_index].tx_queue[0].attempts = carry

    backlog = [0]

    def _sample_backlog(now: int) -> None:
        if (now + cut) & (_BACKLOG_STRIDE - 1) == 0:
            depth = max(c.pending_transmissions for c in controllers)
            if depth > backlog[0]:
                backlog[0] = depth

    engine.add_tick_hook(_submit)
    engine.add_tick_hook(_sample_backlog)

    try:
        if cut < spec.window_bits:
            engine.run(spec.window_bits - cut)
            drain_budget = spec.max_window_bits
        else:
            # The committed prefix already spent part of the drain
            # budget; the resumed engine gets exactly the remainder.
            drain_budget = spec.max_window_bits - (cut - spec.window_bits)
        engine.run_until_idle(max_bits=drain_budget, settle_bits=_SETTLE_BITS)
    except SimulationError as exc:
        if str(exc).startswith("bus did not become idle"):
            raise SimulationError(
                "bus did not become idle within %d bits" % spec.max_window_bits
            )
        raise

    trace = engine.collect_events()
    prefix_events = list(heapq.merge(*node_events, key=lambda event: event.time))
    event_counts: Dict[str, int] = {}
    for event in prefix_events:
        event_counts[event.kind] = event_counts.get(event.kind, 0) + 1
    for event in trace.events:
        event_counts[event.kind] = event_counts.get(event.kind, 0) + 1
    events: Optional[Tuple[dict, ...]] = None
    if spec.record_events:
        records = [event_record(event) for event in prefix_events]
        for event in trace.events:
            record = event_record(event)
            record["t"] += cut
            records.append(record)
        events = tuple(records)

    merged_deliveries: Dict[str, Tuple[Tuple[str, int, int], ...]] = {}
    for index, name in enumerate(names):
        rows = list(deliveries[index])
        for delivery in controllers[index].deliveries:
            key = _decode_wire_key(delivery.frame, n_nodes)
            if key is not None:
                rows.append((key[0], key[1], delivery.time + cut))
        merged_deliveries[name] = tuple(rows)

    prefix_symbols = ["r"] * cut
    for start, frame_symbols in segments:
        prefix_symbols[start : start + len(frame_symbols)] = frame_symbols
    bus = "".join(prefix_symbols) + "".join(
        level.symbol for level in engine.bus.history
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
    # Prefix depth only: arrivals at or after the cut are re-submitted
    # into the resumed engine (at ``max(0, arrival - cut)``) and show
    # up through its own sampler, so the closed-form walk stops at the
    # cut — it must never see ticks beyond its ``total_bits`` horizon.
    arrivals = [
        [entry[0] for entry in node_queue if entry[0] < cut] for node_queue in queues
    ]

    return WindowResult(
        window=window,
        bits=cut + engine.time,
        bus=bus,
        deliveries=merged_deliveries,
        event_counts=event_counts,
        events=events,
        ever_offline=tuple(ever_offline),
        offline_at_end=tuple(c.name for c in controllers if c.offline),
        max_backlog=max(
            _max_sampled_backlog(arrivals, completions, cut), backlog[0]
        ),
        busy_bits=_busy_symbols(bus),
        errors_injected=sum(getattr(part, "injected", 0) for part in injectors),
        backend="resume",
    )
