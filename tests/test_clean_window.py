"""The clean-window render and the frame encoder it builds on.

Four contracts of the traffic batch path's clean windows:

- a window's ``event_counts`` summed in closed form (events off) equal
  the counts of the event stream it renders with events on, and every
  other observable is the same;
- the heap planner lays out exactly the frames of the per-frame scan
  of every node it replaced, kept below as the oracle;
- every column of the one-pass encoding (levels, bit values,
  positions, stuff and arbitration flags, opcodes and the ACK-forced
  bus symbols) equals the per-bit encoder and compiler it replaced,
  kept below as the oracle (their per-bit logic unchanged);
- a window encodes each of its frames once, however many frames it
  holds and however often a faulted window is planned again.
"""

from __future__ import annotations

import pickle
from collections import Counter
from dataclasses import asdict, replace
from typing import List, NamedTuple, Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.can.encoding as encoding
from repro.can.bits import Level
from repro.can.controller import CanController
from repro.can.encoding import (
    OP_ACK,
    OP_ARB,
    OP_EOF,
    OP_MATCH,
    WireFrame,
    encode_frame,
    wire_program,
)
from repro.can.fields import (
    ACK_SLOT,
    ARBITRATION_FIELDS,
    EOF,
    STANDARD_EOF_LENGTH,
    header_segments,
)
from repro.can.frame import Frame
from repro.can.geometry import tail_positions
from repro.can.identifiers import CanId
from repro.can.stuffing import STUFF_WIDTH
from repro.core.majorcan import majorcan_config
from repro.faults.scenarios import make_controller
from repro.traffic import TrafficSpec, build_schedule, run_window
from repro.traffic.batch import _local_queues, _plan_frames, _quiet_bound
from repro.traffic.window import _controller_config, _submission_frame

# ---------------------------------------------------------------------------
# Events off ≡ events on, except the events
# ---------------------------------------------------------------------------


@st.composite
def clean_specs(draw):
    source = draw(st.sampled_from(("periodic", "poisson")))
    return TrafficSpec(
        name="clean",
        protocol=draw(st.sampled_from(("can", "minorcan", "majorcan"))),
        m=draw(st.integers(3, 8)),
        n_nodes=draw(st.integers(2, 32)),
        windows=2,
        window_bits=draw(st.integers(64, 2500)),
        source=source,
        load=draw(st.floats(0.2, 1.5)),
        rate_per_bit=draw(st.floats(1e-3, 2e-2)) if source == "poisson" else 0.0,
        seed=draw(st.integers(0, 2**16)),
        record_events=False,
    )


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(clean_specs())
def test_window_without_events_equals_window_with_events(spec):
    recorded = replace(spec, record_events=True)
    schedule = build_schedule(spec)
    for window in range(spec.windows):
        submissions = tuple(sub for sub in schedule if sub.window == window)
        counted = run_window(spec, window, submissions, backend="batch")
        rendered = run_window(recorded, window, submissions, backend="batch")
        assert counted.events is None
        assert rendered.events is not None
        assert sum(rendered.event_counts.values()) == len(rendered.events)
        assert dict(counted.event_counts) == dict(rendered.event_counts)
        assert replace(counted, events=rendered.events) == rendered


# ---------------------------------------------------------------------------
# The heap planner ≡ the per-frame scan of every node it replaced
# ---------------------------------------------------------------------------


def oracle_plan(spec, queues, heads, start):
    """The planner before the heap: every frame rescans every node."""
    eof_length = _controller_config(spec).eof_length
    heads = list(heads)
    plans = []
    idle_from = start
    nodes = range(spec.n_nodes)
    while any(heads[i] < len(queues[i]) for i in nodes):
        a_min = min(queues[i][heads[i]][0] for i in nodes if heads[i] < len(queues[i]))
        t0 = max(idle_from, a_min + 1)
        contenders = tuple(
            i for i in nodes if heads[i] < len(queues[i]) and queues[i][heads[i]][0] < t0
        )
        winner = contenders[0]
        wire = wire_program(queues[winner][heads[winner]][1], eof_length)
        t_end = t0 + wire.length - 1
        plans.append((t0, t_end, winner, contenders))
        heads[winner] += 1
        idle_from = t_end + 4
    return plans


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(clean_specs(), st.data())
def test_heap_planner_equals_the_node_scan(spec, data):
    # From the window start, and from a later tick with some frames of
    # each queue already gone, as after an engine segment hands back.
    submissions = tuple(sub for sub in build_schedule(spec) if sub.window == 0)
    queues = _local_queues(spec, 0, submissions)
    starts = [(0, [0] * spec.n_nodes)]
    starts.append((
        data.draw(st.integers(0, spec.window_bits)),
        [data.draw(st.integers(0, len(queue))) for queue in queues],
    ))
    for start, heads in starts:
        plans, _ = _plan_frames(spec, queues, heads, start)
        assert [
            (plan.t0, plan.t_end, plan.winner, plan.contenders) for plan in plans
        ] == oracle_plan(spec, queues, heads, start)


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(clean_specs(), st.data())
def test_quiet_bound_covers_the_plan(spec, data):
    # A declined hand-back trusts this bound instead of planning the
    # rest of the window to rule out a drain overflow.
    submissions = tuple(sub for sub in build_schedule(spec) if sub.window == 0)
    queues = _local_queues(spec, 0, submissions)
    start = data.draw(st.integers(0, spec.window_bits))
    heads = [data.draw(st.integers(0, len(queue))) for queue in queues]
    plans, _ = _plan_frames(spec, queues, heads, start)
    quiet_from = plans[-1].t_end + 3 if plans else start
    assert _quiet_bound(queues, heads, start) >= quiet_from


# ---------------------------------------------------------------------------
# The per-bit encoder and compiler, logic unchanged, as the oracle
# ---------------------------------------------------------------------------


class OracleBit(NamedTuple):
    """One bit of the per-bit encoder's stream."""

    level: Level
    field: str
    index: int
    is_stuff: bool
    in_arbitration: bool


def oracle_encode_bits(
    frame: Frame, eof_length: int = STANDARD_EOF_LENGTH
) -> List[OracleBit]:
    wire_bits: List[OracleBit] = []
    run_value: Optional[int] = None
    run_length = 0
    for segment in header_segments(frame):
        in_arbitration = segment.name in ARBITRATION_FIELDS
        for index, bit in enumerate(segment.bits):
            wire_bits.append(
                OracleBit(
                    level=Level(bit),
                    field=segment.name,
                    index=index,
                    is_stuff=False,
                    in_arbitration=in_arbitration,
                )
            )
            if bit == run_value:
                run_length += 1
            else:
                run_value = bit
                run_length = 1
            if run_length == STUFF_WIDTH:
                stuff_bit = 1 - bit
                wire_bits.append(
                    OracleBit(
                        level=Level(stuff_bit),
                        field=segment.name,
                        index=index,
                        is_stuff=True,
                        in_arbitration=in_arbitration,
                    )
                )
                run_value = stuff_bit
                run_length = 1
    for field, index in tail_positions(eof_length):
        wire_bits.append(
            OracleBit(
                level=Level.RECESSIVE,
                field=field,
                index=index,
                is_stuff=False,
                in_arbitration=False,
            )
        )
    return wire_bits


def oracle_encode_frame(
    frame: Frame, eof_length: int = STANDARD_EOF_LENGTH
) -> WireFrame:
    """Every column of the encoding, derived bit by bit from the stream."""
    wire_bits = oracle_encode_bits(frame, eof_length)
    ops: List[int] = []
    for wire_bit in wire_bits:
        if wire_bit.field == EOF:
            ops.append(OP_EOF)
        elif wire_bit.field == ACK_SLOT:
            ops.append(OP_ACK)
        elif (
            wire_bit.in_arbitration
            and wire_bit.level is Level.RECESSIVE
            and not wire_bit.is_stuff
        ):
            ops.append(OP_ARB)
        else:
            ops.append(OP_MATCH)
    # The bus of an uncontested frame: receivers acknowledge.
    symbols = "".join(
        "d" if wire_bit.level is Level.DOMINANT or wire_bit.field == ACK_SLOT else "r"
        for wire_bit in wire_bits
    )
    return WireFrame(
        frame=frame,
        eof_length=eof_length,
        levels=tuple(wire_bit.level for wire_bit in wire_bits),
        bit_values=tuple(int(wire_bit.level) for wire_bit in wire_bits),
        positions=tuple((wire_bit.field, wire_bit.index) for wire_bit in wire_bits),
        is_stuff=tuple(wire_bit.is_stuff for wire_bit in wire_bits),
        in_arbitration=tuple(wire_bit.in_arbitration for wire_bit in wire_bits),
        ops=tuple(ops),
        length=len(wire_bits),
        symbols=symbols,
    )


def _first_position(wire_bits: List[OracleBit], field: str) -> int:
    return next(
        position for position, bit in enumerate(wire_bits) if bit.field == field
    )


#: Every EOF length a protocol uses: standard CAN and MinorCAN keep the
#: 7-bit EOF, MajorCAN_m has ``2m`` bits.
EOF_LENGTHS = (
    CanController("eof").config.eof_length,
    make_controller("minorcan", "eof").config.eof_length,
) + tuple(majorcan_config(m).eof_length for m in range(3, 11))


@st.composite
def frames(draw):
    extended = draw(st.booleans())
    can_id = CanId(
        draw(st.integers(0, (1 << (29 if extended else 11)) - 1)), extended
    )
    if draw(st.booleans()):
        return Frame(can_id=can_id, remote=True, dlc=draw(st.integers(0, 8)))
    size = draw(st.integers(0, 8))
    fill = draw(st.sampled_from((None, 0x00, 0xFF)))
    data = (
        bytes([fill] * size)
        if fill is not None
        else draw(st.binary(min_size=size, max_size=size))
    )
    return Frame(can_id=can_id, data=data)


def _assert_encoding_equals_oracle(frame: Frame, eof_length: int) -> None:
    wire_bits = oracle_encode_bits(frame, eof_length)
    expected = oracle_encode_frame(frame, eof_length)
    wire = encode_frame(frame, eof_length)
    assert wire == expected
    for name in (
        "levels",
        "bit_values",
        "positions",
        "is_stuff",
        "in_arbitration",
        "ops",
        "symbols",
    ):
        assert getattr(wire, name) == getattr(expected, name), name
        assert len(getattr(wire, name)) == wire.length == len(wire)
    for name in ("levels", "bit_values", "positions", "is_stuff", "in_arbitration", "ops"):
        assert type(getattr(wire, name)) is tuple
    assert type(wire.symbols) is str
    assert all(type(level) is Level for level in wire.levels)
    assert all(type(value) is int for value in wire.bit_values)
    assert all(type(flag) is bool for flag in wire.is_stuff + wire.in_arbitration)
    assert wire.ack_slot_position == _first_position(wire_bits, ACK_SLOT)
    assert wire.eof_start == _first_position(wire_bits, EOF)
    assert wire.symbols[wire.ack_slot_position] == "d"
    assert wire.field_positions(EOF) == list(
        range(wire.eof_start, wire.eof_start + eof_length)
    )
    assert wire_program(frame, eof_length) == expected


@settings(max_examples=300, deadline=None)
@given(frames(), st.sampled_from(EOF_LENGTHS))
def test_encoding_equals_the_per_bit_oracle(frame, eof_length):
    _assert_encoding_equals_oracle(frame, eof_length)


@pytest.mark.parametrize("eof_length", sorted(set(EOF_LENGTHS)))
@pytest.mark.parametrize("extended", [False, True])
def test_every_dlc_and_frame_kind_equals_the_oracle(extended, eof_length):
    identifier = 0x1555_5555 if extended else 0x555
    for dlc in range(9):
        can_id = CanId(identifier, extended)
        _assert_encoding_equals_oracle(
            Frame(can_id=can_id, remote=True, dlc=dlc), eof_length
        )
        for fill in (0x00, 0xFF, 0x5A):
            _assert_encoding_equals_oracle(
                Frame(can_id=can_id, data=bytes([fill] * dlc)), eof_length
            )


def test_one_encoding_type_and_one_frame_cache():
    frame = Frame(can_id=CanId(0x123), data=b"\x00\xff")
    assert encode_frame(frame) == encode_frame(frame)
    assert wire_program(frame) is wire_program(frame)
    caches = {
        name
        for name, value in vars(encoding).items()
        if hasattr(value, "cache_info") and value.__module__ == encoding.__name__
    }
    # One frame cache; the other two are keyed by configuration and by
    # frame *under a flip*, not by the encoding.  (The tail table's
    # cache, keyed by EOF length, belongs to repro.can.geometry.)
    assert caches == {"wire_program", "header_shape", "signal_table"}
    controller = CanController("n")
    assert [name for name in vars(controller) if "wire" in name] == ["_wire"]


# ---------------------------------------------------------------------------
# One encoding per frame and window
# ---------------------------------------------------------------------------


def test_clean_window_encodes_each_frame_once(monkeypatch):
    spec = TrafficSpec(
        name="long-window",
        protocol="majorcan",
        m=5,
        n_nodes=4,
        window_bits=70_000,
        load=0.9,
        seed=3,
        record_events=False,
    )
    submissions = build_schedule(spec)
    frames_sent = Counter(_submission_frame(sub) for sub in submissions)
    # More frames than the wire_program cache holds.
    assert len(frames_sent) > wire_program.cache_info().maxsize

    encoded: Counter = Counter()
    real_encode = encoding.encode_frame

    def counting_encode(frame, eof_length=STANDARD_EOF_LENGTH):
        encoded[frame] += 1
        return real_encode(frame, eof_length)

    wire_program.cache_clear()
    monkeypatch.setattr(encoding, "encode_frame", counting_encode)
    result = run_window(spec, 0, submissions, backend="batch")
    assert result.backend == "batch"
    assert encoded == Counter(frames_sent.keys())


def test_noisy_window_plans_each_frame_encoding_once(monkeypatch):
    # A faulted window is planned again from every boundary an engine
    # segment hands back; the plans reuse the queues' encodings, so the
    # batch side asks for each frame's encoding once.  (The engine's
    # controllers encode what they transmit themselves.)
    import repro.traffic.batch as traffic_batch
    from repro.traffic.window import _EngineWindow

    spec = TrafficSpec(
        name="long-noisy-window",
        protocol="majorcan",
        m=5,
        n_nodes=4,
        window_bits=70_000,
        load=0.9,
        seed=3,
        noise_ber=2e-5,
        record_events=False,
    )
    submissions = tuple(sub for sub in build_schedule(spec) if sub.window == 0)
    asked: Counter = Counter()
    real_wire_program = traffic_batch.wire_program

    def counting_wire_program(frame, eof_length=STANDARD_EOF_LENGTH):
        asked[frame] += 1
        return real_wire_program(frame, eof_length)

    segments = []
    run_segment = _EngineWindow.run_segment

    def spy(self, cut, *args):
        segments.append(cut)
        return run_segment(self, cut, *args)

    monkeypatch.setattr(traffic_batch, "wire_program", counting_wire_program)
    monkeypatch.setattr(_EngineWindow, "run_segment", spy)
    result = traffic_batch.run_window_batch(spec, 0, submissions, noise_seed=3)
    assert result.backend == "resume"
    assert len(segments) >= 2
    assert asked == Counter(_submission_frame(sub) for sub in submissions)


# ---------------------------------------------------------------------------
# TrafficSpec.node_names
# ---------------------------------------------------------------------------


def test_node_names_built_once_and_spec_identity_unchanged():
    spec = TrafficSpec(n_nodes=5, record_events=False)
    assert spec.node_names == ("n0", "n1", "n2", "n3", "n4")
    assert spec.node_names is spec.node_names
    assert TrafficSpec(n_nodes=5).node_names is spec.node_names
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec and hash(clone) == hash(spec)
    assert "node_names" not in asdict(spec)
    assert "node_names" not in vars(spec)
    assert TrafficSpec.from_manifest(spec.to_manifest()) == spec
