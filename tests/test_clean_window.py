"""The clean-window render and the frame encoder it builds on.

Three contracts of the traffic batch path's clean windows:

- a window's ``event_counts`` summed in closed form (events off) equal
  the counts of the event stream it renders with events on, and every
  other observable is the same;
- the interned encoder and the entry-reading compiler equal the
  per-bit encoder they replaced, kept below verbatim as the oracle;
- a window encodes each of its frames once, however many frames it
  holds.
"""

from __future__ import annotations

import pickle
from collections import Counter
from dataclasses import asdict, fields, replace
from typing import List, Optional

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.can.encoding as encoding
from repro.can.bits import Level
from repro.can.encoding import (
    OP_ACK,
    OP_ARB,
    OP_EOF,
    OP_MATCH,
    WireBit,
    WireFrame,
    WireProgram,
    bus_image,
    compile_wire,
    encode_frame,
    wire_program,
)
from repro.can.fields import (
    ACK_SLOT,
    ARBITRATION_FIELDS,
    EOF,
    STANDARD_EOF_LENGTH,
    header_segments,
    tail_segments,
)
from repro.can.frame import Frame
from repro.can.identifiers import CanId
from repro.can.stuffing import STUFF_WIDTH
from repro.traffic import TrafficSpec, build_schedule, run_window
from repro.traffic.window import _submission_frame

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
# The per-bit encoder, verbatim, as the oracle
# ---------------------------------------------------------------------------


def oracle_encode_frame(
    frame: Frame, eof_length: int = STANDARD_EOF_LENGTH
) -> WireFrame:
    wire_bits: List[WireBit] = []
    run_value: Optional[int] = None
    run_length = 0
    for segment in header_segments(frame):
        in_arbitration = segment.name in ARBITRATION_FIELDS
        for index, bit in enumerate(segment.bits):
            wire_bits.append(
                WireBit(
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
                    WireBit(
                        level=Level(stuff_bit),
                        field=segment.name,
                        index=index,
                        is_stuff=True,
                        in_arbitration=in_arbitration,
                    )
                )
                run_value = stuff_bit
                run_length = 1
    for segment in tail_segments(eof_length):
        for index, bit in enumerate(segment.bits):
            wire_bits.append(
                WireBit(
                    level=Level(bit),
                    field=segment.name,
                    index=index,
                    is_stuff=False,
                    in_arbitration=False,
                )
            )
    return WireFrame(frame=frame, bits=tuple(wire_bits), eof_length=eof_length)


def oracle_compile_wire(wire: WireFrame) -> WireProgram:
    levels: List[Level] = []
    bit_values: List[int] = []
    positions = []
    ops: List[int] = []
    for wire_bit in wire.bits:
        levels.append(wire_bit.level)
        bit_values.append(int(wire_bit.level))
        positions.append((wire_bit.field, wire_bit.index))
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
    return WireProgram(
        wire=wire,
        levels=tuple(levels),
        bit_values=tuple(bit_values),
        positions=tuple(positions),
        ops=tuple(ops),
        length=len(wire.bits),
    )


def _first_position(wire: WireFrame, field: str) -> int:
    return next(
        position for position, bit in enumerate(wire.bits) if bit.field == field
    )


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


@settings(max_examples=300, deadline=None)
@given(frames(), st.sampled_from((STANDARD_EOF_LENGTH, 6, 10, 16)))
def test_encoder_and_compiler_equal_the_per_bit_oracle(frame, eof_length):
    expected = oracle_encode_frame(frame, eof_length)
    wire = encode_frame(frame, eof_length)
    assert wire == expected
    assert [bit.level for bit in wire.bits] == [bit.level for bit in expected.bits]
    assert all(type(bit.level) is Level for bit in wire.bits)
    assert wire.ack_slot_position == _first_position(expected, ACK_SLOT)
    assert wire.eof_start == _first_position(expected, EOF)

    program = oracle_compile_wire(expected)
    for compiled in (compile_wire(wire), compile_wire(expected)):
        assert compiled == program
        for name in ("levels", "bit_values", "positions", "ops"):
            assert type(getattr(compiled, name)) is tuple
        assert all(type(level) is Level for level in compiled.levels)
        assert all(type(value) is int for value in compiled.bit_values)
    assert wire_program(frame, eof_length) == program
    image = bus_image(frame, eof_length)
    assert image.symbols == "".join(
        "d" if value == 0 or position == program.wire.ack_slot_position else "r"
        for position, value in enumerate(program.bit_values)
    )


def test_encoder_shares_one_wire_bit_per_value():
    first = encode_frame(Frame(can_id=CanId(0x123), data=b"\x00\xff"))
    second = encode_frame(Frame(can_id=CanId(0x123), data=b"\x00\xff"))
    assert first == second
    assert all(a is b for a, b in zip(first.bits, second.bits))
    # The entry is derived, not a field: equality and repr ignore it.
    assert [field.name for field in fields(WireBit)] == [
        "level",
        "field",
        "index",
        "is_stuff",
        "in_arbitration",
    ]
    assert "entry" not in repr(first.bits[0])


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
    frames_sent = Counter(_submission_frame(spec, sub) for sub in submissions)
    # More frames than the bus_image and wire_program caches hold.
    assert len(frames_sent) > bus_image.cache_info().maxsize
    assert len(frames_sent) > wire_program.cache_info().maxsize

    encoded: Counter = Counter()
    real_encode = encoding.encode_frame

    def counting_encode(frame, eof_length=STANDARD_EOF_LENGTH):
        encoded[frame] += 1
        return real_encode(frame, eof_length)

    bus_image.cache_clear()
    wire_program.cache_clear()
    monkeypatch.setattr(encoding, "encode_frame", counting_encode)
    result = run_window(spec, 0, submissions, backend="batch")
    assert result.backend == "batch"
    assert encoded == Counter(frames_sent.keys())


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
