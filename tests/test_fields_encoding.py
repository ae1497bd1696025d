"""Unit tests for field layout and wire encoding."""

from hypothesis import given
from hypothesis import strategies as st

from repro.can.crc import crc15
from repro.can.encoding import encode_frame
from repro.can.fields import (
    ACK_DELIM,
    ACK_SLOT,
    CRC,
    CRC_DELIM,
    DATA,
    DLC,
    EOF,
    ID_A,
    ID_B,
    IDE,
    R0,
    R1,
    RTR,
    SOF,
    SRR,
    header_segments,
)
from repro.can.frame import data_frame, remote_frame
from repro.can.geometry import tail_positions
from repro.can.stuffing import stuff

from helpers import header_bits

payloads = st.binary(max_size=8)
standard_ids = st.integers(0, 0x7FF)
extended_ids = st.integers(0, 0x1FFFFFFF)


class TestHeaderSegments:
    def test_base_frame_field_order(self):
        names = [name for name, _ in header_segments(data_frame(1, b"\x01"))]
        assert names == [SOF, ID_A, RTR, IDE, R0, DLC, DATA, CRC]

    def test_extended_frame_field_order(self):
        frame = data_frame(1, b"\x01", extended=True)
        names = [name for name, _ in header_segments(frame)]
        assert names == [SOF, ID_A, SRR, IDE, ID_B, RTR, R1, R0, DLC, DATA, CRC]

    def test_remote_frame_has_no_data(self):
        names = [name for name, _ in header_segments(remote_frame(1, dlc=4))]
        assert DATA not in names

    def test_sof_is_dominant(self):
        assert header_segments(data_frame(1, b""))[0] == (SOF, (0,))

    def test_rtr_encodes_remote(self):
        def rtr_bit(frame):
            return dict(header_segments(frame))[RTR][0]

        assert rtr_bit(data_frame(1, b"")) == 0
        assert rtr_bit(remote_frame(1)) == 1

    def test_ide_distinguishes_formats(self):
        def ide_bit(frame):
            return dict(header_segments(frame))[IDE][0]

        assert ide_bit(data_frame(1, b"")) == 0
        assert ide_bit(data_frame(1, b"", extended=True)) == 1

    def test_crc_covers_header(self):
        frame = data_frame(0x123, b"\xde\xad")
        bits = header_bits(frame)
        name, crc_bits = header_segments(frame)[-1]
        covered = bits[: -len(crc_bits)]
        from repro.can.bits import int_from_bits

        assert name == CRC
        assert int_from_bits(list(crc_bits)) == crc15(covered)


class TestTail:
    def test_tail_order_and_values(self):
        assert tail_positions() == (
            (CRC_DELIM, 0),
            (ACK_SLOT, 0),
            (ACK_DELIM, 0),
        ) + tuple((EOF, index) for index in range(7))
        wire = encode_frame(data_frame(0x123, b"\x01"))
        assert set(wire.bit_values[wire.tail_start :]) == {1}

    def test_eof_length_configurable(self):
        positions = tail_positions(eof_length=10)
        assert len([field for field, _ in positions if field == EOF]) == 10


class TestEncodeFrame:
    def test_levels_match_stuffed_header_plus_tail(self):
        frame = data_frame(0x2AA, b"\x0f\xf0")
        wire = encode_frame(frame)
        expected = stuff(header_bits(frame)) + [1] * 10
        assert [int(level) for level in wire.levels] == expected
        assert list(wire.bit_values) == expected

    def test_stuff_bits_flagged(self):
        # Identifier 0 produces runs of dominant bits needing stuffing.
        wire = encode_frame(data_frame(0, b""))
        assert any(wire.is_stuff)

    def test_arbitration_region_marked(self):
        wire = encode_frame(data_frame(0x123, b"\x01"))
        arbitration_fields = {
            field
            for (field, _), in_arbitration in zip(wire.positions, wire.in_arbitration)
            if in_arbitration
        }
        assert ID_A in arbitration_fields
        assert RTR in arbitration_fields
        assert DATA not in arbitration_fields

    def test_ack_slot_position(self):
        wire = encode_frame(data_frame(0x123, b"\x01"))
        assert wire.positions[wire.ack_slot_position] == (ACK_SLOT, 0)

    def test_eof_start(self):
        wire = encode_frame(data_frame(0x123, b"\x01"))
        assert wire.positions[wire.eof_start] == (EOF, 0)
        assert wire.positions[wire.eof_start - 1] == (ACK_DELIM, 0)

    def test_field_positions(self):
        wire = encode_frame(data_frame(0x123, b"\x01"), eof_length=7)
        assert len(wire.field_positions(EOF)) == 7

    def test_custom_eof_length(self):
        wire = encode_frame(data_frame(0x123, b"\x01"), eof_length=10)
        assert len(wire.field_positions(EOF)) == 10
        assert wire.eof_length == 10

    @given(identifier=standard_ids, payload=payloads)
    def test_wire_length_equals_nominal(self, identifier, payload):
        frame = data_frame(identifier, payload)
        assert len(encode_frame(frame)) == len(stuff(header_bits(frame))) + 10

    @given(identifier=extended_ids, payload=payloads)
    def test_extended_wire_length_equals_nominal(self, identifier, payload):
        frame = data_frame(identifier, payload, extended=True)
        assert len(encode_frame(frame)) == len(stuff(header_bits(frame))) + 10

    def test_no_six_bit_runs_before_tail(self):
        wire = encode_frame(data_frame(0, bytes(8)))
        header = [int(level) for level, (field, _) in zip(wire.levels, wire.positions)
                  if field not in (CRC_DELIM, ACK_SLOT, ACK_DELIM, EOF)]
        run, last = 0, None
        for bit in header:
            run = run + 1 if bit == last else 1
            last = bit
            assert run <= 5


class TestNominalLength:
    def test_minimal_base_frame(self):
        # SOF(1) ID(11) RTR IDE r0 DLC(4) CRC(15) = 34 unstuffed header
        # bits + 10 tail bits, plus the stuffing the zero control/DLC
        # run requires (one stuff bit for id 0x555 with dlc 0).
        frame = data_frame(0x555, b"")
        assert len(encode_frame(frame)) == 34 + 10 + 1
        assert len(encode_frame(frame)) == len(stuff(header_bits(frame))) + 10

    def test_full_payload_near_paper_length(self):
        # The paper's tau_data = 110 bits corresponds to an 8-byte frame
        # including typical stuffing; the unstuffed length is 108.
        frame = data_frame(0x555, bytes(range(1, 9)))
        assert 108 <= len(encode_frame(frame)) <= 125

    def test_length_grows_with_payload(self):
        lengths = [
            len(encode_frame(data_frame(0x555, bytes([0x55] * size))))
            for size in range(9)
        ]
        assert lengths == sorted(lengths)
        assert lengths[8] - lengths[0] == 64  # 0x55 bytes never stuff
