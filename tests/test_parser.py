"""Unit and property tests for the incremental frame parser."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.can.bits import DOMINANT, RECESSIVE
from repro.can.encoding import encode_frame
from repro.can.fields import ACK_SLOT, CRC, CRC_DELIM, EOF
from repro.can.frame import data_frame, remote_frame
from repro.can.parser import FrameParser
from repro.errors import DecodingError

payloads = st.binary(max_size=8)
standard_ids = st.integers(0, 0x7FF)
extended_ids = st.integers(0, 0x1FFFFFFF)


def feed_whole_frame(parser, wire, ack=True):
    """Feed a wire frame as seen on the bus (ACK slot pulled dominant)."""
    steps = []
    for position, level in enumerate(wire.levels):
        if ack and position == wire.ack_slot_position:
            level = DOMINANT
        steps.append(parser.feed(level))
    return steps


class TestHappyPath:
    def test_reconstructs_base_frame(self):
        frame = data_frame(0x2B3, b"\x12\x34\x56")
        parser = FrameParser()
        feed_whole_frame(parser, encode_frame(frame))
        assert parser.complete
        assert parser.crc_ok
        received = parser.frame()
        assert received.can_id == frame.can_id
        assert received.data == frame.data
        assert received.dlc == frame.dlc
        assert not received.remote

    def test_reconstructs_extended_frame(self):
        frame = data_frame(0x1ABCDEF0, b"\xff", extended=True)
        parser = FrameParser()
        feed_whole_frame(parser, encode_frame(frame))
        assert parser.crc_ok
        assert parser.frame().can_id == frame.can_id

    def test_reconstructs_remote_frame(self):
        frame = remote_frame(0x300, dlc=5)
        parser = FrameParser()
        feed_whole_frame(parser, encode_frame(frame))
        received = parser.frame()
        assert received.remote
        assert received.dlc == 5
        assert received.data == b""

    def test_header_complete_before_eof(self):
        frame = data_frame(0x123, b"\x01")
        wire = encode_frame(frame)
        parser = FrameParser()
        for position, (field, _) in enumerate(wire.positions):
            level = DOMINANT if position == wire.ack_slot_position else wire.levels[position]
            parser.feed(level)
            if field == CRC_DELIM:
                assert parser.header_complete
                break

    @given(identifier=standard_ids, payload=payloads)
    @settings(max_examples=60)
    def test_roundtrip_base(self, identifier, payload):
        frame = data_frame(identifier, payload)
        parser = FrameParser()
        feed_whole_frame(parser, encode_frame(frame))
        received = parser.frame()
        assert (received.can_id, received.data) == (frame.can_id, frame.data)
        assert parser.crc_ok

    @given(identifier=extended_ids, payload=payloads)
    @settings(max_examples=60)
    def test_roundtrip_extended(self, identifier, payload):
        frame = data_frame(identifier, payload, extended=True)
        parser = FrameParser()
        feed_whole_frame(parser, encode_frame(frame))
        assert parser.frame().can_id == frame.can_id
        assert parser.crc_ok


class TestTrailingStuffBit:
    def _frame_with_trailing_stuff(self):
        """Find a payload whose CRC ends in a five-bit run."""
        from helpers import header_bits

        for value in range(0, 4096):
            payload = bytes([value & 0xFF, (value >> 8) & 0xFF])
            frame = data_frame(0x123, payload)
            bits = header_bits(frame)
            if len(set(bits[-5:])) == 1:
                return frame
        raise AssertionError("no trailing-stuff payload found")

    def test_trailing_stuff_bit_is_consumed_as_crc(self):
        frame = self._frame_with_trailing_stuff()
        wire = encode_frame(frame)
        parser = FrameParser()
        steps = feed_whole_frame(parser, wire)
        stuff_steps = [step for step in steps if step.is_stuff]
        assert any(step.field == CRC for step in stuff_steps)
        assert parser.crc_ok
        assert parser.frame().data == frame.data


class TestViolations:
    def test_stuff_violation_reported(self):
        parser = FrameParser()
        # SOF + 5 more dominant bits = six in a row: the sixth feed
        # (where the complementary stuff bit was expected) violates.
        steps = [parser.feed(DOMINANT) for _ in range(6)]
        assert steps[-1].stuff_violation
        assert not any(step.stuff_violation for step in steps[:-1])

    def test_parser_unusable_after_violation(self):
        parser = FrameParser()
        for _ in range(6):
            parser.feed(DOMINANT)
        with pytest.raises(DecodingError):
            parser.feed(DOMINANT)

    def test_form_violation_on_crc_delim(self):
        frame = data_frame(0x555, b"")
        wire = encode_frame(frame)
        parser = FrameParser()
        violation = None
        for level, (field, _) in zip(wire.levels, wire.positions):
            if field == CRC_DELIM:
                level = DOMINANT
            step = parser.feed(level)
            if step.form_violation:
                violation = step
                break
        assert violation is not None
        assert violation.field == CRC_DELIM

    def test_crc_mismatch_detected(self):
        frame = data_frame(0x555, b"\xaa")
        wire = encode_frame(frame)
        parser = FrameParser()
        flipped = False
        for level, (field, _), is_stuff in zip(wire.levels, wire.positions, wire.is_stuff):
            if field == "DATA" and not is_stuff and not flipped:
                level = level.flipped()
                flipped = True
            parser.feed(level)
            if parser.header_complete:
                break
        assert parser.crc_ok is False

    def test_feeding_past_end_raises(self):
        frame = data_frame(0x555, b"")
        parser = FrameParser()
        feed_whole_frame(parser, encode_frame(frame))
        with pytest.raises(DecodingError):
            parser.feed(RECESSIVE)

    def test_frame_before_header_raises(self):
        parser = FrameParser()
        parser.feed(DOMINANT)
        with pytest.raises(DecodingError):
            parser.frame()


class TestUpcoming:
    def test_predicts_ack_slot(self):
        frame = data_frame(0x555, b"\x0f")
        wire = encode_frame(frame)
        parser = FrameParser()
        predicted_ack_at = None
        for position, level in enumerate(wire.levels):
            if parser.upcoming[0] == ACK_SLOT:
                predicted_ack_at = position
            level = DOMINANT if position == wire.ack_slot_position else level
            parser.feed(level)
        assert predicted_ack_at == wire.ack_slot_position

    def test_tracks_eof_indices(self):
        frame = data_frame(0x555, b"")
        wire = encode_frame(frame)
        parser = FrameParser()
        seen_eof_indices = []
        for position, level in enumerate(wire.levels):
            if parser.upcoming[0] == EOF:
                seen_eof_indices.append(parser.upcoming[1])
            level = DOMINANT if position == wire.ack_slot_position else level
            parser.feed(level)
        assert seen_eof_indices == list(range(7))

    def test_custom_eof_length(self):
        parser = FrameParser(eof_length=10)
        assert parser.eof_length == 10

    def test_eof_too_short_rejected(self):
        with pytest.raises(DecodingError):
            FrameParser(eof_length=1)
