"""Golden-trace regression tests.

These pin the exact on-the-wire behaviour of canonical situations so
that any future change to the controller timing is surfaced as a
diff against the paper-aligned reference patterns.
"""

import pytest

from repro.can.controller import CanController
from repro.can.encoding import encode_frame
from repro.can.fields import EOF
from repro.can.frame import data_frame
from repro.faults.injector import ScriptedInjector, Trigger, ViewFault
from repro.can.bits import DOMINANT

from helpers import run_one_frame

FRAME = data_frame(0x123, b"\x55", message_id="m")


class TestCleanFrameOnBus:
    def test_bus_carries_exactly_the_encoded_frame(self):
        """With one transmitter and silent receivers, the bus equals the
        encoded frame with the ACK slot pulled dominant."""
        nodes = [CanController(n) for n in ("tx", "x", "y")]
        outcome = run_one_frame(nodes, FRAME)
        wire = encode_frame(FRAME)
        expected = [int(level) for level in wire.levels]
        expected[wire.ack_slot_position] = 0  # receivers acknowledge
        observed = [int(level) for level in outcome.engine.bus.history[: len(expected)]]
        assert observed == expected
        assert outcome.engine.bus.as_string(0, wire.length) == wire.symbols

    def test_frame_followed_by_recessive_idle(self):
        nodes = [CanController(n) for n in ("tx", "x")]
        outcome = run_one_frame(nodes, FRAME)
        wire_length = encode_frame(FRAME).length
        tail = outcome.engine.bus.history[wire_length:]
        assert all(int(level) == 1 for level in tail)


class TestFig1bWirePattern:
    """The exact error-frame choreography of Fig. 1b."""

    @pytest.fixture(scope="class")
    def outcome(self):
        nodes = [CanController(n) for n in ("tx", "x", "y")]
        injector = ScriptedInjector(
            view_faults=[ViewFault("x", Trigger(field=EOF, index=5), force=DOMINANT)]
        )
        return run_one_frame(nodes, FRAME, injector)

    def test_bus_pattern_after_the_disturbance(self, outcome):
        """From the (clean) last-but-one EOF bit: x's six-bit flag one
        bit later, overlapped by tx/y flags one further bit, then the
        recessive delimiter — 'r d d d d d d d r r r r r r r' on the
        wire."""
        wire = encode_frame(FRAME)
        eof_bit6_time = wire.eof_start + 5
        window = outcome.engine.bus.as_string(eof_bit6_time, eof_bit6_time + 15)
        assert window == "rdddddddrrrrrrr"

    def test_retransmission_starts_after_intermission(self, outcome):
        wire = encode_frame(FRAME)
        # Disturbed bit, then the 7-bit flag superposition (x's flag
        # plus the one-bit-later reaction flags), the 8-bit delimiter
        # (first recessive included) and the 3-bit intermission.
        retransmit_sof = wire.eof_start + 5 + 1 + 7 + 8 + 3
        assert outcome.engine.bus.history[retransmit_sof].value == 0
        times = [
            event.time
            for event in outcome.trace.events
            if event.kind == "tx_start" and event.data.get("attempt") == 2
        ]
        assert times == [retransmit_sof]


def _corpus_path(entry):
    import os

    return os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "corpus",
        entry + ".jsonl",
    )


class TestMinorCanPrimaryWirePattern:
    """MinorCAN, Fig. 1a pattern: x's error flag is answered by the
    others' overload flags whose tail gives x its primary-error
    indication.

    The scenario now lives in the golden corpus
    (``corpus/overload-primary-minorcan.jsonl``); the wire-pattern
    assertion runs against the checked-in recording, and a replay pins
    the recording to the live controllers.
    """

    def test_lone_last_bit_error_produces_flag_then_overloads(self):
        from repro.tracestore import load_trace

        recorded = load_trace(_corpus_path("overload-primary-minorcan"))
        wire = encode_frame(FRAME)
        flag_start = wire.eof_start + 7  # bit after the last EOF bit
        # x flags 6 bits; tx/y react one bit later; superposition is 7
        # dominant bits; then the 8-bit recessive delimiter.
        assert recorded.bus[flag_start : flag_start + 15] == "dddddddrrrrrrrr"

    def test_recording_replays_bit_identically(self):
        from repro.tracestore import replay_trace

        assert replay_trace(_corpus_path("overload-primary-minorcan")).bit_identical


class TestMajorCanExtendedFlagWirePattern:
    """MajorCAN_5 extended error flag, pinned by the golden corpus
    entry ``corpus/eof-extended-flag-majorcan.jsonl``."""

    def test_second_subfield_error_extends_to_3m_plus_5(self):
        from repro.tracestore import load_trace

        m = 5
        recorded = load_trace(_corpus_path("eof-extended-flag-majorcan"))
        wire = encode_frame(FRAME, eof_length=2 * m)
        eof_start = wire.eof_start
        # x detects at EOF bit m+1, extends through bit 3m+5; the other
        # nodes see x's flag at bit m+2 and extend as well.  On the bus:
        # recessive EOF bits 1..m+1 (x's error was only in its view),
        # then dominant through 3m+5, then the 2m+1-bit delimiter.
        pattern = recorded.bus[eof_start : eof_start + 3 * m + 5 + 2 * m + 1]
        expected = "r" * (m + 1) + "d" * (2 * m + 4) + "r" * (2 * m + 1)
        assert pattern == expected

    def test_recording_replays_bit_identically(self):
        from repro.tracestore import replay_trace

        assert replay_trace(_corpus_path("eof-extended-flag-majorcan")).bit_identical
