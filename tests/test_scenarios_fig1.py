"""Reproduction tests for the Fig. 1 scenarios (standard CAN).

These tests check the exact outcomes the paper describes: consistency
via the last-bit rule (1a), double reception (1b), and inconsistent
message omission under a transmitter crash (1c).
"""


from repro.can.events import EventKind
from repro.faults.scenarios import fig1a, fig1b, fig1c


class TestFig1a:
    def test_consistent_delivery(self):
        outcome = fig1a("can")
        assert outcome.consistent
        assert outcome.all_delivered_once

    def test_no_retransmission(self):
        assert fig1a("can").attempts == 1

    def test_x_accepts_via_overload(self):
        outcome = fig1a("can")
        x = outcome.engine.node("x")
        assert any(e.kind == EventKind.OVERLOAD_FLAG_START for e in x.events)
        assert not any(e.kind == EventKind.ERROR_DETECTED for e in x.events)

    def test_multiple_x_receivers(self):
        outcome = fig1a("can", x_count=3, y_count=2)
        assert outcome.all_delivered_once


class TestFig1b:
    def test_double_reception_at_y(self):
        outcome = fig1b("can")
        assert outcome.deliveries == {"tx": 1, "x": 1, "y": 2}

    def test_violates_at_most_once(self):
        outcome = fig1b("can")
        assert outcome.double_reception
        assert not outcome.consistent

    def test_transmitter_retransmits(self):
        assert fig1b("can").attempts == 2

    def test_x_rejects_first_instance(self):
        outcome = fig1b("can")
        x = outcome.engine.node("x")
        rejected = [e for e in x.events if e.kind == EventKind.FRAME_REJECTED]
        assert len(rejected) == 1

    def test_every_y_receives_twice(self):
        outcome = fig1b("can", y_count=3)
        for name in ("y1", "y2", "y3"):
            assert outcome.deliveries[name] == 2

    def test_exactly_one_error_injected(self):
        assert fig1b("can").errors_injected == 1


class TestFig1c:
    def test_inconsistent_message_omission(self):
        outcome = fig1c("can")
        assert outcome.inconsistent_omission
        assert outcome.deliveries["x"] == 0
        assert outcome.deliveries["y"] == 1

    def test_transmitter_crashed(self):
        outcome = fig1c("can")
        assert outcome.crashed == ["tx"]

    def test_no_retransmission_happened(self):
        assert fig1c("can").attempts == 1

    def test_x_never_delivers(self):
        outcome = fig1c("can", x_count=2)
        assert outcome.deliveries["x1"] == 0
        assert outcome.deliveries["x2"] == 0

    def test_agreement_violated_among_correct_nodes(self):
        """x and y are both correct (only tx crashed), yet only y
        delivered: AB2 is violated."""
        outcome = fig1c("can")
        assert set(outcome.live_nodes) == {"x", "y"}
        assert not outcome.consistent
