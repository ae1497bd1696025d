"""Unit and scenario tests for the MajorCAN_m controller."""

import pytest

from repro.can.bits import DOMINANT, RECESSIVE
from repro.can.controller import CanController
from repro.can.events import EventKind
from repro.can.fields import DATA, EOF, SAMPLING
from repro.can.frame import data_frame
from repro.core.majorcan import (
    DEFAULT_M,
    MajorCanController,
    majorcan_config,
)
from repro.errors import ConfigurationError
from repro.faults.injector import ScriptedInjector, Trigger, ViewFault
from repro.faults.scenarios import fig4_behaviour, fig5, render_behaviour

from helpers import run_one_frame


def _network(m=5):
    return [MajorCanController(name, m=m) for name in ("tx", "x", "y")]


class TestConfiguration:
    def test_default_m_is_five(self):
        node = MajorCanController("n")
        assert node.m == DEFAULT_M == 5

    def test_eof_and_delimiter_lengths(self):
        node = MajorCanController("n", m=4)
        assert node.config.eof_length == 8
        assert node.config.delimiter_length == 9

    def test_m_below_three_rejected(self):
        """With m <= 2 the scenario leading to CAN2' can still happen."""
        with pytest.raises(ConfigurationError):
            majorcan_config(2)
        with pytest.raises(ConfigurationError):
            MajorCanController("n", m=2)

    def test_inconsistent_config_rejected(self):
        from repro.can.controller_config import ControllerConfig

        with pytest.raises(ConfigurationError):
            MajorCanController("n", m=5, config=ControllerConfig(eof_length=7))

    def test_geometry(self):
        node = MajorCanController("n", m=5)
        assert node.window_start == 12
        assert node.window_end == 20
        assert node.majority == 5

    def test_window_has_2m_minus_1_bits(self):
        for m in (3, 5, 9):
            node = MajorCanController("n%d" % m, m=m)
            assert node.window_end - node.window_start + 1 == 2 * m - 1


class TestErrorFreeOperation:
    def test_clean_transfer(self):
        outcome = run_one_frame(_network(), data_frame(0x123, b"\x55"))
        assert outcome.all_delivered_once
        assert outcome.attempts == 1

    def test_frame_is_2m_minus_7_longer(self):
        """Best-case overhead check at the whole-simulation level."""
        major = run_one_frame(_network(5), data_frame(0x123, b"\x55"))
        standard = run_one_frame(
            [CanController(n) for n in ("tx", "x", "y")],
            data_frame(0x123, b"\x55"),
        )
        # Compare delivery times of receivers (delivery happens at the
        # end of EOF for MajorCAN, last-but-one bit for standard CAN).
        major_time = major.engine.node("x").deliveries[0].time
        can_time = standard.engine.node("x").deliveries[0].time
        # Standard CAN delivers at the last-but-one of 7 EOF bits
        # (index 5); MajorCAN at the end of its 2m bits (index 9).
        assert major_time - can_time == (2 * 5 - 7) + 1

    def test_mid_frame_errors_handled_as_standard(self):
        nodes = _network()
        injector = ScriptedInjector(
            view_faults=[ViewFault("x", Trigger(field=DATA, index=3))]
        )
        outcome = run_one_frame(nodes, data_frame(0x123, b"\x55"), injector)
        assert outcome.all_delivered_once
        assert outcome.attempts == 2


class TestFirstSubfield:
    @pytest.mark.parametrize("index", [0, 1, 2, 3])
    def test_lone_error_votes_reject_then_retransmission(self, index):
        """A single first-subfield disturbance (with everyone else
        detecting the flag still inside the first sub-field) makes all
        nodes sample an empty window and reject consistently."""
        nodes = _network()
        injector = ScriptedInjector(
            view_faults=[ViewFault("x", Trigger(field=EOF, index=index), force=DOMINANT)]
        )
        outcome = run_one_frame(nodes, data_frame(0x123, b"\x55"), injector)
        assert outcome.all_delivered_once
        assert outcome.attempts == 2

    def test_error_at_bit_m_accepted_via_neighbours(self):
        """Boundary case from the paper: error detected at the m-th bit
        means everyone else sees the flag in the second sub-field, so
        they accept and notify with extended flags; the sampler agrees."""
        nodes = _network()
        injector = ScriptedInjector(
            view_faults=[ViewFault("x", Trigger(field=EOF, index=4), force=DOMINANT)]
        )
        outcome = run_one_frame(nodes, data_frame(0x123, b"\x55"), injector)
        assert outcome.all_delivered_once
        assert outcome.attempts == 1
        x = outcome.engine.node("x")
        verdicts = [e for e in x.events if e.kind == EventKind.SAMPLING_VERDICT]
        assert verdicts and verdicts[0].data["accept"]

    def test_sampling_window_size(self):
        nodes = _network()
        injector = ScriptedInjector(
            view_faults=[ViewFault("x", Trigger(field=EOF, index=1), force=DOMINANT)]
        )
        outcome = run_one_frame(nodes, data_frame(0x123, b"\x55"), injector)
        x = outcome.engine.node("x")
        verdict = [e for e in x.events if e.kind == EventKind.SAMPLING_VERDICT][0]
        assert verdict.data["samples"] == 2 * 5 - 1


class TestSecondSubfield:
    @pytest.mark.parametrize("index", [5, 6, 7, 8, 9])
    def test_error_accepts_with_extended_flag(self, index):
        nodes = _network()
        injector = ScriptedInjector(
            view_faults=[ViewFault("x", Trigger(field=EOF, index=index), force=DOMINANT)]
        )
        outcome = run_one_frame(nodes, data_frame(0x123, b"\x55"), injector)
        assert outcome.all_delivered_once
        assert outcome.attempts == 1
        x = outcome.engine.node("x")
        assert any(e.kind == EventKind.EXTENDED_FLAG_START for e in x.events)


class TestCrcErrorClass:
    def test_crc_error_never_accepts(self):
        """A node whose flag starts at the first EOF bit must reject
        without sampling; the frame is consistently retransmitted."""
        nodes = _network()
        injector = ScriptedInjector(
            view_faults=[ViewFault("x", Trigger(field=DATA, index=3))]
        )
        outcome = run_one_frame(nodes, data_frame(0x123, b"\x55"), injector)
        assert outcome.all_delivered_once
        assert outcome.attempts == 2
        x = outcome.engine.node("x")
        assert not any(e.kind == EventKind.SAMPLING_VERDICT for e in x.events)


class TestSamplingRobustness:
    def test_majority_survives_m_minus_1_masked_samples(self):
        """Corrupt m-1 samples of a voting node: still accepts."""
        m = 5
        nodes = _network(m)
        faults = [ViewFault("x", Trigger(field=EOF, index=m - 1), force=DOMINANT)]
        window_start = m + 7
        faults += [
            ViewFault("x", Trigger(field=SAMPLING, index=window_start + k), force=RECESSIVE)
            for k in range(m - 1)
        ]
        outcome = run_one_frame(nodes, data_frame(0x123, b"\x55"), ScriptedInjector(view_faults=faults))
        assert outcome.all_delivered_once
        assert outcome.attempts == 1

    def test_phantom_dominant_samples_do_not_accept_alone(self):
        """m-1 phantom dominant samples are below the majority: the
        lone sampler still rejects (consistently with everyone)."""
        m = 5
        nodes = _network(m)
        faults = [ViewFault("x", Trigger(field=EOF, index=0), force=DOMINANT)]
        window_start = m + 7
        faults += [
            ViewFault("x", Trigger(field=SAMPLING, index=window_start + k), force=DOMINANT)
            for k in range(m - 1)
        ]
        outcome = run_one_frame(nodes, data_frame(0x123, b"\x55"), ScriptedInjector(view_faults=faults))
        assert outcome.all_delivered_once
        assert outcome.attempts == 2


class TestFig4Table:
    def test_row_structure(self):
        rows = fig4_behaviour(5)
        assert len(rows) == 11  # CRC + 10 EOF bits

    def test_crc_row(self):
        row = fig4_behaviour(5)[0]
        assert row.flag == "6-bit error flag"
        assert not row.sampling
        assert row.verdict == "rejected"

    def test_first_subfield_rows_sample(self):
        rows = fig4_behaviour(5)
        for row in rows[1:6]:
            assert row.flag == "6-bit error flag"
            assert row.sampling

    def test_second_subfield_rows_extend(self):
        rows = fig4_behaviour(5)
        for row in rows[6:]:
            assert row.flag == "extended error flag"
            assert not row.sampling
            assert row.verdict == "accepted"

    def test_boundary_bit_m_accepts_in_three_node_probe(self):
        """EOF bit m: the probe's neighbours extend, so it accepts."""
        rows = fig4_behaviour(5)
        assert rows[5].verdict == "accepted"

    def test_render_mentions_sampling(self):
        assert "sampling" in render_behaviour(fig4_behaviour(3))[1]

    @pytest.mark.parametrize("m", [3, 4, 6])
    def test_other_m_values(self, m):
        rows = fig4_behaviour(m)
        assert len(rows) == 2 * m + 1
        for row in rows[1 : m + 1]:
            assert row.flag == "6-bit error flag"
            assert row.sampling
        for row in rows[m + 1 :]:
            assert row.flag == "extended error flag"
            assert row.verdict == "accepted"


class TestFig5:
    def test_five_errors_consistent(self):
        outcome = fig5()
        assert outcome.all_delivered_once
        assert outcome.errors_injected == 5
        assert outcome.attempts == 1

    def test_transmitter_used_extended_flag(self):
        outcome = fig5()
        tx = outcome.engine.node("tx")
        assert any(e.kind == EventKind.EXTENDED_FLAG_START for e in tx.events)

    def test_receivers_sampled_and_accepted(self):
        outcome = fig5()
        for name in ("x", "y"):
            node = outcome.engine.node(name)
            verdicts = [e for e in node.events if e.kind == EventKind.SAMPLING_VERDICT]
            assert verdicts and verdicts[0].data["accept"]
