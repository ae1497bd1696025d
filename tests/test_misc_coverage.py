"""Tests for smaller features not covered elsewhere."""

import pytest

from repro.can.bits import DOMINANT
from repro.can.controller import CanController
from repro.can.controller_config import ControllerConfig
from repro.can.encoding import encode_frame
from repro.can.events import EventKind
from repro.can.fields import DATA
from repro.can.frame import data_frame
from repro.analysis.rates import hours_between_incidents, incidents_per_hour
from repro.errors import AnalysisError, ConfigurationError
from repro.faults.injector import ScriptedInjector, Trigger, ViewFault
from repro.simulation.engine import SimulationEngine
from repro.workload.profiles import PAPER_PROFILE

from helpers import run_one_frame


class TestMaxRetransmissions:
    def _run_with_limit(self, limit, failures=5):
        config = ControllerConfig(max_retransmissions=limit)
        nodes = [CanController("tx", config), CanController("x"), CanController("y")]
        injector = ScriptedInjector(
            view_faults=[
                ViewFault("x", Trigger(field=DATA, index=1, occurrence=n))
                for n in range(1, failures + 1)
            ]
        )
        outcome = run_one_frame(nodes, data_frame(0x123, b"\x55"), injector)
        return outcome

    def test_frame_abandoned_after_limit(self):
        outcome = self._run_with_limit(limit=2)
        transmitter = outcome.engine.node("tx")
        abandoned = [
            e for e in transmitter.events if e.kind == EventKind.TX_ABANDONED
        ]
        assert abandoned
        assert transmitter.pending_transmissions == 0
        # Nobody ever delivered the abandoned frame.
        assert outcome.deliveries["x"] == 0

    def test_unlimited_by_default(self):
        outcome = self._run_with_limit(limit=None, failures=4)
        assert outcome.all_delivered_once
        assert outcome.attempts == 5

    def test_limit_validation(self):
        with pytest.raises(ConfigurationError):
            ControllerConfig(max_retransmissions=-1)


class TestConfigValidation:
    def test_eof_minimum(self):
        with pytest.raises(ConfigurationError):
            ControllerConfig(eof_length=1)

    def test_delimiter_minimum(self):
        with pytest.raises(ConfigurationError):
            ControllerConfig(delimiter_length=1)


class TestWireFrameHelpers:
    def test_levels_sequence(self):
        wire = encode_frame(data_frame(0x123, b"\x01"))
        levels = wire.levels
        assert len(levels) == len(wire) == wire.length
        assert levels[0].value == 0  # SOF is dominant


class TestRates:
    def test_hours_between_incidents_inverse(self):
        rate = incidents_per_hour(1e-9, PAPER_PROFILE)
        assert hours_between_incidents(1e-9, PAPER_PROFILE) == pytest.approx(1 / rate)

    def test_zero_probability_is_never(self):
        assert hours_between_incidents(0.0, PAPER_PROFILE) == float("inf")

    def test_probability_validated(self):
        with pytest.raises(AnalysisError):
            incidents_per_hour(1.5, PAPER_PROFILE)


class TestEngineInjectorDefault:
    def test_base_injector_is_identity(self):
        from repro.simulation.engine import FaultInjector

        injector = FaultInjector()
        node = CanController("n")
        assert injector.perturb_drive(node, 0, DOMINANT) is DOMINANT
        assert injector.perturb_view(node, 0, DOMINANT) is DOMINANT
        injector.on_bit_start(0, [node])  # no-op, must not raise


class TestReceivedFramesAlias:
    def test_received_frames_matches_deliveries(self):
        tx, rx = CanController("tx"), CanController("rx")
        engine = SimulationEngine([tx, rx])
        tx.submit(data_frame(0x1, b"\x09"))
        engine.run_until_idle(5000)
        assert rx.received_frames == [d.frame for d in rx.deliveries]
