"""Tests for smaller features not covered elsewhere."""

import dataclasses

import pytest

from repro.can.bits import DOMINANT
from repro.can.controller import CanController
from repro.can.controller_config import ControllerConfig
from repro.can.encoding import encode_frame
from repro.can.fields import DATA
from repro.can.frame import data_frame
from repro.can.geometry import frame_end
from repro.analysis.rates import hours_between_incidents, incidents_per_hour
from repro.core.minorcan import MinorCanController
from repro.errors import AnalysisError
from repro.faults.injector import ScriptedInjector, Trigger, ViewFault
from repro.simulation.engine import SimulationEngine
from repro.workload.profiles import PAPER_PROFILE

from helpers import run_one_frame


class TestMaxRetransmissions:
    def test_unlimited_by_default(self):
        """Retransmission is unbounded: four failed attempts, then the
        fifth delivers everywhere."""
        nodes = [
            CanController("tx", ControllerConfig()),
            CanController("x"),
            CanController("y"),
        ]
        injector = ScriptedInjector(
            view_faults=[
                ViewFault("x", Trigger(field=DATA, index=1, occurrence=n))
                for n in range(1, 5)
            ]
        )
        outcome = run_one_frame(nodes, data_frame(0x123, b"\x55"), injector)
        assert outcome.all_delivered_once
        assert outcome.attempts == 5

    def test_only_disconnection_ends_retransmission(self):
        """No retry count drops a frame: with the warning-limit switch-off
        the transmitter keeps its frame queued until its TEC reaches 96,
        twelve failed attempts at +8 each, and then leaves the bus."""
        nodes = [
            CanController("tx", ControllerConfig(disconnect_on_warning=True)),
            CanController("x"),
            CanController("y"),
        ]
        injector = ScriptedInjector(
            view_faults=[
                ViewFault("x", Trigger(field=DATA, index=1, occurrence=n))
                for n in range(1, 31)
            ]
        )
        outcome = run_one_frame(nodes, data_frame(0x123, b"\x55"), injector)
        transmitter = outcome.engine.node("tx")
        assert outcome.attempts == 12
        assert transmitter.disconnected
        assert transmitter.counters.tec == 96
        assert transmitter.pending_transmissions == 1
        assert outcome.deliveries == {"tx": 0, "x": 0, "y": 0}


class TestControllerConfig:
    def test_fields_are_the_caller_options(self):
        """The frame-end geometry is not a setting: only the options a
        caller chooses per node remain."""
        assert [f.name for f in dataclasses.fields(ControllerConfig)] == [
            "disconnect_on_warning",
            "bus_off_recovery",
            "fast_path",
        ]

    def test_standard_geometries_are_class_attributes(self):
        """CAN and MinorCAN have one frame end each, shared by every
        instance whatever its config."""
        assert CanController.geometry == frame_end("can")
        assert MinorCanController.geometry == frame_end("minorcan")
        node = CanController("n", ControllerConfig(fast_path=False))
        assert node.geometry is CanController.geometry
        assert MinorCanController("n").geometry is MinorCanController.geometry


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
