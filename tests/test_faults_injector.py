"""Unit tests for the fault injection framework."""

import numpy as np
import pytest

from repro.can.bits import DOMINANT, RECESSIVE
from repro.can.controller import CanController
from repro.can.fields import DATA, EOF
from repro.can.frame import data_frame
from repro.errors import ConfigurationError, SimulationError
from repro.faults.bit_errors import (
    BurstViewErrorInjector,
    ErrorBudgetInjector,
    RandomViewErrorInjector,
)
from repro.faults.injector import (
    CompositeInjector,
    CrashFault,
    DriveFault,
    ScriptedInjector,
    Trigger,
    ViewFault,
)
from repro.simulation.engine import FaultInjector, SimulationEngine

from helpers import run_one_frame


class TestTrigger:
    def test_requires_some_criterion(self):
        with pytest.raises(ConfigurationError):
            Trigger()

    def test_occurrence_one_based(self):
        with pytest.raises(ConfigurationError):
            Trigger(field=EOF, occurrence=0)

    def test_time_trigger(self):
        node = CanController("n")
        trigger = Trigger(time=5, field=None, state="idle")
        node.now = 0
        assert not trigger.fires(node, 4)
        assert trigger.fires(node, 5)

    def test_position_trigger_matches_field_and_index(self):
        node = CanController("n")
        node.position = (EOF, 3)
        assert Trigger(field=EOF, index=3).fires(node, 0)
        assert not Trigger(field=EOF, index=4).fires(node, 1)
        assert not Trigger(field=DATA, index=3).fires(node, 2)

    def test_occurrence_selects_nth_match(self):
        node = CanController("n")
        node.position = (EOF, 0)
        trigger = Trigger(field=EOF, occurrence=2)
        assert not trigger.fires(node, 0)
        assert trigger.fires(node, 1)
        assert not trigger.fires(node, 2)  # one-shot by default

    def test_repeat_fires_from_occurrence_onwards(self):
        node = CanController("n")
        node.position = (EOF, 0)
        trigger = Trigger(field=EOF, occurrence=2, repeat=True)
        assert not trigger.fires(node, 0)
        assert trigger.fires(node, 1)
        assert trigger.fires(node, 2)

    def test_reset(self):
        node = CanController("n")
        node.position = (EOF, 0)
        trigger = Trigger(field=EOF)
        assert trigger.fires(node, 0)
        trigger.reset()
        assert trigger.fires(node, 1)


class TestFaultApplication:
    def test_view_fault_force(self):
        fault = ViewFault("n", Trigger(field=EOF), force=DOMINANT)
        assert fault.apply(RECESSIVE) is DOMINANT

    def test_view_fault_flip(self):
        fault = ViewFault("n", Trigger(field=EOF), force=None)
        assert fault.apply(RECESSIVE) is DOMINANT
        assert fault.apply(DOMINANT) is RECESSIVE

    def test_scripted_injector_records_firings(self):
        nodes = [CanController(n) for n in ("tx", "x", "y")]
        fault = ViewFault("x", Trigger(field=EOF, index=5), force=DOMINANT)
        injector = ScriptedInjector(view_faults=[fault])
        run_one_frame(nodes, data_frame(0x123, b"\x55"), injector)
        assert len(fault.fired_at) == 1
        assert injector.total_fired == 1
        assert injector.all_fired()

    def test_drive_fault_perturbs_physical_output(self):
        """Masking the transmitter's drive during DATA corrupts the bus
        for everyone: all receivers reject, the frame is retransmitted."""
        nodes = [CanController(n) for n in ("tx", "x", "y")]
        injector = ScriptedInjector(
            drive_faults=[DriveFault("tx", Trigger(field=DATA, index=0), force=RECESSIVE)]
        )
        outcome = run_one_frame(nodes, data_frame(0x123, b"\x00"), injector)
        assert outcome.attempts == 2
        assert outcome.all_delivered_once

    def test_crash_fault(self):
        nodes = [CanController(n) for n in ("tx", "x")]
        injector = ScriptedInjector(
            crash_faults=[CrashFault("tx", Trigger(time=10))]
        )
        engine = SimulationEngine(nodes, injector=injector)
        engine.run(20)
        assert nodes[0].crashed
        assert not nodes[1].crashed


class TestCompositeInjector:
    def test_chains_view_perturbations(self):
        nodes = [CanController(n) for n in ("tx", "x", "y")]
        first = ScriptedInjector(
            view_faults=[ViewFault("x", Trigger(field=EOF, index=5), force=DOMINANT)]
        )
        second = ScriptedInjector(
            view_faults=[ViewFault("x", Trigger(field=EOF, index=5), force=RECESSIVE)]
        )
        composite = CompositeInjector([first, second])
        outcome = run_one_frame(nodes, data_frame(0x123, b"\x55"), composite)
        # The second injector undoes the first: clean run.
        assert outcome.attempts == 1
        assert outcome.all_delivered_once


class TestRandomInjector:
    def test_validates_probability(self):
        with pytest.raises(ConfigurationError):
            RandomViewErrorInjector(1.5)

    def test_counts_injections(self):
        nodes = [CanController(n) for n in ("tx", "x")]
        injector = RandomViewErrorInjector(0.02, seed=1)
        engine = SimulationEngine(nodes, injector=injector)
        nodes[0].submit(data_frame(0x123, b"\x55"))
        engine.run(300)
        assert injector.injected == len(injector.injections)
        assert injector.injected > 0

    def test_only_nodes_restriction(self):
        nodes = [CanController(n) for n in ("tx", "x")]
        injector = RandomViewErrorInjector(0.5, seed=1, only_nodes=["x"])
        engine = SimulationEngine(nodes, injector=injector)
        engine.run(100)
        assert set(injector.injected_by_node) <= {"x"}


class ScalarViewNoise(FaultInjector):
    """One scalar draw per eligible node per tick: the reference order
    that :class:`RandomViewErrorInjector`'s block draws reproduce."""

    def __init__(self, ber_star, seed, only_nodes=None):
        self.ber_star = ber_star
        self.rng = np.random.default_rng(seed)
        self.only_nodes = None if only_nodes is None else set(only_nodes)
        self.injections = []

    def perturb_view(self, node, time, bus_level):
        if self.only_nodes is not None and node.name not in self.only_nodes:
            return bus_level
        if self.rng.random() >= self.ber_star:
            return bus_level
        self.injections.append((time, node.name, node.position))
        return bus_level.flipped()


def contended_nodes():
    nodes = [CanController("n%d" % i) for i in range(4)]
    for index, node in enumerate(nodes):
        for seq in range(3):
            node.submit(data_frame(0x100 + index, bytes([index, seq])))
    return nodes


def run_noise(injector, record_bits=False, segments=((1500, None),)):
    """Run ``segments`` of ``(bits, ber_star to set first)``."""
    nodes = contended_nodes()
    engine = SimulationEngine(nodes, injector=injector, record_bits=record_bits)
    for bits, ber_star in segments:
        if ber_star is not None:
            injector.ber_star = ber_star
        engine.run(bits)
    return engine, [(d.node, d.time, d.frame.data) for n in nodes for d in n.deliveries]


class TestSparseViewNoise:
    @pytest.mark.parametrize("only_nodes", [None, ["n1", "n2"]])
    @pytest.mark.parametrize("record_bits", [False, True])
    def test_matches_scalar_draw_order(self, only_nodes, record_bits):
        sparse = RandomViewErrorInjector(0.005, seed=4, only_nodes=only_nodes)
        scalar = ScalarViewNoise(0.005, seed=4, only_nodes=only_nodes)
        engine, deliveries = run_noise(sparse, record_bits)
        reference, reference_deliveries = run_noise(scalar, record_bits)
        assert sparse.injections == scalar.injections
        assert sparse.injected == len(scalar.injections) > 0
        assert deliveries == reference_deliveries
        assert engine.bus.history == reference.bus.history

    def test_ber_change_mid_run_matches_scalar(self):
        segments = ((400, None), (700, 0.0), (1100, 0.02), (50, 0.004))
        sparse = RandomViewErrorInjector(0.004, seed=8)
        scalar = ScalarViewNoise(0.004, seed=8)
        _, deliveries = run_noise(sparse, segments=segments)
        _, reference_deliveries = run_noise(scalar, segments=segments)
        assert sparse.injections == scalar.injections
        assert deliveries == reference_deliveries

    @pytest.mark.parametrize("ber_star", [0.0, 0.003])
    def test_settled_stream_is_at_the_scalar_position(self, ber_star):
        """After ``settle`` the generator sits at ``engine.time * width``
        draws, although the last block ran ahead of the engine."""
        rng = np.random.default_rng(12)
        injector = RandomViewErrorInjector(ber_star, seed=rng, only_nodes=["n0", "n3"])
        engine, _ = run_noise(injector, segments=((2500, None),))
        injector.settle(engine.time)
        fresh = np.random.default_rng(12)
        fresh.random(engine.time * 2)
        assert rng.bit_generator.state == fresh.bit_generator.state
        # The run continues from the settled stream, still in scalar order.
        engine.run(700)
        injector.settle(engine.time)
        fresh.random(700 * 2)
        assert rng.bit_generator.state == fresh.bit_generator.state

    def test_only_flip_ticks_consult_the_injector(self):
        calls = []

        class Counting(RandomViewErrorInjector):
            next_view_tick = RandomViewErrorInjector.next_view_tick

            def perturb_view(self, node, time, bus_level):
                calls.append(time)
                return super().perturb_view(node, time, bus_level)

        injector = Counting(0.002, seed=3)
        engine, _ = run_noise(injector)
        flip_ticks = {time for time, _, _ in injector.injections}
        assert flip_ticks and flip_ticks <= set(calls)
        assert len(set(calls)) < engine.time // 10

    def test_subclass_overriding_perturb_view_sees_every_tick(self):
        class Scaled(RandomViewErrorInjector):
            def perturb_view(self, node, time, bus_level):
                return super().perturb_view(node, time, bus_level)

        class Plain(FaultInjector):
            calls = 0

            def perturb_view(self, node, time, bus_level):
                Plain.calls += 1
                return bus_level

        scaled = Scaled(0.005, seed=4)
        run_noise(scaled)
        scalar = ScalarViewNoise(0.005, seed=4)
        run_noise(scalar)
        assert scaled.next_view_tick == 0
        assert scaled.injections == scalar.injections
        engine, _ = run_noise(Plain())
        assert Plain.calls == engine.time * 4

    def test_second_engine_clock_refused(self):
        """The realisation is indexed by engine tick, so an injector
        cannot continue on a second engine whose clock restarts."""
        injector = RandomViewErrorInjector(0.01, seed=2)
        run_noise(injector, segments=((1500, None),))
        with pytest.raises(SimulationError):
            run_noise(injector, segments=((10, None),))

    def test_unbound_injector_refuses(self):
        with pytest.raises(SimulationError):
            RandomViewErrorInjector(0.1).perturb_view(CanController("n"), 0, DOMINANT)


class TestBurstAndBudget:
    def test_burst_flips_exact_window(self):
        nodes = [CanController(n) for n in ("tx", "x")]
        injector = BurstViewErrorInjector("x", start_time=10, length=5)
        engine = SimulationEngine(nodes, injector=injector)
        engine.run(30)
        assert injector.injected == 5

    def test_burst_validates_length(self):
        with pytest.raises(ConfigurationError):
            BurstViewErrorInjector("x", 0, 0)

    def test_budget_applies_exact_flips(self):
        nodes = [CanController(n) for n in ("tx", "x")]
        injector = ErrorBudgetInjector([(3, "x"), (7, "x"), (9, "tx")])
        engine = SimulationEngine(nodes, injector=injector)
        engine.run(20)
        assert injector.applied == 3

    def test_budget_ignores_unscheduled(self):
        nodes = [CanController(n) for n in ("tx", "x")]
        injector = ErrorBudgetInjector([(500, "x")])
        engine = SimulationEngine(nodes, injector=injector)
        engine.run(20)
        assert injector.applied == 0


class TestScriptSerde:
    """Round-tripping injector scripts through plain dicts (trace store)."""

    def test_trigger_round_trip(self):
        trigger = Trigger(field=EOF, index=5, occurrence=2, repeat=True)
        rebuilt = Trigger.from_dict(trigger.to_dict())
        assert rebuilt.to_dict() == trigger.to_dict()

    def test_fired_trigger_serializes_fresh(self):
        node = CanController("n")
        node.position = (EOF, 0)
        trigger = Trigger(field=EOF)
        assert trigger.fires(node, 0)
        rebuilt = Trigger.from_dict(trigger.to_dict())
        assert rebuilt.fires(node, 1)  # runtime state was not serialized

    def test_view_fault_round_trip_preserves_force(self):
        fault = ViewFault("x", Trigger(field=EOF, index=5), force=DOMINANT)
        rebuilt = ViewFault.from_dict(fault.to_dict())
        assert rebuilt.node == "x"
        assert rebuilt.force is DOMINANT
        assert rebuilt.to_dict() == fault.to_dict()

    def test_flip_fault_round_trips_force_none(self):
        fault = DriveFault("x", Trigger(field=DATA, index=0), force=None)
        rebuilt = DriveFault.from_dict(fault.to_dict())
        assert rebuilt.force is None
        assert rebuilt.apply(RECESSIVE) is DOMINANT

    def test_crash_fault_round_trip(self):
        from repro.faults.injector import injector_from_dict

        injector = ScriptedInjector(crash_faults=[CrashFault("tx", Trigger(time=40))])
        rebuilt = injector_from_dict(injector.to_dict())
        assert rebuilt.to_dict() == injector.to_dict()

    def test_round_tripped_script_reproduces_the_run(self):
        from repro.faults.injector import injector_from_dict

        def script():
            return ScriptedInjector(
                view_faults=[
                    ViewFault("x", Trigger(field=EOF, index=5), force=DOMINANT)
                ]
            )

        frame = data_frame(0x123, b"\x55", message_id="m")
        original = run_one_frame(
            [CanController(n) for n in ("tx", "x", "y")], frame, script()
        )
        rebuilt = run_one_frame(
            [CanController(n) for n in ("tx", "x", "y")],
            frame,
            injector_from_dict(script().to_dict()),
        )
        assert original.engine.bus.history == rebuilt.engine.bus.history

    def test_unknown_kind_rejected(self):
        from repro.faults.injector import injector_from_dict

        with pytest.raises(ConfigurationError):
            injector_from_dict({"kind": "random"})
