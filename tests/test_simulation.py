"""Unit tests for the simulation engine, bus and trace."""

import pytest

from repro.can.bits import DOMINANT, RECESSIVE
from repro.can.controller import CanController
from repro.can.fields import EOF, SOF
from repro.can.frame import data_frame
from repro.errors import SimulationError
from repro.faults.scenarios import make_controller
from repro.simulation.bus import Bus
from repro.simulation.engine import SimulationEngine
from repro.simulation.rng import make_rng, spawn


class TestBus:
    def test_resolve_wired_and(self):
        bus = Bus()
        assert bus.resolve({"a": RECESSIVE, "b": DOMINANT}) is DOMINANT
        assert bus.resolve({"a": RECESSIVE, "b": RECESSIVE}) is RECESSIVE

    def test_history_and_time(self):
        bus = Bus()
        bus.resolve({"a": DOMINANT})
        bus.resolve({"a": RECESSIVE})
        assert bus.time == 2
        assert bus.as_string() == "dr"

    def test_idle_tail(self):
        bus = Bus()
        for level in (DOMINANT, RECESSIVE, RECESSIVE):
            bus.resolve({"a": level})
        assert bus.idle_tail() == 2


class TestEngine:
    def test_attach_after_construction(self):
        engine = SimulationEngine()
        engine.attach(CanController("a"))
        with pytest.raises(SimulationError):
            engine.attach(CanController("a"))

    def test_node_lookup(self):
        node = CanController("a")
        engine = SimulationEngine([node])
        assert engine.node("a") is node
        with pytest.raises(SimulationError):
            engine.node("missing")

    def test_time_advances(self):
        engine = SimulationEngine([CanController("a")])
        engine.run(10)
        assert engine.time == 10

    def test_tick_hooks_called_every_bit(self):
        engine = SimulationEngine([CanController("a")])
        ticks = []
        engine.add_tick_hook(ticks.append)
        engine.run(5)
        assert ticks == [0, 1, 2, 3, 4]

    def test_run_until_idle_returns_elapsed(self):
        tx, rx = CanController("tx"), CanController("rx")
        engine = SimulationEngine([tx, rx])
        tx.submit(data_frame(0x100, b"\x01"))
        elapsed = engine.run_until_idle(5000)
        assert elapsed == engine.time
        assert elapsed > 40

    @pytest.mark.parametrize("protocol", ["can", "majorcan"])
    def test_saturated_bus_keeps_delivering(self, protocol):
        """Eight nodes with 50 frames each contend for 4000 bit times;
        arbitration must keep the bus busy with deliveries."""
        nodes = [make_controller(protocol, "n%d" % i) for i in range(8)]
        engine = SimulationEngine(nodes, record_bits=False)
        for index, node in enumerate(nodes):
            for seq in range(50):
                node.submit(data_frame(0x100 + index, bytes([seq])))
        engine.run(4000)
        assert sum(len(node.deliveries) for node in nodes) > 100

    def test_collect_events_sorted_by_time(self):
        tx, rx = CanController("tx"), CanController("rx")
        engine = SimulationEngine([tx, rx])
        tx.submit(data_frame(0x100, b"\x01"))
        engine.run_until_idle(5000)
        trace = engine.collect_events()
        times = [event.time for event in trace.events]
        assert times == sorted(times)


class TestTrace:
    def _run(self):
        tx, rx = CanController("tx"), CanController("rx")
        engine = SimulationEngine([tx, rx])
        tx.submit(data_frame(0x100, b"\x01"))
        engine.run_until_idle(5000)
        return engine

    def test_records_bits(self):
        engine = self._run()
        assert len(engine.trace.bits) == engine.time
        record = engine.trace.bits[0]
        assert record.positions["tx"] == (SOF, 0)

    def test_record_bits_can_be_disabled(self):
        tx = CanController("tx")
        engine = SimulationEngine([tx], record_bits=False)
        engine.run(10)
        assert engine.trace.bits == []

    def test_bus_string_matches_history(self):
        engine = self._run()
        assert engine.trace.bus_string() == engine.bus.as_string()

    def test_node_view_string_length(self):
        engine = self._run()
        assert len(engine.trace.node_view_string("rx")) == engine.time

    def test_position_times(self):
        engine = self._run()
        times = engine.trace.position_times("tx", EOF, 0)
        assert len(times) == 1

    def test_events_of_kind(self):
        engine = self._run()
        trace = engine.collect_events()
        assert trace.events_of_kind("tx_success", node="tx")
        assert trace.events_of_kind("tx_success", node="rx") == []

    def test_render_timeline(self):
        engine = self._run()
        text = engine.trace.render_timeline(["tx", "rx"], start=0, end=20)
        lines = text.splitlines()
        assert len(lines) == 3  # two nodes + bus
        assert lines[0].startswith("tx")
        assert "d" in lines[-1]

    def test_render_without_bus(self):
        engine = self._run()
        text = engine.trace.render_timeline(["tx"], with_bus=False)
        assert "bus" not in text


class TestRng:
    def test_seeded_generators_reproduce(self):
        assert make_rng(7).random() == make_rng(7).random()

    def test_generator_passthrough(self):
        rng = make_rng(1)
        assert make_rng(rng) is rng

    def test_spawn_children_differ(self):
        children = spawn(make_rng(3), 4)
        values = {child.random() for child in children}
        assert len(values) == 4
