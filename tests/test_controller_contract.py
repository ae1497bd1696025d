"""Contract tests for the controller's engine-facing interface.

The fault injector, the trace and the protocol layers all rely on two
invariants of the two-phase per-bit protocol:

* ``drive()`` always publishes a meaningful ``position``;
* the state machine only emits levels consistent with its state
  (flags dominant, delimiters/waits recessive, idle recessive).
"""

import pytest

from repro.can.bits import DOMINANT, RECESSIVE
from repro.can.controller import (
    CanController,
    STATE_BUS_OFF,
    STATE_ERROR_DELIM,
    STATE_ERROR_FLAG,
    STATE_ERROR_WAIT,
    STATE_OVERLOAD_FLAG,
    STATE_RECEIVING,
    STATE_TRANSMITTING,
)
from repro.can.controller_config import ControllerConfig
from repro.can.fields import BUS_OFF_POSITION, EOF, IDLE
from repro.can.frame import data_frame
from repro.core.majorcan import STATE_MAJOR_QUIET, MajorCanController
from repro.errors import SimulationError
from repro.faults.injector import ScriptedInjector, Trigger, ViewFault
from repro.simulation.engine import SimulationEngine


def run_recording(nodes, injector=None, bits=400):
    engine = SimulationEngine(nodes, injector=injector or ScriptedInjector())
    nodes[0].submit(data_frame(0x123, b"\x55"))
    records = []
    for _ in range(bits):
        time = engine.time
        states_before = {n.name: n.state for n in engine.nodes}
        engine.step()
        record = engine.trace.bits[-1]
        records.append((time, states_before, record))
    return engine, records


class TestDriveLevelsMatchStates:
    def test_flag_states_drive_dominant(self):
        nodes = [CanController(n) for n in ("tx", "x", "y")]
        injector = ScriptedInjector(
            view_faults=[ViewFault("x", Trigger(field=EOF, index=3), force=DOMINANT)]
        )
        engine, records = run_recording(nodes, injector)
        flag_seen = 0
        for time, states, record in records:
            for name, state in states.items():
                if state in (STATE_ERROR_FLAG, STATE_OVERLOAD_FLAG):
                    flag_seen += 1
                    assert record.drives[name] is DOMINANT
                elif state in (STATE_ERROR_WAIT, STATE_ERROR_DELIM):
                    # (idle/intermission may legitimately start a
                    # transmission or an overload flag *within* the
                    # drive phase, so only the wait/delimiter states
                    # are unconditionally recessive.)
                    assert record.drives[name] is RECESSIVE
        assert flag_seen >= 6

    def test_positions_always_tuples(self):
        nodes = [CanController(n) for n in ("tx", "x")]
        engine, records = run_recording(nodes)
        for time, states, record in records:
            for name, position in record.positions.items():
                assert isinstance(position, tuple) and len(position) == 2
                field_label, index = position
                assert isinstance(field_label, str)
                assert isinstance(index, int)

    def test_receiver_positions_track_transmitter(self):
        """While no error occurs, transmitter and receivers announce
        the same field at every bit time."""
        nodes = [CanController(n) for n in ("tx", "x")]
        engine, records = run_recording(nodes, bits=60)
        for time, states, record in records:
            if states["tx"] == STATE_TRANSMITTING and states["x"] == STATE_RECEIVING:
                assert record.positions["tx"][0] == record.positions["x"][0]
                assert record.positions["tx"][1] == record.positions["x"][1]


class TestMajorCanStatesDriveCorrectLevels:
    def test_extended_flag_is_dominant_and_quiet_is_recessive(self):
        # An error at EOF bit m makes x flag-and-sample (major_quiet)
        # while the other nodes detect x's flag in the second sub-field
        # and extend (major_extended_flag): both states in one run.
        nodes = [MajorCanController(n) for n in ("tx", "x", "y")]
        injector = ScriptedInjector(
            view_faults=[ViewFault("x", Trigger(field=EOF, index=4), force=DOMINANT)]
        )
        engine, records = run_recording(nodes, injector)
        extended_seen = quiet_seen = 0
        for time, states, record in records:
            for name, state in states.items():
                if state == "major_extended_flag":
                    extended_seen += 1
                    assert record.drives[name] is DOMINANT
                elif state in ("major_quiet",):
                    quiet_seen += 1
                    assert record.drives[name] is RECESSIVE
        assert extended_seen > 0
        assert quiet_seen > 0


class TestOfflineNodesAreSilent:
    def test_crashed_node_never_drives_dominant(self):
        nodes = [CanController(n) for n in ("tx", "x")]
        nodes[1].submit(data_frame(0x050, b"\x01"))
        nodes[1].crash()
        engine, records = run_recording(nodes)
        for time, states, record in records:
            assert record.drives["x"] is RECESSIVE

    def test_disconnected_node_ignores_bus(self):
        node = CanController("n")
        node.disconnect()
        before = node.state
        node.on_bit(DOMINANT)
        assert node.state == before

    @pytest.mark.parametrize("go_offline", ["crash", "disconnect"])
    @pytest.mark.parametrize(
        "state,position",
        [(STATE_BUS_OFF, (BUS_OFF_POSITION, 0)), (STATE_MAJOR_QUIET, (IDLE, 0))],
    )
    def test_offline_node_publishes_its_position_in_every_state(
        self, go_offline, state, position
    ):
        # The offline tables cover the states MajorCAN adds too.
        node = MajorCanController("n")
        node._state = state
        getattr(node, go_offline)()
        for _ in range(3):
            assert node.drive() is RECESSIVE
            assert node.position == position
            node.on_bit(DOMINANT)
            assert node.state == state

    def test_bus_off_node_drives_recessive_and_keeps_monitoring(self):
        node = CanController("n", ControllerConfig(bus_off_recovery=True))
        node._state = STATE_BUS_OFF
        assert node.drive() is RECESSIVE
        assert node.position == (BUS_OFF_POSITION, 0)
        node.on_bit(RECESSIVE)
        assert node._bus_off_recessive_run == 1

    def test_unknown_state_raises(self):
        node = CanController("n")
        node._state = "no_such_state"
        with pytest.raises(SimulationError, match="no drive handler"):
            node.drive()
        with pytest.raises(SimulationError, match="no bit handler"):
            node.on_bit(RECESSIVE)
