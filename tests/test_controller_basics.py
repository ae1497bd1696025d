"""Controller tests: error-free transmission, reception, delivery."""

import gc
import weakref

import pytest

from repro.can.controller import (
    CanController,
    STATE_IDLE,
    STATE_RECEIVING,
    STATE_TRANSMITTING,
)
from repro.can.controller_config import ControllerConfig
from repro.can.events import EventKind
from repro.can.frame import data_frame, remote_frame
from repro.errors import SimulationError
from repro.faults.scenarios import make_controller
from repro.simulation.engine import SimulationEngine

from helpers import delivered_payloads


class TestErrorFreeTransfer:
    def test_every_receiver_delivers_once(self, three_node_bus):
        engine, tx, rx1, rx2 = three_node_bus
        tx.submit(data_frame(0x123, b"\x01\x02"))
        engine.run_until_idle(5000)
        assert delivered_payloads(rx1) == [b"\x01\x02"]
        assert delivered_payloads(rx2) == [b"\x01\x02"]

    def test_transmitter_self_delivers_by_default(self, three_node_bus):
        engine, tx, rx1, rx2 = three_node_bus
        tx.submit(data_frame(0x123, b"\x99"))
        engine.run_until_idle(5000)
        assert delivered_payloads(tx) == [b"\x99"]

    @pytest.mark.parametrize("protocol", ["can", "minorcan", "majorcan"])
    def test_transmitter_self_delivers_on_every_protocol(self, protocol):
        """Self-delivery is unconditional: the transmitter delivers its
        own frame once, alongside every receiver."""
        nodes = [make_controller(protocol, name) for name in ("tx", "rx")]
        engine = SimulationEngine(nodes)
        nodes[0].submit(data_frame(0x1, b"\x01"))
        engine.run_until_idle(5000)
        assert [delivered_payloads(node) for node in nodes] == [[b"\x01"]] * 2

    def test_receivers_reconstruct_identifier(self, three_node_bus):
        engine, tx, rx1, _ = three_node_bus
        tx.submit(data_frame(0x6A5, b"\xab\xcd"))
        engine.run_until_idle(5000)
        assert rx1.deliveries[0].frame.can_id.value == 0x6A5

    def test_extended_frame_transfer(self, three_node_bus):
        engine, tx, rx1, _ = three_node_bus
        tx.submit(data_frame(0x1FFFFFFF, b"\x01", extended=True))
        engine.run_until_idle(8000)
        received = rx1.deliveries[0].frame
        assert received.can_id.value == 0x1FFFFFFF
        assert received.can_id.extended

    def test_remote_frame_transfer(self, three_node_bus):
        engine, tx, rx1, _ = three_node_bus
        tx.submit(remote_frame(0x321, dlc=6))
        engine.run_until_idle(5000)
        received = rx1.deliveries[0].frame
        assert received.remote
        assert received.dlc == 6

    def test_eight_byte_frame(self, three_node_bus):
        engine, tx, rx1, _ = three_node_bus
        payload = bytes(range(8))
        tx.submit(data_frame(0x100, payload))
        engine.run_until_idle(5000)
        assert delivered_payloads(rx1) == [payload]

    def test_back_to_back_frames_in_order(self, three_node_bus):
        engine, tx, rx1, _ = three_node_bus
        for value in range(5):
            tx.submit(data_frame(0x100, bytes([value])))
        engine.run_until_idle(20000)
        assert delivered_payloads(rx1) == [bytes([v]) for v in range(5)]

    def test_tx_success_event_and_counter(self, three_node_bus):
        engine, tx, rx1, _ = three_node_bus
        tx.submit(data_frame(0x100, b"\x01"))
        engine.run_until_idle(5000)
        successes = [e for e in tx.events if e.kind == EventKind.TX_SUCCESS]
        assert len(successes) == 1
        assert successes[0].data["attempt"] == 1
        assert tx.tx_successes[0][1].data == b"\x01"

    def test_receiver_rec_decrements_stay_at_zero(self, three_node_bus):
        engine, tx, rx1, _ = three_node_bus
        tx.submit(data_frame(0x100, b"\x01"))
        engine.run_until_idle(5000)
        assert rx1.counters.rec == 0
        assert tx.counters.tec == 0

    def test_receiver_acks(self, three_node_bus):
        """With a receiver present the transmitter sees the ACK and
        does not raise an ACK error."""
        engine, tx, rx1, _ = three_node_bus
        tx.submit(data_frame(0x100, b"\x01"))
        engine.run_until_idle(5000)
        errors = [e for e in tx.events if e.kind == EventKind.ERROR_DETECTED]
        assert errors == []


class TestLoneTransmitter:
    def test_ack_error_without_receivers(self):
        tx = CanController("tx")
        passive_observer = CanController("obs", ControllerConfig())
        engine = SimulationEngine([tx])
        tx.submit(data_frame(0x100, b"\x01"))
        engine.run(200)
        errors = [e for e in tx.events if e.kind == EventKind.ERROR_DETECTED]
        assert errors
        assert errors[0].data["reason"] == "ack_error"

    def test_lone_transmitter_keeps_retrying(self):
        tx = CanController("tx")
        engine = SimulationEngine([tx])
        tx.submit(data_frame(0x100, b"\x01"))
        engine.run(2000)
        starts = [e for e in tx.events if e.kind == EventKind.TX_START]
        assert len(starts) > 3
        assert tx.pending_transmissions == 1


class TestStates:
    def test_idle_initially(self):
        assert CanController("n").state == STATE_IDLE

    def test_transmitting_state_during_frame(self, three_node_bus):
        engine, tx, rx1, _ = three_node_bus
        tx.submit(data_frame(0x100, b"\x01"))
        engine.run(10)
        assert tx.state == STATE_TRANSMITTING
        assert rx1.state == STATE_RECEIVING

    def test_back_to_idle_after_frame(self, three_node_bus):
        engine, tx, rx1, rx2 = three_node_bus
        tx.submit(data_frame(0x100, b"\x01"))
        engine.run_until_idle(5000)
        for node in (tx, rx1, rx2):
            assert node.state == STATE_IDLE

    def test_crash_goes_offline(self, three_node_bus):
        engine, tx, rx1, _ = three_node_bus
        rx1.crash()
        assert rx1.offline
        tx.submit(data_frame(0x100, b"\x01"))
        engine.run_until_idle(5000)
        assert rx1.deliveries == []

    def test_disconnect_event(self):
        node = CanController("n")
        node.disconnect()
        assert node.offline
        assert any(e.kind == EventKind.DISCONNECTED for e in node.events)


class TestEngineGuards:
    def test_duplicate_names_rejected(self):
        with pytest.raises(SimulationError):
            SimulationEngine([CanController("a"), CanController("a")])

    def test_empty_bus_rejected(self):
        with pytest.raises(SimulationError):
            SimulationEngine([]).step()

    def test_run_until_idle_times_out(self):
        tx = CanController("tx")
        engine = SimulationEngine([tx])
        tx.submit(data_frame(0x100, b"\x01"))  # never acked, never idle
        with pytest.raises(SimulationError):
            engine.run_until_idle(500)


@pytest.mark.parametrize("fast_path", [True, False])
@pytest.mark.parametrize("protocol", ["can", "minorcan", "majorcan"])
def test_dropped_controller_dies_by_refcount(protocol, fast_path):
    """A controller holds no reference cycle (its handler tables are
    class-level functions), so finished runs free their controllers
    without waiting for the cyclic collector."""
    config = ControllerConfig(fast_path=fast_path)
    gc.disable()
    try:
        controllers = [make_controller(protocol, name, config=config) for name in ("tx", "rx")]
        controllers[0].submit(data_frame(0x123, b"\x01\x02"))
        engine = SimulationEngine(controllers, record_bits=False)
        engine.run(40)  # mid-frame: both parsers and the wire program live
        refs = [weakref.ref(controller) for controller in controllers]
        del controllers, engine
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
