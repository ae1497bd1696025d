"""Measured bandwidth accounting for the broadcast protocols.

Section 5's overhead comparison contrasts MajorCAN's handful of bits
with "the transmission of more than a CAN frame per message" for the
FTCS'98 protocols.  This module measures that cost directly from
simulation: run one application broadcast through each protocol and
count the frames and bus bits actually spent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.can.encoding import wire_program
from repro.can.frame import data_frame
from repro.core.majorcan import DEFAULT_M, MajorCanController
from repro.errors import ProtocolError
from repro.faults.scenarios import run_single_frame_scenario
from repro.protocols.base import build_protocol_network, decode_message
from repro.protocols.registry import PROTOCOL_FACTORIES
from repro.simulation.engine import SimulationEngine


@dataclass(frozen=True)
class BandwidthReport:
    """Measured bus cost of delivering one application message."""

    protocol: str
    n_nodes: int
    frames_on_bus: int
    frame_bits_total: int
    bus_busy_bits: int

    @property
    def extra_frames(self) -> int:
        """Frames beyond the single data frame an ideal broadcast needs."""
        return self.frames_on_bus - 1


def measure_hlp_bandwidth(
    protocol: str,
    n_nodes: int = 4,
    payload: bytes = b"\xaa",
) -> BandwidthReport:
    """Measure one broadcast's bus cost under a higher-level protocol."""
    key = protocol.lower()
    if key not in PROTOCOL_FACTORIES:
        raise ProtocolError(
            "unknown protocol %r (choose from %s)"
            % (protocol, sorted(PROTOCOL_FACTORIES))
        )
    engine, nodes = build_protocol_network(
        PROTOCOL_FACTORIES[key], n_nodes, engine_kwargs={"record_bits": False}
    )
    nodes[0].broadcast(payload)
    engine.run(4000)
    engine.run_until_idle(60000)
    frames = 0
    frame_bits = 0
    for node in nodes:
        for _, frame in node.controller.tx_successes:
            if decode_message(frame) is None:
                continue
            frames += 1
            frame_bits += wire_program(frame).length
    return BandwidthReport(
        protocol=PROTOCOL_FACTORIES[key].name,
        n_nodes=n_nodes,
        frames_on_bus=frames,
        frame_bits_total=frame_bits,
        bus_busy_bits=_busy_bits(engine),
    )


def measure_majorcan_bandwidth(
    n_nodes: int = 4,
    payload: bytes = b"\xaa",
    m: int = DEFAULT_M,
) -> BandwidthReport:
    """Measure one broadcast's bus cost under MajorCAN_m.

    One frame, no control traffic: the entire overhead is the longer
    frame tail.
    """
    controllers = [MajorCanController("n%d" % i, m=m) for i in range(n_nodes)]
    frame = data_frame(0x100, payload)
    outcome = run_single_frame_scenario(
        "bandwidth", controllers, None, frame=frame, record_bits=False
    )
    return BandwidthReport(
        protocol="MajorCAN_%d" % m,
        n_nodes=n_nodes,
        frames_on_bus=len(controllers[0].tx_successes),
        frame_bits_total=wire_program(frame, controllers[0].config.eof_length).length,
        bus_busy_bits=_busy_bits(outcome.engine),
    )


def bandwidth_comparison(n_nodes: int = 4, payload: bytes = b"\xaa") -> Dict[str, BandwidthReport]:
    """One broadcast through every protocol, measured on the bus."""
    reports = {
        name: measure_hlp_bandwidth(name, n_nodes=n_nodes, payload=payload)
        for name in PROTOCOL_FACTORIES
    }
    majorcan = measure_majorcan_bandwidth(n_nodes=n_nodes, payload=payload)
    reports["majorcan"] = majorcan
    return reports


def _busy_bits(engine: SimulationEngine) -> int:
    """Bus bits from the first dominant bit to the last."""
    history = engine.bus.history
    first: Optional[int] = None
    last = 0
    for index, level in enumerate(history):
        if level.value == 0:
            if first is None:
                first = index
            last = index
    if first is None:
        return 0
    return last - first + 1
