"""Traffic generation for multi-frame simulations.

The paper's evaluation profile is a 90 %-loaded 1 Mbps bus with 110-bit
frames shared by 32 nodes.  The generators here produce frame
submissions that approximate a target load so long-running fault
injection campaigns exercise realistic traffic (arbitration under
contention, back-to-back frames, queue buildup after error frames).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.can.bits import count_busy_bits, levels_to_string
from repro.can.controller import CanController
from repro.can.frame import data_frame
from repro.errors import ConfigurationError
from repro.simulation.engine import SimulationEngine
from repro.simulation.rng import make_rng
from repro.workload.profiles import NetworkProfile

PayloadFn = Callable[[int], bytes]


def _default_payload(sequence: int) -> bytes:
    return bytes([sequence & 0xFF, (sequence >> 8) & 0xFF])


@dataclass
class PeriodicSource:
    """Submit a frame on a node every ``period_bits`` bit times.

    Frames are tagged with increasing message ids so ledgers can track
    every individual broadcast.
    """

    controller: CanController
    period_bits: int
    identifier: int
    phase: int = 0
    payload_fn: PayloadFn = _default_payload
    max_messages: Optional[int] = None
    sent: int = 0

    def __post_init__(self) -> None:
        if self.period_bits < 1:
            raise ConfigurationError("period must be at least one bit time")

    def tick(self, time: int) -> None:
        """Engine tick hook: submit when the period elapses."""
        if self.max_messages is not None and self.sent >= self.max_messages:
            return
        if time >= self.phase and (time - self.phase) % self.period_bits == 0:
            frame = data_frame(
                self.identifier,
                self.payload_fn(self.sent),
                message_id="%s#%d" % (self.controller.name, self.sent),
                origin=self.controller.name,
            )
            self.controller.submit(frame)
            self.sent += 1


@dataclass
class PoissonSource:
    """Submit frames as a Bernoulli-per-bit (Poisson-like) process."""

    controller: CanController
    rate_per_bit: float
    identifier: int
    rng: object = None
    payload_fn: PayloadFn = _default_payload
    max_messages: Optional[int] = None
    sent: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate_per_bit <= 1.0:
            raise ConfigurationError("rate_per_bit must be a probability")
        self.rng = make_rng(self.rng)

    @property
    def exhausted(self) -> bool:
        """Whether ``max_messages`` frames have been submitted."""
        return self.max_messages is not None and self.sent >= self.max_messages

    def tick(self, time: int) -> None:
        """Engine tick hook: one uniform draw, submit when it is a hit."""
        if self.exhausted:
            return
        if self.rng.random() < self.rate_per_bit:
            self.submit_next()

    def submit_next(self) -> None:
        """Submit the source's next frame to its controller."""
        frame = data_frame(
            self.identifier,
            self.payload_fn(self.sent),
            message_id="%s#%d" % (self.controller.name, self.sent),
            origin=self.controller.name,
        )
        self.controller.submit(frame)
        self.sent += 1


def periodic_sources_for_profile(
    controllers: Sequence[CanController],
    profile: NetworkProfile,
    messages_per_node: Optional[int] = None,
) -> List[PeriodicSource]:
    """Periodic sources approximating the profile's bus load.

    The aggregate frame rate is ``load * bit_rate / frame_bits``;
    divided evenly over the nodes and phase-staggered so submissions
    do not align.  Identifiers are assigned by node order (lower index
    = higher priority).
    """
    n = len(controllers)
    if n == 0:
        raise ConfigurationError("no controllers to generate traffic for")
    period = int(round(n * profile.frame_bits / profile.load))
    sources = []
    for index, controller in enumerate(controllers):
        sources.append(
            PeriodicSource(
                controller=controller,
                period_bits=period,
                identifier=0x100 + index,
                phase=(index * period) // n,
                max_messages=messages_per_node,
            )
        )
    return sources


def attach_sources(engine: SimulationEngine, sources: Sequence[object]) -> None:
    """Register source tick hooks with the engine."""
    for source in sources:
        engine.add_tick_hook(source.tick)


def measured_bus_load(engine: SimulationEngine, start: int = 0) -> float:
    """Fraction of bus bit times that were dominant-or-frame traffic.

    Approximates the utilisation as 1 - (fraction of idle recessive
    tail bits); exact accounting of interframe gaps is unnecessary for
    the tests that sanity-check the generators.
    """
    history = engine.bus.history[start:]
    if not history:
        return 0.0
    return count_busy_bits(levels_to_string(history)) / len(history)
