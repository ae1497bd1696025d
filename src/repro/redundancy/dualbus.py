"""A replicated (dual) CAN bus architecture.

Reference [2] of the paper (Ferriol, Proenza et al., ICC'98) proposes
media redundancy — every node attached to two independent CAN buses,
each message sent on both — as an architectural route to fault
tolerance.  This module implements that architecture over this
repository's controllers so the two philosophies can be compared on
equal terms:

* **protocol fix** (MajorCAN): one bus, modified controllers;
* **redundancy fix** (dual CAN): two buses, unmodified controllers,
  delivery on the first copy.

A dual bus masks any inconsistency confined to *one* channel (the
replica on the other channel still arrives), but disturbances striking
the same frame on both channels — or a receiver desynchronised on both
— defeat it; the benchmarks quantify exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.can.controller import CanController
from repro.can.events import Delivery
from repro.can.frame import Frame
from repro.errors import ConfigurationError, SimulationError
from repro.properties.ledger import DeliveryFlags, delivery_flags
from repro.simulation.engine import FaultInjector, SimulationEngine

#: Names of the two channels.
CHANNELS = ("A", "B")


class DualBusNode:
    """One node with a controller on each of the two buses.

    The node broadcasts every message on both channels and delivers an
    incoming message when its *first* replica arrives; the second
    replica is recognised by wire identity and suppressed.
    """

    def __init__(
        self,
        name: str,
        controller_factory: Callable[[str], CanController],
    ) -> None:
        self.name = name
        self.controllers: Dict[str, CanController] = {
            channel: controller_factory("%s.%s" % (name, channel))
            for channel in CHANNELS
        }
        #: Application-level deliveries (first replica of each message).
        self.app_deliveries: List[Delivery] = []
        self.app_broadcasts: List[Frame] = []
        self._delivered_keys: List[tuple] = []
        self._cursors: Dict[str, int] = {channel: 0 for channel in CHANNELS}

    def submit(self, frame: Frame) -> None:
        """Broadcast ``frame`` on both channels."""
        self.app_broadcasts.append(frame)
        for controller in self.controllers.values():
            controller.submit(frame)

    @property
    def correct(self) -> bool:
        """The node is correct while at least one channel port works.

        (A fail-silent *node* crash is modelled by crashing both
        ports; a single-port failure is a channel fault.)
        """
        return any(not c.offline for c in self.controllers.values())

    def crash(self) -> None:
        """Fail-silent crash of the whole node (both ports)."""
        for controller in self.controllers.values():
            controller.crash()

    def poll(self) -> None:
        """Merge new controller deliveries into the app-level ledger."""
        for channel in CHANNELS:
            controller = self.controllers[channel]
            while self._cursors[channel] < len(controller.deliveries):
                delivery = controller.deliveries[self._cursors[channel]]
                self._cursors[channel] += 1
                key = delivery.wire_key()
                if key in self._delivered_keys:
                    continue
                self._delivered_keys.append(key)
                self.app_deliveries.append(
                    Delivery(
                        frame=delivery.frame,
                        time=delivery.time,
                        node=self.name,
                        attempt=delivery.attempt,
                    )
                )

    def delivery_count(self, frame: Frame) -> int:
        """App-level delivery count of ``frame``'s wire identity."""
        key = (
            frame.can_id.value,
            frame.can_id.extended,
            frame.remote,
            frame.dlc,
            frame.data,
        )
        return sum(1 for d in self.app_deliveries if d.wire_key() == key)


class DualBusSystem:
    """Two independent buses advanced in lockstep.

    Each channel has its own :class:`SimulationEngine` and may have its
    own fault injector; the system steps both engines one bit at a time
    and polls the nodes' merge layer after every bit.
    """

    def __init__(
        self,
        node_names: Sequence[str],
        controller_factory: Callable[[str], CanController] = CanController,
        injectors: Optional[Dict[str, FaultInjector]] = None,
    ) -> None:
        if len(node_names) < 2:
            raise ConfigurationError("a dual-bus system needs at least 2 nodes")
        injectors = injectors or {}
        self.nodes: List[DualBusNode] = [
            DualBusNode(name, controller_factory) for name in node_names
        ]
        self.engines: Dict[str, SimulationEngine] = {}
        for channel in CHANNELS:
            self.engines[channel] = SimulationEngine(
                [node.controllers[channel] for node in self.nodes],
                injector=injectors.get(channel),
                record_bits=False,
            )

    def node(self, name: str) -> DualBusNode:
        """Look up a node by name."""
        for candidate in self.nodes:
            if candidate.name == name:
                return candidate
        raise SimulationError("no node named %r" % name)

    def step(self) -> None:
        """Advance both channels by one bit time."""
        for channel in CHANNELS:
            self.engines[channel].step()
        for node in self.nodes:
            node.poll()

    def run(self, bits: int) -> None:
        for _ in range(bits):
            self.step()

    def run_until_idle(self, max_bits: int = 60000, settle_bits: int = 12) -> None:
        """Run until both channels are quiet."""
        quiet = 0
        for _ in range(max_bits):
            self.step()
            if all(
                engine.bus.idle_tail() >= 1 and engine._all_idle()
                for engine in self.engines.values()
            ):
                quiet += 1
                if quiet >= settle_bits:
                    return
            else:
                quiet = 0
        raise SimulationError("dual bus did not become idle in %d bits" % max_bits)

    # ------------------------------------------------------------------
    # Classification (mirrors ScenarioOutcome)
    # ------------------------------------------------------------------

    def classify(self, frame: Frame) -> "DualBusOutcome":
        """Consistency verdict for ``frame`` across the live nodes."""
        counts = {
            node.name: node.delivery_count(frame)
            for node in self.nodes
            if node.correct
        }
        return DualBusOutcome(counts=counts)


@dataclass(frozen=True)
class DualBusOutcome:
    """Per-node app-level delivery counts for one message."""

    counts: Dict[str, int]

    @property
    def flags(self) -> DeliveryFlags:
        """The delivery rule over the correct nodes."""
        return delivery_flags([list(self.counts.values())])

    @property
    def consistent(self) -> bool:
        return not self.flags.split[0]

    @property
    def inconsistent_omission(self) -> bool:
        return bool(self.flags.imo[0])

    @property
    def all_delivered_once(self) -> bool:
        return all(v == 1 for v in self.counts.values())
