"""Delivery ledgers: the ground truth the property checkers inspect.

A :class:`SystemLedger` snapshots, for every node, which messages it
broadcast and the ordered sequence of messages it delivered, plus
whether the node is *correct* (did not crash, disconnect or go
bus-off).  Atomic Broadcast properties quantify over correct nodes
only, so the distinction matters: in the Fig. 1c scenario the crashed
transmitter is exempt from the Agreement check while the surviving
receivers are not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.can.controller import CanController
from repro.can.events import Delivery
from repro.can.frame import Frame

MessageKey = Hashable
KeyFunction = Callable[[Frame], MessageKey]

#: Message kinds by the codes :meth:`DeliveryFlags.kinds` returns.
KINDS = (None, "imo", "double", "inconsistent")


class DeliveryFlags(NamedTuple):
    """The delivery rule's verdict, one ``[messages]`` bool array per flag."""

    #: Some node never delivered the message and another did: an
    #: inconsistent message omission (Fig. 1c, Fig. 3a, Table 1).
    imo: np.ndarray
    #: Some node delivered the message more than once (Fig. 1b).
    double: np.ndarray
    #: Two nodes delivered it a different number of times.
    split: np.ndarray
    #: No node delivered it (also when the node set is empty).
    none: np.ndarray

    def kinds(self) -> np.ndarray:
        """Each message's code into :data:`KINDS`: ``imo`` before
        ``double`` before ``inconsistent``, 0 for a consistent one."""
        return np.select([self.imo, self.double, self.split], [1, 2, 3], 0)


def delivery_flags(counts) -> DeliveryFlags:
    """The one delivery rule over a ``[messages, nodes]`` count matrix.

    Every consistency verdict reads it: scenario outcomes, placement
    verification and enumeration, Monte-Carlo and campaign rounds,
    ledgers and traffic frame verdicts.  The caller picks the node set
    by the columns it passes (live, online or correct nodes).
    """
    counts = np.asarray(counts)
    delivered = counts > 0
    return DeliveryFlags(
        imo=(counts == 0).any(axis=1) & delivered.any(axis=1),
        double=(counts > 1).any(axis=1),
        split=(counts != counts[:, :1]).any(axis=1),
        none=~delivered.any(axis=1),
    )


def wire_key(frame: Frame) -> MessageKey:
    """Default message identity: what receivers can observe on the wire
    (:meth:`~repro.can.frame.Frame.wire_key`).

    The application's ``message_id`` tag is not part of it: receivers
    reconstruct untagged frames.  Scenario harnesses use distinct
    payloads per message, so the wire fields identify each message.
    """
    return frame.wire_key()


@dataclass
class NodeLedger:
    """Broadcast and delivery history of one node."""

    name: str
    correct: bool
    broadcasts: List[MessageKey] = field(default_factory=list)
    deliveries: List[MessageKey] = field(default_factory=list)
    delivery_times: List[int] = field(default_factory=list)

    def delivery_count(self, key: MessageKey) -> int:
        """How many times ``key`` was delivered to this node."""
        return self.deliveries.count(key)


@dataclass
class SystemLedger:
    """Broadcast/delivery snapshot of the whole system."""

    nodes: Dict[str, NodeLedger] = field(default_factory=dict)

    @classmethod
    def from_controllers(
        cls,
        controllers: Sequence[CanController],
        key: KeyFunction = wire_key,
        correct: Optional[Dict[str, bool]] = None,
    ) -> "SystemLedger":
        """Snapshot the ledgers of a set of controllers.

        ``correct`` may override the per-node correctness verdict; by
        default a node is correct iff it is still online.
        """
        ledger = cls()
        for controller in controllers:
            is_correct = (
                correct[controller.name]
                if correct is not None and controller.name in correct
                else not controller.offline
            )
            node = NodeLedger(name=controller.name, correct=is_correct)
            node.broadcasts = [key(frame) for frame in controller.submitted]
            node.deliveries = [key(d.frame) for d in controller.deliveries]
            node.delivery_times = [d.time for d in controller.deliveries]
            ledger.nodes[controller.name] = node
        return ledger

    @classmethod
    def from_deliveries(
        cls,
        deliveries: Dict[str, Sequence[Delivery]],
        broadcasts: Dict[str, Sequence[Frame]],
        correct: Dict[str, bool],
        key: KeyFunction = wire_key,
    ) -> "SystemLedger":
        """Build a ledger from raw delivery/broadcast mappings.

        Higher-level protocol layers (EDCAN/RELCAN/TOTCAN) deliver at
        the application level rather than the controller level; they
        use this constructor with their own delivery records.
        """
        ledger = cls()
        names = set(deliveries) | set(broadcasts) | set(correct)
        for name in sorted(names):
            node = NodeLedger(name=name, correct=correct.get(name, True))
            node.broadcasts = [key(frame) for frame in broadcasts.get(name, [])]
            for delivery in deliveries.get(name, []):
                node.deliveries.append(key(delivery.frame))
                node.delivery_times.append(delivery.time)
            ledger.nodes[name] = node
        return ledger

    # ------------------------------------------------------------------
    # Queries used by the property checkers
    # ------------------------------------------------------------------

    @property
    def correct_nodes(self) -> List[NodeLedger]:
        """Ledgers of the nodes that remained correct."""
        return [node for node in self.nodes.values() if node.correct]

    def all_broadcast_keys(self) -> List[MessageKey]:
        """Every message key any node ever broadcast."""
        keys: List[MessageKey] = []
        for node in self.nodes.values():
            keys.extend(node.broadcasts)
        return keys

    def broadcasts_by_correct_nodes(self) -> List[MessageKey]:
        """Message keys broadcast by nodes that remained correct."""
        keys: List[MessageKey] = []
        for node in self.correct_nodes:
            keys.extend(node.broadcasts)
        return keys

    def delivered_anywhere_correct(self) -> List[MessageKey]:
        """Keys delivered to at least one correct node (deduplicated)."""
        return list(
            dict.fromkeys(key for node in self.correct_nodes for key in node.deliveries)
        )
