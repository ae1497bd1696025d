"""Executable checkers for the Atomic Broadcast properties AB1-AB5.

The definitions follow Section 2 of the paper (the adaptation of
Hadzilacos & Toueg used by Rufino et al.):

* **AB1 Validity** — if a correct node broadcasts a message, then the
  message is eventually delivered to a correct node;
* **AB2 Agreement** — if a message is delivered to a correct node,
  then it is eventually delivered to all correct nodes;
* **AB3 At-most-once delivery** — any message delivered to a correct
  node is delivered to it at most once;
* **AB4 Non-triviality** — any message delivered to a correct node was
  broadcast by some node;
* **AB5 Total order** — any two messages delivered to any two correct
  nodes are delivered in the same order to both.

Each checker returns a :class:`PropertyResult` carrying the violations
found, so test failures and experiment reports can show *which*
message and nodes broke the property.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.properties.ledger import MessageKey, SystemLedger

AB1 = "AB1-validity"
AB2 = "AB2-agreement"
AB3 = "AB3-at-most-once"
AB4 = "AB4-non-triviality"
AB5 = "AB5-total-order"

ALL_PROPERTIES = (AB1, AB2, AB3, AB4, AB5)


@dataclass
class PropertyResult:
    """Outcome of checking one property over a ledger."""

    name: str
    holds: bool
    violations: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.holds

    def __str__(self) -> str:
        status = "holds" if self.holds else "VIOLATED"
        detail = ("\n  " + "\n  ".join(self.violations)) if self.violations else ""
        return "%s: %s%s" % (self.name, status, detail)


def check_validity(ledger: SystemLedger) -> PropertyResult:
    """AB1: every broadcast of a correct node reaches a correct node."""
    violations = []
    delivered = set(ledger.delivered_anywhere_correct())
    for node in ledger.correct_nodes:
        for key in node.broadcasts:
            if key not in delivered:
                violations.append(
                    "message %r broadcast by correct node %r was never "
                    "delivered to any correct node" % (key, node.name)
                )
    return PropertyResult(AB1, not violations, violations)


def check_agreement(ledger: SystemLedger) -> PropertyResult:
    """AB2: a message delivered to one correct node reaches them all."""
    violations = []
    correct = [(node, set(node.deliveries)) for node in ledger.correct_nodes]
    for key in ledger.delivered_anywhere_correct():
        for node, delivered in correct:
            if key not in delivered:
                violations.append(
                    "message %r delivered to some correct node but not to %r"
                    % (key, node.name)
                )
    return PropertyResult(AB2, not violations, violations)


def check_at_most_once(ledger: SystemLedger) -> PropertyResult:
    """AB3: no correct node delivers the same message twice."""
    violations = []
    for node in ledger.correct_nodes:
        seen: Dict[MessageKey, int] = {}
        for key in node.deliveries:
            seen[key] = seen.get(key, 0) + 1
        for key, count in seen.items():
            if count > 1:
                violations.append(
                    "node %r delivered message %r %d times" % (node.name, key, count)
                )
    return PropertyResult(AB3, not violations, violations)


def check_non_triviality(ledger: SystemLedger) -> PropertyResult:
    """AB4: every delivered message was broadcast by some node."""
    violations = []
    broadcast = set(ledger.all_broadcast_keys())
    for node in ledger.correct_nodes:
        for key in node.deliveries:
            if key not in broadcast:
                violations.append(
                    "node %r delivered message %r that nobody broadcast"
                    % (node.name, key)
                )
    return PropertyResult(AB4, not violations, violations)


def check_total_order(ledger: SystemLedger) -> PropertyResult:
    """AB5: commonly delivered messages appear in the same order.

    For every pair of correct nodes and every pair of messages both of
    them delivered, the relative delivery order must agree.  The check
    uses the position of the *first* delivery of each message, which is
    the standard interpretation when AB3 already flags duplicates.

    Cost is O(N·F) for N correct nodes delivering F messages in the
    same order: nodes with the same first-delivery sequence are grouped
    and never compared.  A pair from different groups costs O(F) to
    compare its sequences restricted to common messages, and only a
    pair whose restricted sequences differ enumerates message pairs,
    within the span where the two sequences differ.  Violations are
    reported for each pair of nodes, then each pair of messages, in
    the order of the first node's deliveries.
    """
    violations = []
    correct = ledger.correct_nodes
    positions = [_first_positions(node.deliveries) for node in correct]
    groups: Dict[tuple, int] = {}
    group = [groups.setdefault(tuple(pos), len(groups)) for pos in positions]
    for i, node_a in enumerate(correct):
        for j in range(i + 1, len(correct)):
            if group[i] == group[j]:
                continue
            node_b, pos_a, pos_b = correct[j], positions[i], positions[j]
            common_a = [key for key in pos_a if key in pos_b]
            common_b = [key for key in pos_b if key in pos_a]
            if common_a == common_b:
                continue
            # Messages in the common prefix or suffix of the two
            # sequences hold the same rank in both, so no inversion
            # involves them.
            lo = 0
            while common_a[lo] == common_b[lo]:
                lo += 1
            hi = len(common_a)
            while common_a[hi - 1] == common_b[hi - 1]:
                hi -= 1
            span = common_a[lo:hi]
            for k, key1 in enumerate(span):
                for key2 in span[k + 1 :]:
                    if pos_b[key2] < pos_b[key1]:
                        violations.append(
                            "nodes %r and %r deliver %r and %r in different "
                            "orders" % (node_a.name, node_b.name, key1, key2)
                        )
    return PropertyResult(AB5, not violations, violations)


def _first_positions(deliveries: List[MessageKey]) -> Dict[MessageKey, int]:
    positions: Dict[MessageKey, int] = {}
    for index, key in enumerate(deliveries):
        if key not in positions:
            positions[key] = index
    return positions


def check_atomic_broadcast(ledger: SystemLedger) -> Dict[str, PropertyResult]:
    """Run all five checkers; returns a property-name -> result map."""
    return {
        AB1: check_validity(ledger),
        AB2: check_agreement(ledger),
        AB3: check_at_most_once(ledger),
        AB4: check_non_triviality(ledger),
        AB5: check_total_order(ledger),
    }


def is_atomic_broadcast(ledger: SystemLedger) -> bool:
    """Whether the execution satisfied all of AB1-AB5."""
    return all(result.holds for result in check_atomic_broadcast(ledger).values())


def is_reliable_broadcast(ledger: SystemLedger) -> bool:
    """Reliable Broadcast = AB1-AB4 without total order (EDCAN's level)."""
    results = check_atomic_broadcast(ledger)
    return all(results[name].holds for name in (AB1, AB2, AB3, AB4))
