"""The CAN-level properties of Sections 2.2 and 4.

Rufino et al. characterised what unmodified CAN actually guarantees
(CAN1-CAN6); the paper's new scenarios weaken two of them (CAN2',
CAN6').  These checkers classify executions rather than assert
correctness: an execution of standard CAN is *expected* to sometimes
exhibit inconsistent omissions, and the experiment harness counts how
often.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import List, Sequence

from repro.properties.broadcast import PropertyResult
from repro.properties.ledger import MessageKey, SystemLedger, delivery_flags

CAN1 = "CAN1-validity"
CAN2 = "CAN2-best-effort-agreement"
CAN2_PRIME = "CAN2'-agreement-not-guaranteed"
CAN3 = "CAN3-at-least-once"
CAN4 = "CAN4-non-triviality"
CAN6 = "CAN6-bounded-inconsistent-omission-degree"


@dataclass
class OmissionClassification:
    """Per-message consistency classification of one execution."""

    consistent: List[MessageKey] = field(default_factory=list)
    inconsistent_omissions: List[MessageKey] = field(default_factory=list)
    duplicates: List[MessageKey] = field(default_factory=list)
    never_delivered: List[MessageKey] = field(default_factory=list)

    @property
    def imo_count(self) -> int:
        """Number of messages suffering an inconsistent omission."""
        return len(self.inconsistent_omissions)


def classify_omissions(ledger: SystemLedger) -> OmissionClassification:
    """Classify each broadcast message of an execution.

    A message suffers an *inconsistent message omission* when some
    correct node delivered it and another correct node never did —
    the phenomenon whose per-hour probability Table 1 quantifies.
    """
    result = OmissionClassification()
    tallies = [Counter(node.deliveries) for node in ledger.correct_nodes]
    keys = list(dict.fromkeys(ledger.all_broadcast_keys()))
    if not tallies or not keys:
        return result
    flags = delivery_flags([[tally[key] for tally in tallies] for key in keys])
    for key, double, none, imo in zip(
        keys, flags.double.tolist(), flags.none.tolist(), flags.imo.tolist()
    ):
        if double:
            result.duplicates.append(key)
        if none:
            result.never_delivered.append(key)
        elif imo:
            result.inconsistent_omissions.append(key)
        else:
            result.consistent.append(key)
    return result


def check_can2_best_effort_agreement(ledger: SystemLedger) -> PropertyResult:
    """CAN2: agreement holds *provided the transmitter remains correct*.

    A violation of this (an omission with a correct transmitter) is
    exactly what the paper's new scenarios produce, motivating CAN2'.
    """
    violations = []
    delivered_sets = [set(node.deliveries) for node in ledger.correct_nodes]
    for node in ledger.correct_nodes:
        for key in node.broadcasts:
            delivered = [key in keys for keys in delivered_sets]
            if any(delivered) and not all(delivered):
                violations.append(
                    "message %r from correct transmitter %r reached only part "
                    "of the correct nodes" % (key, node.name)
                )
    return PropertyResult(CAN2, not violations, violations)


@dataclass
class OmissionDegree:
    """CAN6/CAN6': inconsistent omission degree over an interval.

    ``j`` is the maximum number of transmissions suffering inconsistent
    omission failures within the reference interval ``T_rd``.  The
    paper's point is that the *new* scenarios make the observed degree
    (j') larger than the previously assumed one (j).
    """

    transmissions: int
    omissions: int

    @property
    def degree(self) -> int:
        return self.omissions

    @property
    def rate(self) -> float:
        """Empirical omission probability per transmission."""
        if self.transmissions == 0:
            return 0.0
        return self.omissions / self.transmissions


def omission_degree(ledgers: Sequence[SystemLedger]) -> OmissionDegree:
    """Aggregate CAN6 statistics over many executions."""
    transmissions = 0
    omissions = 0
    for ledger in ledgers:
        classification = classify_omissions(ledger)
        transmissions += (
            len(classification.consistent)
            + len(classification.inconsistent_omissions)
            + len(classification.never_delivered)
        )
        omissions += classification.imo_count
    return OmissionDegree(transmissions=transmissions, omissions=omissions)
