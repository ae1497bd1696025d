"""Checker oracle: the production AB1-AB5 and CAN checkers against their
definitions.

The reference checkers below are the direct, quadratic transcriptions of
the property definitions: every pair of correct nodes over every pair of
common messages for AB5, list scans and ``list.count`` for the rest.
They live only here.  Hypothesis drives both implementations over
generated ledgers and the results must match exactly: the same ``holds``
and the same violation strings in the same order.  The scaling tests pin
that the production checkers stay linear in the ledger size.
"""

from __future__ import annotations

import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.properties.broadcast import (
    AB1,
    AB2,
    AB3,
    AB4,
    AB5,
    check_atomic_broadcast,
)
from repro.properties.can_properties import (
    check_can2_best_effort_agreement,
    classify_omissions,
)
from repro.properties.ledger import NodeLedger, SystemLedger

# ----------------------------------------------------------------------
# Reference definitions
# ----------------------------------------------------------------------


def _correct(ledger):
    return [node for node in ledger.nodes.values() if node.correct]


def _delivered_anywhere_correct(ledger):
    seen = []
    for node in _correct(ledger):
        for key in node.deliveries:
            if key not in seen:
                seen.append(key)
    return seen


def ref_validity(ledger):
    delivered = _delivered_anywhere_correct(ledger)
    return [
        "message %r broadcast by correct node %r was never "
        "delivered to any correct node" % (key, node.name)
        for node in _correct(ledger)
        for key in node.broadcasts
        if key not in delivered
    ]


def ref_agreement(ledger):
    return [
        "message %r delivered to some correct node but not to %r" % (key, node.name)
        for key in _delivered_anywhere_correct(ledger)
        for node in _correct(ledger)
        if node.deliveries.count(key) == 0
    ]


def ref_at_most_once(ledger):
    violations = []
    for node in _correct(ledger):
        seen = []
        for key in node.deliveries:
            if key not in seen:
                seen.append(key)
        for key in seen:
            count = node.deliveries.count(key)
            if count > 1:
                violations.append(
                    "node %r delivered message %r %d times" % (node.name, key, count)
                )
    return violations


def ref_non_triviality(ledger):
    broadcast = [key for node in ledger.nodes.values() for key in node.broadcasts]
    return [
        "node %r delivered message %r that nobody broadcast" % (node.name, key)
        for node in _correct(ledger)
        for key in node.deliveries
        if key not in broadcast
    ]


def ref_total_order(ledger):
    violations = []
    correct = _correct(ledger)
    for i, node_a in enumerate(correct):
        for node_b in correct[i + 1 :]:
            pos_a = {}
            for index, key in enumerate(node_a.deliveries):
                pos_a.setdefault(key, index)
            pos_b = {}
            for index, key in enumerate(node_b.deliveries):
                pos_b.setdefault(key, index)
            common = [key for key in pos_a if key in pos_b]
            for j, key1 in enumerate(common):
                for key2 in common[j + 1 :]:
                    order_a = pos_a[key1] < pos_a[key2]
                    order_b = pos_b[key1] < pos_b[key2]
                    if order_a != order_b:
                        violations.append(
                            "nodes %r and %r deliver %r and %r in different "
                            "orders" % (node_a.name, node_b.name, key1, key2)
                        )
    return violations


def ref_classify(ledger):
    consistent, omissions, duplicates, never = [], [], [], []
    seen = []
    for key in [k for node in ledger.nodes.values() for k in node.broadcasts]:
        if key in seen:
            continue
        seen.append(key)
        counts = [node.deliveries.count(key) for node in _correct(ledger)]
        if not counts:
            continue
        if any(count > 1 for count in counts):
            duplicates.append(key)
        if all(count == 0 for count in counts):
            never.append(key)
        elif any(count == 0 for count in counts):
            omissions.append(key)
        else:
            consistent.append(key)
    return consistent, omissions, duplicates, never


def ref_can2(ledger):
    violations = []
    for node in _correct(ledger):
        for key in node.broadcasts:
            delivered = [other.deliveries.count(key) > 0 for other in _correct(ledger)]
            if any(delivered) and not all(delivered):
                violations.append(
                    "message %r from correct transmitter %r reached only part "
                    "of the correct nodes" % (key, node.name)
                )
    return violations


REFERENCE = {
    AB1: ref_validity,
    AB2: ref_agreement,
    AB3: ref_at_most_once,
    AB4: ref_non_triviality,
    AB5: ref_total_order,
}

# ----------------------------------------------------------------------
# Generated ledgers
# ----------------------------------------------------------------------

_GHOSTS = ("ghost", ("ghost", 1))


@st.composite
def _deliveries(draw, order):
    """One node's deliveries: a perturbed copy of ``order`` or noise."""
    pool = list(order) + list(_GHOSTS)
    if draw(st.integers(0, 5)) == 0:
        return draw(st.lists(st.sampled_from(pool), max_size=12))
    # Partial: each message of the reference order is kept or omitted.
    deliveries = [key for key in order if draw(st.integers(0, 4))]
    for _ in range(draw(st.integers(0, 2))):
        if len(deliveries) >= 2:
            i = draw(st.integers(0, len(deliveries) - 2))
            j = draw(st.sampled_from((i + 1, len(deliveries) - 1)))
            deliveries[i], deliveries[j] = deliveries[j], deliveries[i]
    for _ in range(draw(st.integers(0, 2))):
        extra = draw(st.sampled_from(pool))
        deliveries.insert(draw(st.integers(0, len(deliveries))), extra)
    return deliveries


@st.composite
def ledgers(draw):
    keys = ["m%d" % i for i in range(draw(st.integers(0, 9)))] + [("id", 7)]
    order = draw(st.permutations(keys))
    ledger = SystemLedger()
    for index in range(draw(st.integers(0, 7))):
        name = "n%d" % index
        broadcasts = draw(st.lists(st.sampled_from(keys), max_size=4))
        ledger.nodes[name] = NodeLedger(
            name=name,
            correct=draw(st.integers(0, 3)) > 0,
            broadcasts=broadcasts,
            deliveries=draw(_deliveries(order)),
        )
    return ledger


_SETTINGS = settings(max_examples=200, deadline=None)


class TestOracle:
    @_SETTINGS
    @given(ledgers())
    def test_atomic_broadcast_matches_reference(self, ledger):
        results = check_atomic_broadcast(ledger)
        for name, reference in REFERENCE.items():
            expected = reference(ledger)
            assert results[name].violations == expected, name
            assert results[name].holds == (not expected), name

    @_SETTINGS
    @given(ledgers())
    def test_classify_omissions_matches_reference(self, ledger):
        got = classify_omissions(ledger)
        assert (
            got.consistent,
            got.inconsistent_omissions,
            got.duplicates,
            got.never_delivered,
        ) == ref_classify(ledger)

    @_SETTINGS
    @given(ledgers())
    def test_can2_matches_reference(self, ledger):
        got = check_can2_best_effort_agreement(ledger)
        expected = ref_can2(ledger)
        assert got.violations == expected
        assert got.holds == (not expected)

    def test_empty_ledger(self):
        ledger = SystemLedger()
        for name, result in check_atomic_broadcast(ledger).items():
            assert result.holds and result.violations == REFERENCE[name](ledger)
        assert classify_omissions(ledger).imo_count == 0


# ----------------------------------------------------------------------
# Scaling
# ----------------------------------------------------------------------

_NODES = 32


def _agreeing_ledger(frames):
    keys = [(0x100 + i % 0x600, False, False, 8, i) for i in range(frames)]
    ledger = SystemLedger()
    for index in range(_NODES):
        name = "node%02d" % index
        ledger.nodes[name] = NodeLedger(
            name=name,
            correct=True,
            broadcasts=keys[index::_NODES],
            deliveries=list(keys),
        )
    return ledger


def _best_time(ledger, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        results = check_atomic_broadcast(ledger)
        best = min(best, time.perf_counter() - start)
        assert all(result.holds for result in results.values())
    return best


class TestScaling:
    def test_agreeing_ledger_checks_in_linear_time(self):
        frames = 1000
        small = _best_time(_agreeing_ledger(frames))
        large = _best_time(_agreeing_ledger(4 * frames))
        # Linear growth gives ~4; pairwise enumeration gives ~16.
        assert large / small < 8, (small, large)

    def test_one_adjacent_swap_reports_each_pair_once(self):
        ledger = _agreeing_ledger(1000)
        swapped = ledger.nodes["node07"]
        first, second = swapped.deliveries[500], swapped.deliveries[501]
        swapped.deliveries[500], swapped.deliveries[501] = second, first
        template = "nodes %r and %r deliver %r and %r in different orders"
        expected = [
            template % ("node%02d" % index, "node07", first, second)
            for index in range(7)
        ] + [
            template % ("node07", "node%02d" % index, second, first)
            for index in range(8, _NODES)
        ]
        results = check_atomic_broadcast(ledger)
        assert len(expected) == _NODES - 1
        assert results[AB5].violations == expected
        assert all(results[name].holds for name in (AB1, AB2, AB3, AB4))
