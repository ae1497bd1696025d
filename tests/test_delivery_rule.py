"""The one delivery rule against every per-site definition it replaced.

:func:`repro.properties.ledger.delivery_flags` is the only place the
inconsistent-omission, double-reception, split and none-delivered
predicates are written.  Each call site used to spell them out itself;
the functions prefixed ``old_`` below are verbatim copies of those
definitions, kept here only as oracles.  Hypothesis draws delivery
count matrices (-1 to 3 over 1-7 nodes) and node masks (live, online or
correct nodes, the empty set included), and every site must classify
them exactly as its old definition did.

Counts of -1 never occur in a run; they show that the rule and the old
definitions agree beyond the values a run produces.  The ledger sites
(``classify_omissions``) read counts off delivery lists, so their
counts start at 0.
"""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.analysis.montecarlo import ChunkCounts
from repro.faults.campaigns import _category
from repro.faults.scenarios import ScenarioOutcome
from repro.properties.can_properties import OmissionClassification, classify_omissions
from repro.properties.ledger import KINDS, NodeLedger, SystemLedger, delivery_flags
from repro.redundancy.dualbus import DualBusOutcome
from repro.traffic.run import frame_statuses

# ---------------------------------------------------------------------------
# The old per-site definitions, verbatim (names prefixed ``old_``)
# ---------------------------------------------------------------------------


class OldPlacementOutcome:
    """``batchreplay.PlacementOutcome``."""

    def __init__(self, deliveries, attempts=1):
        self.deliveries = tuple(deliveries)
        self.attempts = attempts

    @property
    def consistent(self) -> bool:
        return len(set(self.deliveries)) <= 1

    @property
    def inconsistent_omission(self) -> bool:
        return any(count == 0 for count in self.deliveries) and any(
            count > 0 for count in self.deliveries
        )

    @property
    def double_reception(self) -> bool:
        return any(count > 1 for count in self.deliveries)

    @property
    def kind(self):
        return old_delivery_kind(self.deliveries)


def old_delivery_kind(deliveries):
    """``batchreplay.delivery_kind``."""
    if any(count == 0 for count in deliveries) and any(
        count > 0 for count in deliveries
    ):
        return "imo"
    if any(count > 1 for count in deliveries):
        return "double"
    if len(set(deliveries)) > 1:
        return "inconsistent"
    return None


def old_delivery_kinds(deliveries: np.ndarray) -> np.ndarray:
    """``batchreplay.delivery_kinds``."""
    imo = (deliveries == 0).any(axis=1) & (deliveries > 0).any(axis=1)
    double = (deliveries > 1).any(axis=1)
    split = (deliveries != deliveries[:, :1]).any(axis=1)
    return np.select([imo, double, split], [1, 2, 3], 0)


class OldChunkCounts:
    """``montecarlo.ChunkCounts``: its two absorb methods."""

    def __init__(self):
        self.imo = self.double_reception = self.inconsistent = 0

    def absorb_outcome(self, outcome) -> None:
        if outcome.inconsistent_omission:
            self.imo += 1
        if outcome.double_reception:
            self.double_reception += 1
        if not outcome.consistent:
            self.inconsistent += 1

    def absorb_deliveries(self, deliveries: np.ndarray) -> None:
        self.imo += int(((deliveries == 0).any(axis=1) & (deliveries > 0).any(axis=1)).sum())
        self.double_reception += int((deliveries > 1).any(axis=1).sum())
        self.inconsistent += int((deliveries != deliveries[:, :1]).any(axis=1).sum())


class OldScenarioOutcome:
    """``scenarios.ScenarioOutcome``'s verdict properties."""

    def __init__(self, deliveries, crashed):
        self.deliveries = deliveries
        self.crashed = crashed

    @property
    def live_nodes(self):
        return [name for name in self.deliveries if name not in self.crashed]

    @property
    def consistent(self) -> bool:
        counts = {self.deliveries[name] for name in self.live_nodes}
        return len(counts) <= 1

    @property
    def inconsistent_omission(self) -> bool:
        counts = [self.deliveries[name] for name in self.live_nodes]
        return any(count == 0 for count in counts) and any(
            count > 0 for count in counts
        )

    @property
    def double_reception(self) -> bool:
        return any(count > 1 for count in self.deliveries.values())


class OldDualBusOutcome:
    """``dualbus.DualBusOutcome``'s verdict properties."""

    def __init__(self, counts):
        self.counts = counts

    @property
    def consistent(self) -> bool:
        return len(set(self.counts.values())) <= 1

    @property
    def inconsistent_omission(self) -> bool:
        values = list(self.counts.values())
        return any(v == 0 for v in values) and any(v > 0 for v in values)


def old_classify_omissions(ledger: SystemLedger) -> OmissionClassification:
    """``can_properties.classify_omissions``."""
    result = OmissionClassification()
    tallies = [Counter(node.deliveries) for node in ledger.correct_nodes]
    for key in dict.fromkeys(ledger.all_broadcast_keys()):
        counts = [tally[key] for tally in tallies]
        if not counts:
            continue
        if any(count > 1 for count in counts):
            result.duplicates.append(key)
        if all(count == 0 for count in counts):
            result.never_delivered.append(key)
        elif any(count == 0 for count in counts):
            result.inconsistent_omissions.append(key)
        else:
            result.consistent.append(key)
    return result


def old_frame_status(correct_counts):
    """The frame-verdict status of ``traffic.run.splice_windows``."""
    if any(count > 1 for count in correct_counts):
        status = "duplicated"
    elif correct_counts and all(count == 1 for count in correct_counts):
        status = "delivered"
    elif any(count > 0 for count in correct_counts):
        status = "omitted"
    else:
        status = "lost"
    return status


def old_round_category(counts):
    """A campaign round's category in ``campaigns.run_rounds``."""
    return old_delivery_kind(counts) or "consistent"


# ---------------------------------------------------------------------------
# Generated cases
# ---------------------------------------------------------------------------


@st.composite
def count_cases(draw, low=-1):
    """A ``[messages, nodes]`` count matrix and a node mask over it."""
    nodes = draw(st.integers(1, 7))
    counts = draw(
        hnp.arrays(
            np.int64,
            st.tuples(st.integers(1, 12), st.just(nodes)),
            elements=st.integers(low, 3),
        )
    )
    mask = np.array(draw(st.lists(st.booleans(), min_size=nodes, max_size=nodes)))
    return counts, mask


def names(nodes):
    return ["n%d" % i for i in range(nodes)]


class TestOneRule:
    @settings(max_examples=300, deadline=None)
    @given(count_cases())
    def test_placement_outcomes_and_kinds(self, case):
        counts, _ = case
        flags = delivery_flags(counts)
        kinds = flags.kinds()
        assert kinds.tolist() == old_delivery_kinds(counts).tolist()
        for row, old in enumerate(OldPlacementOutcome(r) for r in counts.tolist()):
            assert KINDS[kinds[row]] == old.kind == old_delivery_kind(old.deliveries)
            assert flags.imo[row] == old.inconsistent_omission
            assert flags.double[row] == old.double_reception
            assert (not flags.split[row]) == old.consistent

    @settings(max_examples=300, deadline=None)
    @given(count_cases())
    def test_chunk_counts_count_each_flag_on_its_own(self, case):
        counts, _ = case
        new = ChunkCounts()
        new.absorb(delivery_flags(counts))
        by_matrix, by_row = OldChunkCounts(), OldChunkCounts()
        by_matrix.absorb_deliveries(counts)
        for row in counts.tolist():
            by_row.absorb_outcome(OldPlacementOutcome(row))
        for old in (by_matrix, by_row):
            assert (new.imo, new.double_reception, new.inconsistent) == (
                old.imo,
                old.double_reception,
                old.inconsistent,
            )

    @settings(max_examples=300, deadline=None)
    @given(count_cases())
    def test_scenario_outcomes_over_live_nodes(self, case):
        counts, live = case
        nodes = names(counts.shape[1])
        crashed = [name for name, up in zip(nodes, live) if not up]
        new_counts, old_counts = ChunkCounts(), OldChunkCounts()
        for row in counts.tolist():
            deliveries = dict(zip(nodes, row))
            new = ScenarioOutcome("case", "can", deliveries, crashed, 1, 0, None)
            old = OldScenarioOutcome(deliveries, crashed)
            assert new.consistent == old.consistent
            assert new.inconsistent_omission == old.inconsistent_omission
            assert new.double_reception == old.double_reception
            assert type(new.consistent) is type(new.inconsistent_omission) is bool
            new_counts.absorb(new.flags)
            old_counts.absorb_outcome(old)
        assert vars(old_counts) == {
            "imo": new_counts.imo,
            "double_reception": new_counts.double_reception,
            "inconsistent": new_counts.inconsistent,
        }

    @settings(max_examples=300, deadline=None)
    @given(count_cases())
    def test_dual_bus_and_campaign_rounds_over_online_nodes(self, case):
        counts, online = case
        nodes = names(counts.shape[1])
        rows = [
            [count for count, up in zip(row, online) if up] for row in counts.tolist()
        ]
        for row in rows:
            up = dict(zip([n for n, u in zip(nodes, online) if u], row))
            new, old = DualBusOutcome(counts=up), OldDualBusOutcome(up)
            assert new.consistent == old.consistent
            assert new.inconsistent_omission == old.inconsistent_omission
            assert _category(delivery_flags([row])) == [old_round_category(row)]
        assert _category(delivery_flags(counts[:, online])) == [
            old_round_category(row) for row in rows
        ]

    @settings(max_examples=300, deadline=None)
    @given(count_cases())
    def test_frame_statuses_over_correct_nodes(self, case):
        # duplicated > delivered > omitted > lost, as the old chain read.
        counts, correct = case
        assert frame_statuses(counts[:, correct]) == [
            old_frame_status([c for c, ok in zip(row, correct) if ok])
            for row in counts.tolist()
        ]

    @settings(max_examples=300, deadline=None)
    @given(count_cases(low=0))
    def test_classify_omissions_over_correct_nodes(self, case):
        counts, correct = case
        ledger = SystemLedger()
        for node, (column, ok) in enumerate(zip(counts.T.tolist(), correct)):
            ledger.nodes["n%d" % node] = NodeLedger(
                "n%d" % node,
                bool(ok),
                deliveries=[key for key, count in enumerate(column) for _ in range(count)],
            )
        ledger.nodes["n0"].broadcasts = list(range(len(counts)))
        assert classify_omissions(ledger) == old_classify_omissions(ledger)

    def test_empty_node_sets(self):
        empty = np.zeros((3, 0), dtype=np.int64)
        flags = delivery_flags(empty)
        assert flags.none.tolist() == [True] * 3
        assert not (flags.imo.any() or flags.double.any() or flags.split.any())
        assert frame_statuses(empty) == ["lost"] * 3 == [old_frame_status([])] * 3
        assert _category(flags) == ["consistent"] * 3 == [old_round_category([])] * 3
        ledger = SystemLedger()
        ledger.nodes["tx"] = NodeLedger("tx", False, broadcasts=["m"], deliveries=["m"])
        assert classify_omissions(ledger) == old_classify_omissions(ledger)
        assert classify_omissions(ledger) == OmissionClassification()
