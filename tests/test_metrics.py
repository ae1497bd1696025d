"""Tests for metrics aggregation and report rendering."""

from repro.faults.scenarios import fig1b, fig3a
from repro.metrics.counters import CampaignResult, ConsistencyCounter
from repro.metrics.report import render_kv, render_table
from repro.properties.ledger import NodeLedger, SystemLedger


def _ledger_with_imo():
    ledger = SystemLedger()
    ledger.nodes["tx"] = NodeLedger("tx", True, broadcasts=["m"], deliveries=["m"])
    ledger.nodes["x"] = NodeLedger("x", True, deliveries=[])
    ledger.nodes["y"] = NodeLedger("y", True, deliveries=["m"])
    return ledger


class TestConsistencyCounter:
    def test_add_ledger(self):
        counter = ConsistencyCounter()
        counter.add_ledger(_ledger_with_imo())
        assert counter.messages == 1
        assert counter.inconsistent_omissions == 1
        assert counter.imo_rate == 1.0

    def test_add_outcome(self):
        counter = ConsistencyCounter()
        counter.add_outcome(fig3a())
        counter.add_outcome(fig1b("minorcan"))
        assert counter.messages == 2
        assert counter.inconsistent_omissions == 1
        assert counter.consistent == 1

    def test_double_reception_counted(self):
        counter = ConsistencyCounter()
        counter.add_outcome(fig1b("can"))
        assert counter.double_receptions == 1

    def test_merge(self):
        a = ConsistencyCounter(messages=2, consistent=1, inconsistent_omissions=1)
        b = ConsistencyCounter(messages=3, consistent=3)
        merged = a.merge(b)
        assert merged.messages == 5
        assert merged.consistent == 4
        assert merged.imo_rate == 0.2

    def test_empty_rate(self):
        assert ConsistencyCounter().imo_rate == 0.0


class TestCampaignResult:
    def test_counters_created_on_demand(self):
        campaign = CampaignResult(label="test")
        campaign.counter("can").add_outcome(fig3a())
        campaign.counter("majorcan")
        rows = campaign.rows()
        assert [row["protocol"] for row in rows] == ["can", "majorcan"]
        assert rows[0]["imo"] == 1


class TestRenderTable:
    def test_alignment_and_content(self):
        rows = [
            {"name": "alpha", "value": 1.23456},
            {"name": "b", "value": 7},
        ]
        text = render_table(rows, columns=["name", "value"], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "alpha" in text
        assert "1.23" in text

    def test_empty_rows(self):
        assert "(no rows)" in render_table([], columns=["a"])

    def test_missing_keys_render_blank(self):
        text = render_table([{"a": 1}], columns=["a", "b"])
        assert text

    def test_no_line_ends_in_whitespace(self):
        rows = [
            {"name": "alpha", "note": "short"},
            {"name": "b", "note": "a much longer note"},
            {"name": "c"},
        ]
        lines = render_table(rows, columns=["name", "note"], title="T").splitlines()
        assert lines == [
            "T",
            "name   note",
            "-----  ------------------",
            "alpha  short",
            "b      a much longer note",
            "c",
        ]


class TestRenderKv:
    def test_pairs_aligned(self):
        text = render_kv("Title", [("short", 1), ("much-longer-key", 2)])
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert lines[1].split(":")[1].strip() == "1"
