"""Tests for report rendering."""

from repro.metrics.report import render_kv, render_table


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
