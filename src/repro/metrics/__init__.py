"""Reporting, export and frame-log rendering."""

from repro.metrics.dump import (
    dump_deliveries,
    dump_node,
    format_delivery,
    format_frame,
    merged_bus_log,
)
from repro.metrics.export import (
    json_line,
    normalise_value,
    read_jsonl,
    rows_to_csv,
    rows_to_json,
    write_jsonl,
    write_rows,
)
from repro.metrics.report import render_kv, render_table

__all__ = [
    "dump_deliveries",
    "dump_node",
    "format_delivery",
    "format_frame",
    "json_line",
    "merged_bus_log",
    "normalise_value",
    "read_jsonl",
    "render_kv",
    "render_table",
    "rows_to_csv",
    "rows_to_json",
    "write_jsonl",
    "write_rows",
]
