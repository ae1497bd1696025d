"""Reporting, export and frame-log rendering."""

from repro._namespace import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "dump": (
            "dump_deliveries", "dump_node", "format_delivery", "format_frame", "merged_bus_log",
        ),
        "export": (
            "json_line", "normalise_value", "read_jsonl", "rows_to_csv", "rows_to_json",
            "write_jsonl", "write_rows",
        ),
        "report": ("render_kv", "render_table"),
    },
)
