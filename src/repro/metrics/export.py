"""Exporting experiment results to CSV and JSON.

Downstream users typically want the reproduced tables as data, not
text; these helpers serialise any list of dict-shaped rows (as
produced by the sweeps, campaigns, Table 1 and the property matrices)
losslessly and deterministically.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, is_dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.errors import ReproError


def _normalise_row(row: Any) -> Dict[str, Any]:
    if is_dataclass(row) and not isinstance(row, type):
        return asdict(row)
    if isinstance(row, dict):
        return dict(row)
    raise ReproError("rows must be dicts or dataclasses, got %r" % type(row))


def normalise_value(value: Any) -> Any:
    """Map ``value`` to a JSON-representable equivalent, recursively.

    Bytes become hex strings, infinities become strings, tuples become
    lists, dict keys become strings, and dataclass instances become
    dicts.  This is the single normalisation used by every JSON/CSV/
    JSONL emitter in the package (exports and the trace store alike).
    """
    if isinstance(value, float) and value in (float("inf"), float("-inf")):
        return str(value)
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [normalise_value(item) for item in value]
    if isinstance(value, dict):
        return {str(key): normalise_value(val) for key, val in value.items()}
    if is_dataclass(value) and not isinstance(value, type):
        return {key: normalise_value(val) for key, val in asdict(value).items()}
    return value


#: Scalar types :func:`json_line` encodes as they are (floats only
#: while finite, which the plain encoder checks).
_PLAIN_SCALARS = frozenset((str, int, float, bool, type(None)))

_LINE = dict(sort_keys=True, separators=(",", ":"))
_PLAIN_ENCODER = json.JSONEncoder(allow_nan=False, **_LINE)
_NORMALISED_ENCODER = json.JSONEncoder(**_LINE)


def _is_plain(value: Any) -> bool:
    """True when ``value`` is already its own :func:`normalise_value`.

    Plain means built from exactly these types: dicts with ``str``
    keys, lists, tuples (which both paths write as arrays) and the
    scalars of ``_PLAIN_SCALARS``.  Subclasses are not plain: a ``str``
    enum key, say, normalises through its own ``__str__``.
    """
    kind = type(value)
    if kind is dict:
        for key, item in value.items():
            if type(key) is not str or not _is_plain(item):
                return False
        return True
    if kind is list or kind is tuple:
        return all(map(_is_plain, value))
    return kind in _PLAIN_SCALARS


def json_line(record: Any) -> str:
    """Serialise one record as a compact, deterministic JSON line.

    The record is :func:`normalise_value`-normalised first; keys are
    sorted and separators minimal, so equal records always produce
    byte-identical lines — the property the trace-store diffs and the
    golden corpus rely on.  A plain record (see :func:`_is_plain`) with
    finite floats is its own normal form and is encoded directly; any
    other record (bytes, infinities, NaN, dataclasses, non-``str``
    keys) takes the normalising path.
    """
    if _is_plain(record):
        try:
            return _PLAIN_ENCODER.encode(record)
        except ValueError:  # a non-finite float
            pass
    return _NORMALISED_ENCODER.encode(normalise_value(record))


def write_jsonl(path_or_handle: Any, records: Iterable[Any]) -> int:
    """Stream ``records`` to a file as JSON Lines; returns the count.

    Accepts a path or an open text handle.  Each record is emitted with
    :func:`json_line`, so the output is deterministic line by line.
    """
    count = 0
    if hasattr(path_or_handle, "write"):
        for record in records:
            path_or_handle.write(json_line(record) + "\n")
            count += 1
        return count
    with open(path_or_handle, "w") as handle:
        for record in records:
            handle.write(json_line(record) + "\n")
            count += 1
    return count


def read_jsonl(path_or_handle: Any) -> List[Dict[str, Any]]:
    """Load a JSON Lines file written by :func:`write_jsonl`."""
    if hasattr(path_or_handle, "read"):
        lines = path_or_handle.read().splitlines()
    else:
        with open(path_or_handle) as handle:
            lines = handle.read().splitlines()
    records = []
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except ValueError as exc:
            raise ReproError("invalid JSONL at line %d: %s" % (number, exc))
    return records


def rows_to_json(rows: Sequence[Any], indent: int = 2) -> str:
    """Serialise rows to a deterministic JSON array."""
    payload = [
        {key: normalise_value(value) for key, value in _normalise_row(row).items()}
        for row in rows
    ]
    return json.dumps(payload, indent=indent, sort_keys=True)


def rows_to_csv(rows: Sequence[Any], columns: Optional[Sequence[str]] = None) -> str:
    """Serialise rows to CSV.

    ``columns`` fixes the column set and order; by default the union of
    all row keys is used, in first-seen order.
    """
    normalised = [_normalise_row(row) for row in rows]
    if columns is None:
        columns = []
        for row in normalised:
            for key in row:
                if key not in columns:
                    columns.append(key)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(columns), extrasaction="ignore")
    writer.writeheader()
    for row in normalised:
        writer.writerow(
            {key: _flatten_for_csv(row.get(key, "")) for key in columns}
        )
    return buffer.getvalue()


def _flatten_for_csv(value: Any) -> Any:
    value = normalise_value(value)
    if isinstance(value, (list, dict)):
        return json.dumps(value, sort_keys=True)
    return value


def write_rows(
    path: str,
    rows: Sequence[Any],
    columns: Optional[Sequence[str]] = None,
) -> None:
    """Write rows to ``path``; the extension selects CSV or JSON."""
    if path.endswith(".json"):
        text = rows_to_json(rows)
    elif path.endswith(".csv"):
        text = rows_to_csv(rows, columns=columns)
    else:
        raise ReproError("unsupported export extension for %r" % path)
    with open(path, "w") as handle:
        handle.write(text)
