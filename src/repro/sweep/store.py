"""The append-only, content-addressed sweep result store.

Layout of a store directory::

    <root>/results.jsonl   append-only log of newly evaluated cells
    <root>/store.jsonl     compacted store: one record per key, sorted
    <root>/index.json      record count + SHA-256 digest of store.jsonl

Every line is emitted with :func:`repro.metrics.export.json_line`
(sorted keys, minimal separators), records compact *sorted by key*, and
duplicate keys collapse to one record — so the compacted store is a
pure function of the set of evaluated cells.  Interrupted runs leave a
valid log (records are flushed line by line, and a torn final line is
dropped on read and cut off before the next append); resuming appends
only the missing keys; compaction copies lines verbatim, parsing them
only for their keys; and a ``--jobs N`` run compacts to the exact bytes
of a ``--jobs 1`` run, which
``tests/test_sweep.py::TestRunSweep::test_interrupted_resume_across_jobs_is_byte_identical``
enforces.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Set, Tuple

from repro.errors import ReproError
from repro.metrics.export import json_line

LOG_NAME = "results.jsonl"
COMPACT_NAME = "store.jsonl"
INDEX_NAME = "index.json"


@dataclass(frozen=True)
class StoreStatus:
    """Summary of a store directory's contents."""

    records: int  # distinct keys across log + compacted store
    log_records: int  # raw (pre-dedup) lines still in the log
    compacted_records: int  # records in store.jsonl
    digest: str  # SHA-256 of store.jsonl ("" when absent)

    def summary(self) -> str:
        return (
            "%d cells stored (%d compacted, %d pending in log) digest=%s"
            % (
                self.records,
                self.compacted_records,
                self.log_records,
                self.digest[:12] if self.digest else "-",
            )
        )


class ResultStore:
    """Append-only JSONL result store with deterministic compaction."""

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    @property
    def log_path(self) -> str:
        return os.path.join(self.root, LOG_NAME)

    @property
    def compacted_path(self) -> str:
        return os.path.join(self.root, COMPACT_NAME)

    @property
    def index_path(self) -> str:
        return os.path.join(self.root, INDEX_NAME)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def _lines(self, path: str) -> List[Tuple[int, str]]:
        """``(line number, line)`` per non-blank line of ``path``.

        A run killed mid-:meth:`append` leaves an unterminated final
        log line.  When it does not parse it is dropped, so its cell
        reads as missing and the resumed run evaluates it again; any
        other invalid line still raises in :meth:`_entries`.
        """
        if not os.path.exists(path):
            return []
        with open(path) as handle:
            text = handle.read()
        lines = text.splitlines()
        if path == self.log_path and lines and not text.endswith("\n"):
            if not _parses(lines[-1]):
                lines.pop()
        return [
            (number, line.strip())
            for number, line in enumerate(lines, 1)
            if line.strip()
        ]

    def _entries(self) -> Iterator[Tuple[str, str, Dict[str, Any]]]:
        """``(key, line, record)`` per record line, compacted store first."""
        for path in (self.compacted_path, self.log_path):
            for number, line in self._lines(path):
                try:
                    record = json.loads(line)
                except ValueError as exc:
                    raise ReproError(
                        "invalid JSONL at line %d of %s: %s" % (number, path, exc)
                    )
                key = record.get("key") if isinstance(record, dict) else None
                if not isinstance(key, str) or not key:
                    raise ReproError("store record without a key in %s" % self.root)
                yield key, line, record

    def records(self) -> Dict[str, Dict[str, Any]]:
        """All stored records by key (compacted store first, then log).

        Evaluation is deterministic per key, so a key seen twice maps
        to equal payloads; the first occurrence wins.
        """
        merged: Dict[str, Dict[str, Any]] = {}
        for key, _, record in self._entries():
            merged.setdefault(key, record)
        return merged

    def keys(self) -> Set[str]:
        """The set of cell keys the store already holds."""
        return {key for key, _, _ in self._entries()}

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def append(self, records: Iterable[Dict[str, Any]]) -> int:
        """Append records to the log, flushing line by line.

        The flush-per-record discipline is what makes interruption
        safe: a killed run leaves every completed cell on disk as a
        complete JSON line, plus at most one torn final line, which
        :meth:`_lines` drops and this method cuts off before writing.
        """
        self._mend_log()
        count = 0
        with open(self.log_path, "a") as handle:
            for record in records:
                if not record.get("key"):
                    raise ReproError("refusing to append a record without a key")
                handle.write(json_line(record) + "\n")
                handle.flush()
                count += 1
        return count

    def _mend_log(self) -> None:
        """End the log on a line boundary before appending to it.

        An unterminated final line that parses gets its newline; one
        that does not is a torn append and is cut off.
        """
        if not os.path.exists(self.log_path):
            return
        with open(self.log_path, "rb+") as handle:
            if handle.seek(0, os.SEEK_END) == 0:
                return
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) == b"\n":
                return
            handle.seek(0)
            data = handle.read()
            start = data.rfind(b"\n") + 1
            if _parses(data[start:].decode("utf-8", "replace")):
                handle.write(b"\n")
            else:
                handle.truncate(start)

    def compact(self) -> StoreStatus:
        """Fold the log into the sorted, deduplicated compacted store.

        Every line of the log and of ``store.jsonl`` is
        :func:`repro.metrics.export.json_line` output, which is a fixed
        point of parse-then-serialise, so the merge copies lines
        verbatim and parses them only for their keys.  Writes
        ``store.jsonl`` atomically (temp file + rename), then the
        index, then removes the log — in that order, so a crash
        between steps never loses records (the log is only dropped once
        its content is safely in the compacted file).  The output bytes
        depend only on the set of stored keys.
        """
        merged: Dict[str, str] = {}
        for key, line, _ in self._entries():
            merged.setdefault(key, line)
        body = "".join(merged[key] + "\n" for key in sorted(merged))
        tmp_path = self.compacted_path + ".tmp"
        with open(tmp_path, "w") as handle:
            handle.write(body)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self.compacted_path)
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
        index = {"records": len(merged), "digest": digest}
        index_tmp = self.index_path + ".tmp"
        with open(index_tmp, "w") as handle:
            handle.write(json.dumps(index, sort_keys=True, indent=2) + "\n")
        os.replace(index_tmp, self.index_path)
        if os.path.exists(self.log_path):
            os.remove(self.log_path)
        return StoreStatus(
            records=len(merged),
            log_records=0,
            compacted_records=len(merged),
            digest=digest,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def compacted_bytes(self) -> bytes:
        """Raw bytes of the compacted store (b"" when never compacted)."""
        if not os.path.exists(self.compacted_path):
            return b""
        with open(self.compacted_path, "rb") as handle:
            return handle.read()

    def status(self) -> StoreStatus:
        body = self.compacted_bytes()
        return StoreStatus(
            records=len(self.keys()),
            log_records=len(self._lines(self.log_path)),
            compacted_records=len(self._lines(self.compacted_path)),
            digest=hashlib.sha256(body).hexdigest() if body else "",
        )


def _parses(line: str) -> bool:
    """True when ``line`` is one complete JSON value."""
    try:
        json.loads(line)
    except ValueError:
        return False
    return True
