"""The append-only, content-addressed sweep result store.

Layout of a store directory::

    <root>/results.jsonl   append-only log of newly evaluated cells
    <root>/store.jsonl     compacted store: one record per key, sorted
    <root>/index.json      record count + SHA-256 digest of store.jsonl
    <root>/lock            PID of the run writing the store (while it runs)

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

Every read checks ``store.jsonl`` against the digest in ``index.json``.
A match vouches for the compacted lines, so their keys are read off
the line heads instead of parsing each line; a mismatch with a log
present is the window between writing ``store.jsonl`` and its index,
read by parsing every line; a mismatch with no log is a store changed
after compaction, and raises.  :meth:`ResultStore.locked` is the
writer lock a sweep run holds.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.errors import ReproError
from repro.metrics.export import json_line

LOG_NAME = "results.jsonl"
COMPACT_NAME = "store.jsonl"
INDEX_NAME = "index.json"
LOCK_NAME = "lock"

#: The head of a sweep record line as :func:`json_line` writes it: the
#: flat ``cell`` and ``constants`` objects, then the key.  The pattern
#: admits no brace inside either object and ``json_line`` escapes every
#: quote inside a string, so a match ends at the record's own key.
_RECORD_HEAD = re.compile(
    r'\{"cell":\{[^{}]*\},"constants":\{[^{}]*\},"key":"([^"\\]+)"'
)


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

    @property
    def lock_path(self) -> str:
        return os.path.join(self.root, LOCK_NAME)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def _log_lines(self) -> List[Tuple[int, str]]:
        """``(line number, line)`` per non-blank line of the log.

        A run killed mid-:meth:`append` leaves an unterminated final
        log line.  When it does not parse it is dropped, so its cell
        reads as missing and the resumed run evaluates it again; any
        other invalid line still raises in :meth:`_entries`.
        """
        if not os.path.exists(self.log_path):
            return []
        with open(self.log_path) as handle:
            text = handle.read()
        lines = text.splitlines()
        if lines and not text.endswith("\n") and not _parses(lines[-1]):
            lines.pop()
        return _numbered(lines)

    def _compacted_lines(self) -> Tuple[List[Tuple[int, str]], bool]:
        """The numbered lines of ``store.jsonl``, and whether the index
        vouches for them.

        The index vouches when the file's SHA-256 is the digest
        ``index.json`` records: the file is then exactly what
        :meth:`compact` wrote.  Without an index, or with a stale one
        while a log is present (a run killed between writing
        ``store.jsonl`` and its index), the lines are read unvouched.
        A digest mismatch with no log means the compacted bytes were
        changed after compaction, and raises :class:`ReproError`.
        """
        body = self.compacted_bytes()
        expected = _indexed_digest(self.index_path)
        if expected is None:
            vouched = False
        else:
            found = hashlib.sha256(body).hexdigest()
            vouched = found == expected
            if not vouched and not os.path.exists(self.log_path):
                raise ReproError(
                    "%s does not match its index: SHA-256 %s, but %s records "
                    "digest %s" % (self.compacted_path, found, self.index_path, expected)
                )
        return _numbered(body.decode("utf-8").splitlines()), vouched

    def _entries(self) -> Iterator[Tuple[str, str, Optional[Dict[str, Any]]]]:
        """``(key, line, record)`` per record line, compacted store first.

        A vouched ``store.jsonl`` line in the shape of a sweep record
        has its key read off the line head (:data:`_RECORD_HEAD`) and
        ``None`` for a record; every other line is parsed.
        """
        compacted, vouched = self._compacted_lines()
        sources = (
            (self.compacted_path, compacted, vouched),
            (self.log_path, self._log_lines(), False),
        )
        for path, lines, read_heads in sources:
            for number, line in lines:
                head = _RECORD_HEAD.match(line) if read_heads else None
                if head is not None:
                    yield head.group(1), line, None
                    continue
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
        for key, line, record in self._entries():
            if key not in merged:
                merged[key] = json.loads(line) if record is None else record
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
    # Locking
    # ------------------------------------------------------------------

    @contextmanager
    def locked(self) -> Iterator["ResultStore"]:
        """Hold the store's writer lock for the ``with`` block.

        The lock is ``<root>/lock``, created with ``O_CREAT | O_EXCL``
        and holding the writer's PID.  While that process is alive a
        second writer raises :class:`ReproError` before touching the
        store.  A lock whose process is gone (a killed run), or that
        names no PID, is stale and is taken over.  Readers take no lock.
        """
        for _ in range(2):
            try:
                fd = os.open(self.lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                holder = self._lock_holder()
                if holder is not None and _alive(holder):
                    raise ReproError(
                        "store %s is locked by running process %d (%s)"
                        % (self.root, holder, self.lock_path)
                    )
                _remove(self.lock_path)
                continue
            with os.fdopen(fd, "w") as handle:
                handle.write("%d\n" % os.getpid())
            break
        else:
            raise ReproError("could not take the store lock %s" % self.lock_path)
        try:
            yield self
        finally:
            if self._lock_holder() == os.getpid():
                _remove(self.lock_path)

    def _lock_holder(self) -> Optional[int]:
        """The PID in the lock file (``None`` when absent or unreadable)."""
        try:
            with open(self.lock_path) as handle:
                return int(handle.read().strip())
        except (OSError, ValueError):
            return None

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
            log_records=len(self._log_lines()),
            compacted_records=len(self._compacted_lines()[0]),
            digest=hashlib.sha256(body).hexdigest() if body else "",
        )


def _numbered(lines: List[str]) -> List[Tuple[int, str]]:
    """``(line number, stripped line)`` per non-blank line."""
    return [
        (number, line.strip()) for number, line in enumerate(lines, 1) if line.strip()
    ]


def _indexed_digest(path: str) -> Optional[str]:
    """The ``digest`` that ``index.json`` at ``path`` records ("" when
    it is unreadable), or ``None`` when there is no index."""
    try:
        with open(path) as handle:
            index = json.loads(handle.read())
    except FileNotFoundError:
        return None
    except ValueError:
        return ""
    digest = index.get("digest") if isinstance(index, dict) else None
    return digest if isinstance(digest, str) else ""


def _alive(pid: int) -> bool:
    """True when a process ``pid`` exists (signal 0 probes, sends nothing)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # alive, owned by another user
        return True
    return True


def _remove(path: str) -> None:
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


def _parses(line: str) -> bool:
    """True when ``line`` is one complete JSON value."""
    try:
        json.loads(line)
    except ValueError:
        return False
    return True
