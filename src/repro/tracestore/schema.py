"""The versioned on-disk trace schema (JSON Lines).

A recording is one ``.jsonl`` file.  Every line is a JSON object with a
``type`` field; the first line is the ``manifest``, whose ``version``
picks the layout of the rest:

* v1 (:data:`SCHEMA_VERSION`), one scripted single-frame run: manifest
  (schema version, scenario name, per-node protocol parameters, frame,
  serialized injector script, engine configuration), exactly one
  ``bus`` line (the resolved ``d``/``r`` level stream, present in
  fast-path recordings too), ``bit`` lines (per-bit observability, only
  when the run recorded bits), ``event`` lines, exactly one ``verdict``;
* v2 (:data:`TRAFFIC_SCHEMA_VERSION`), one multi-frame traffic run
  (``repro.traffic``): manifest, ``submission`` lines, exactly one
  ``bus`` line, ``event`` lines, ``frame_verdict`` lines, exactly one
  ``verdict`` — never any ``bit`` lines.

:data:`LAYOUTS` is the one table of both versions.  Each row holds the
manifest checks (required keys and the version's one extra check),
then the line types in file order with, per type, the name its
section goes by, whether exactly one such line must appear, and the
checks every line of that type must pass.  :func:`validate_records`
is one loop over the row the manifest picks; readers refuse a file of
any other version rather than guessing.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Iterator, List, NamedTuple, Tuple

from repro.errors import TraceStoreError

#: Version stamp written into (and required from) every v1 manifest.
SCHEMA_VERSION = 1

#: Version stamp of multi-frame *traffic* recordings.  v2 is a sibling
#: schema, not a replacement: single-frame recordings keep writing v1.
TRAFFIC_SCHEMA_VERSION = 2

#: Line types.
MANIFEST = "manifest"
BUS = "bus"
BIT = "bit"
EVENT = "event"
VERDICT = "verdict"
SUBMISSION = "submission"
FRAME_VERDICT = "frame_verdict"

#: Allowed per-message statuses in frame-verdict lines.
FRAME_STATUSES = frozenset({"delivered", "duplicated", "omitted", "lost"})

#: One check of one line: yields its problem texts.  The second argument
#: is state shared by the checks of one validation (the last time seen).
Check = Callable[[Dict[str, Any], Dict[str, int]], Iterator[str]]


def _keys(label: str, keys: str) -> Check:
    """One problem naming every required key the line lacks."""
    required = frozenset(keys.split())

    def check(record, _state):
        missing = required - set(record)
        if missing:
            yield "%s missing keys %s" % (label, sorted(missing))

    return check


def _fields(label: str, fields: str) -> Check:
    """One problem per required field the line lacks, in field order."""

    names = fields.split()

    def check(record, _state):
        for name in names:
            if name not in record:
                yield "%s missing %r" % (label, name)

    return check


def _times(label: str, disorder: str, strict: bool) -> Check:
    """An integer ``t`` that increases (``strict``) or never decreases."""

    def check(record, last):
        time = record.get("t")
        if not isinstance(time, int):
            yield "%s needs an integer 't'" % label
        elif label in last and (
            time <= last[label] if strict else time < last[label]
        ):
            yield disorder
        else:
            last[label] = time

    return check


def _version(manifest, _state):
    version = manifest.get("version")
    if version != SCHEMA_VERSION:
        yield "unsupported schema version %r (expected %d)" % (version, SCHEMA_VERSION)


def _node_entries(manifest, _state):
    nodes = manifest.get("nodes", [])
    if not isinstance(nodes, list):
        yield "nodes must be a list, got %r" % (nodes,)
        return
    for node in nodes:
        if not isinstance(node, dict) or {"name", "protocol", "m"} - set(node):
            yield "malformed node entry %r" % (node,)


def _traffic_kind(manifest, _state):
    if manifest.get("kind") != "traffic":
        yield "v2 manifest kind must be 'traffic', got %r" % manifest.get("kind")


def _uncompressed(manifest, _state):
    if manifest.get("compression") is not None:
        yield "unsupported trace compression %r (recordings are uncompressed)" % (
            manifest["compression"],
        )


def _levels(record, _state):
    levels = record.get("levels")
    if not isinstance(levels, str) or set(levels) - {"d", "r"}:
        yield "bus levels must be a d/r string"


def _status(record, _state):
    status = record.get("status")
    if not isinstance(status, str) or status not in FRAME_STATUSES:
        yield "unknown frame status %r" % (status,)


class Section(NamedTuple):
    """One line type of a layout, in file order."""

    kind: str
    #: How the out-of-order problem names this section.
    name: str
    #: Whether exactly one line of this type must appear.
    once: bool
    checks: Tuple[Check, ...]


class Layout(NamedTuple):
    """The line layout of one schema version."""

    manifest: Tuple[Check, ...]
    sections: Tuple[Section, ...]


_BUS = Section(BUS, "bus", True, (_levels,))
_EVENT = Section(EVENT, "events", False, (_fields("event", "t node kind"),))

#: Schema version -> layout.  A manifest of any version but v2 is
#: checked against v1, whose version check then reports it; so only v1
#: checks the version.
LAYOUTS: Dict[int, Layout] = {
    SCHEMA_VERSION: Layout(
        manifest=(
            _keys("manifest", "type version name nodes frame injector engine"),
            _version,
            _node_entries,
            _uncompressed,
        ),
        sections=(
            _BUS,
            Section(BIT, "bits", False, (
                _times("bit record", "bit times must increase strictly", strict=True),
                _fields("bit record", "bus drives views pos state"),
            )),
            _EVENT,
            Section(VERDICT, "verdict", True, (
                _keys("verdict", "type deliveries crashed attempts errors_injected"
                      " consistent inconsistent_omission double_reception"),
            )),
        ),
    ),
    TRAFFIC_SCHEMA_VERSION: Layout(
        manifest=(
            _keys("manifest", "type version kind name traffic engine"),
            _traffic_kind,
            _uncompressed,
        ),
        sections=(
            Section(SUBMISSION, "submissions", False, (
                _keys("submission", "type t window node seq id payload message_id"),
                _times("submission", "submission times must not decrease", strict=False),
            )),
            _BUS,
            _EVENT,
            Section(FRAME_VERDICT, "frame verdicts", False, (
                _keys("frame verdict",
                      "type origin seq window t status counts first_delivered"),
                _status,
            )),
            Section(VERDICT, "verdict", True, (
                _keys("verdict", "type frames delivered duplicated omitted lost"
                      " total_bits bus_load max_backlog errors_injected window_bits"
                      " properties deliveries"),
            )),
        ),
    ),
}


def validate_records(records: Iterable[Dict[str, Any]]) -> List[str]:
    """Check a parsed recording against the schema; return the problems.

    An empty list means the recording is well-formed.  The check covers
    structure only (line order, required keys, value shapes) — replaying
    is how behavioural fidelity is checked.
    """
    records = list(records)
    if not records:
        return ["file is empty (expected a manifest line)"]
    manifest = records[0] if isinstance(records[0], dict) else {}
    layout = LAYOUTS[_version_of(manifest)]
    problems: List[str] = []
    last_time: Dict[str, int] = {}
    if manifest.get("type") != MANIFEST:
        problems.append("line 1: first line must be the manifest")
    else:
        for check in layout.manifest:
            problems.extend("line 1: " + text for text in check(manifest, last_time))

    rank = {MANIFEST: 0}
    rank.update((section.kind, i) for i, section in enumerate(layout.sections, 1))
    checks = {section.kind: section.checks for section in layout.sections}
    order = ", ".join([MANIFEST] + [section.name for section in layout.sections])
    counts = dict.fromkeys(rank, 0)
    stage = 0
    for number, record in enumerate(records[1:], 2):
        if not isinstance(record, dict):
            problems.append("line %d: not a JSON object: %r" % (number, record))
            continue
        kind = record.get("type")
        if not isinstance(kind, str) or kind not in rank:
            problems.append("line %d: unknown record type %r" % (number, kind))
            continue
        if rank[kind] < stage:
            problems.append(
                "line %d: %r record out of order (%s)" % (number, kind, order)
            )
        stage = max(stage, rank[kind])
        if kind == MANIFEST:
            problems.append("line %d: duplicate manifest" % number)
            continue
        counts[kind] += 1
        for check in checks[kind]:
            problems.extend(
                "line %d: %s" % (number, text) for text in check(record, last_time)
            )
    for section in layout.sections:
        if section.once and counts[section.kind] != 1:
            problems.append(
                "expected exactly one %s line, found %d"
                % (section.kind, counts[section.kind])
            )
    return problems


def require_valid(records: Iterable[Dict[str, Any]], source: str = "<trace>") -> None:
    """Raise :class:`TraceStoreError` if ``records`` violate the schema."""
    records = list(records)
    problems = validate_records(records)
    if problems:
        manifest = records[0] if records and isinstance(records[0], dict) else {}
        raise TraceStoreError(
            "%s is not a valid v%d recording:\n  %s"
            % (source, _version_of(manifest), "\n  ".join(problems))
        )


def _version_of(manifest: Dict[str, Any]) -> int:
    """The layout a manifest picks: v2 if it says so, v1 otherwise."""
    if manifest.get("version") == TRAFFIC_SCHEMA_VERSION:
        return TRAFFIC_SCHEMA_VERSION
    return SCHEMA_VERSION
