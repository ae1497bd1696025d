"""Deterministic replay of recorded traces, with structured diffing.

:func:`load_trace` parses and validates a recording; :func:`replay_trace`
rebuilds the run from the manifest (a :class:`ScenarioSpec` for v1, a
``TrafficSpec`` for v2), re-runs it, re-emits its records through the
same generator that wrote the recording, and produces a
:class:`TraceDiff` against the recording.  Replay is fully
deterministic — the scripted scenarios contain no randomness and
the engine is single-threaded — so any non-empty diff is a behavioural
change in the simulator or protocol code, which is exactly what the
golden corpus exists to catch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Union

from repro.errors import ReproError, TraceStoreError
from repro.metrics.export import json_line, read_jsonl
from repro.tracestore.recorder import outcome_records
from repro.tracestore.schema import TRAFFIC_SCHEMA_VERSION, require_valid
from repro.tracestore.spec import ScenarioSpec


@dataclass
class RecordedTrace:
    """A parsed, schema-valid recording, split by record type."""

    manifest: Dict[str, Any]
    bus: str
    bits: List[Dict[str, Any]]
    events: List[Dict[str, Any]]
    verdict: Dict[str, Any]
    source: str = "<memory>"
    #: v2 (traffic) sections; empty on v1 recordings.
    submissions: List[Dict[str, Any]] = field(default_factory=list)
    frame_verdicts: List[Dict[str, Any]] = field(default_factory=list)

    @classmethod
    def from_records(
        cls, records: List[Dict[str, Any]], source: str = "<memory>"
    ) -> "RecordedTrace":
        """Partition a validated record stream into its sections."""
        require_valid(records, source=source)
        manifest = records[0]
        bus = ""
        bits: List[Dict[str, Any]] = []
        events: List[Dict[str, Any]] = []
        verdict: Dict[str, Any] = {}
        submissions: List[Dict[str, Any]] = []
        frame_verdicts: List[Dict[str, Any]] = []
        for record in records[1:]:
            kind = record["type"]
            if kind == "bus":
                bus = record["levels"]
            elif kind == "bit":
                bits.append(record)
            elif kind == "event":
                events.append(record)
            elif kind == "submission":
                submissions.append(record)
            elif kind == "frame_verdict":
                frame_verdicts.append(record)
            elif kind == "verdict":
                verdict = record
        return cls(
            manifest=manifest,
            bus=bus,
            bits=bits,
            events=events,
            verdict=verdict,
            source=source,
            submissions=submissions,
            frame_verdicts=frame_verdicts,
        )

    @property
    def version(self) -> int:
        """The recording's schema version (1 single-frame, 2 traffic)."""
        return self.manifest.get("version", 1)

    def spec(self) -> ScenarioSpec:
        """The rebuildable scenario spec stored in the manifest."""
        return ScenarioSpec.from_manifest(self.manifest)

    def traffic_spec(self):
        """The rebuildable traffic spec of a v2 recording."""
        from repro.traffic import TrafficSpec

        return TrafficSpec.from_manifest(self.manifest)

    @property
    def name(self) -> str:
        """The recorded scenario's name."""
        return self.manifest.get("name", "<unnamed>")


def load_trace(path) -> RecordedTrace:
    """Load and validate one ``.jsonl`` recording from disk."""
    try:
        records = read_jsonl(path)
    except (OSError, ValueError, ReproError) as exc:
        raise TraceStoreError("cannot read recording %s: %s" % (path, exc))
    return RecordedTrace.from_records(records, source=str(path))


# ---------------------------------------------------------------------------
# Diffing
# ---------------------------------------------------------------------------

#: Context radius (bits) shown around a bus divergence.
_BUS_CONTEXT = 12
#: Maximum per-section mismatch lines before truncating.
_MAX_REPORTED = 5


@dataclass
class TraceDiff:
    """Structured difference between two recordings.

    Each section lists human-readable mismatch descriptions; an empty
    diff (``identical`` true) means the two recordings are
    byte-equivalent in every section.
    """

    manifest: List[str] = field(default_factory=list)
    bus: List[str] = field(default_factory=list)
    bits: List[str] = field(default_factory=list)
    events: List[str] = field(default_factory=list)
    verdict: List[str] = field(default_factory=list)
    #: v2 (traffic) sections; always empty when diffing v1 recordings.
    submissions: List[str] = field(default_factory=list)
    frame_verdicts: List[str] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        """Whether no section differs."""
        return not (
            self.manifest
            or self.bus
            or self.bits
            or self.events
            or self.verdict
            or self.submissions
            or self.frame_verdicts
        )

    def problems(self) -> List[str]:
        """All mismatches, prefixed with their section."""
        out: List[str] = []
        for section, entries in (
            ("manifest", self.manifest),
            ("submissions", self.submissions),
            ("bus", self.bus),
            ("bits", self.bits),
            ("events", self.events),
            ("frame_verdicts", self.frame_verdicts),
            ("verdict", self.verdict),
        ):
            out.extend("%s: %s" % (section, entry) for entry in entries)
        return out

    def summary(self) -> str:
        """One human-readable block: 'identical' or the mismatch list."""
        if self.identical:
            return "identical"
        return "\n".join(self.problems())


def _diff_record_lists(
    expected: List[Dict[str, Any]],
    actual: List[Dict[str, Any]],
    label: str,
) -> List[str]:
    problems: List[str] = []
    for index, (want, got) in enumerate(zip(expected, actual)):
        if json_line(want) != json_line(got):
            problems.append(
                "%s %d differs: expected %s, got %s"
                % (label, index, json_line(want), json_line(got))
            )
            if len(problems) >= _MAX_REPORTED:
                problems.append("... (further %s diffs suppressed)" % label)
                break
    if len(expected) != len(actual):
        problems.append(
            "%s count differs: expected %d, got %d"
            % (label, len(expected), len(actual))
        )
    return problems


def _diff_bus(expected: str, actual: str) -> List[str]:
    if expected == actual:
        return []
    divergence = next(
        (i for i, (a, b) in enumerate(zip(expected, actual)) if a != b),
        min(len(expected), len(actual)),
    )
    start = max(0, divergence - _BUS_CONTEXT)
    end = divergence + _BUS_CONTEXT
    problems = [
        "first divergence at bit %d" % divergence,
        "expected ...%s..." % expected[start:end],
        "actual   ...%s..." % actual[start:end],
    ]
    if len(expected) != len(actual):
        problems.append(
            "length differs: expected %d bits, got %d" % (len(expected), len(actual))
        )
    return problems


def diff_traces(expected: RecordedTrace, actual: RecordedTrace) -> TraceDiff:
    """Compare two recordings section by section.

    ``expected`` is the reference (e.g. the checked-in corpus entry),
    ``actual`` the candidate (e.g. a fresh replay).
    """
    diff = TraceDiff()
    if json_line(expected.manifest) != json_line(actual.manifest):
        for key in sorted(set(expected.manifest) | set(actual.manifest)):
            want = expected.manifest.get(key)
            got = actual.manifest.get(key)
            if json_line(want) != json_line(got):
                diff.manifest.append(
                    "%r: expected %s, got %s" % (key, json_line(want), json_line(got))
                )
    diff.bus = _diff_bus(expected.bus, actual.bus)
    diff.bits = _diff_record_lists(expected.bits, actual.bits, "bit")
    diff.events = _diff_record_lists(expected.events, actual.events, "event")
    diff.submissions = _diff_record_lists(
        expected.submissions, actual.submissions, "submission"
    )
    diff.frame_verdicts = _diff_record_lists(
        expected.frame_verdicts, actual.frame_verdicts, "frame verdict"
    )
    if json_line(expected.verdict) != json_line(actual.verdict):
        for key in sorted(set(expected.verdict) | set(actual.verdict)):
            want = expected.verdict.get(key)
            got = actual.verdict.get(key)
            if json_line(want) != json_line(got):
                diff.verdict.append(
                    "%r: expected %s, got %s" % (key, json_line(want), json_line(got))
                )
    return diff


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


@dataclass
class ReplayResult:
    """Outcome of replaying one recording."""

    recorded: RecordedTrace
    replayed: RecordedTrace
    diff: TraceDiff
    outcome: Any = field(repr=False, default=None)

    @property
    def bit_identical(self) -> bool:
        """Whether the replay reproduced the recording exactly."""
        return self.diff.identical


def replay_trace(recording: Union[str, RecordedTrace]) -> ReplayResult:
    """Re-run a recording and diff the re-emitted records against it.

    ``recording`` is a path to a ``.jsonl`` file or a loaded
    :class:`RecordedTrace`.  The replayed records carry the recording's
    ``meta``, so the diff compares scenario substance.  Traffic (v2)
    replays always run ``jobs=1``; the run is jobs-invariant, so a
    recording made with any worker count diffs empty against it.
    """
    recorded = (
        recording if isinstance(recording, RecordedTrace) else load_trace(recording)
    )
    meta = recorded.manifest.get("meta")
    if recorded.version == TRAFFIC_SCHEMA_VERSION:
        from repro.traffic import run_traffic, traffic_records

        outcome = run_traffic(recorded.traffic_spec(), jobs=1)
        records = traffic_records(outcome, meta)
    else:
        spec = recorded.spec()
        outcome = spec.run()
        records = outcome_records(outcome, spec=spec, meta=meta)
    replayed = RecordedTrace.from_records(list(records), source="<replay>")
    return ReplayResult(
        recorded=recorded,
        replayed=replayed,
        diff=diff_traces(recorded, replayed),
        outcome=outcome,
    )
