"""Tests for the trace store: schema, capture, replay, and corpus.

The determinism contract under test: a recording replays bit-identically
(same bus string, same events, same verdict) on a fresh engine built
purely from the manifest — and a deliberate controller tweak surfaces as
a structured diff, never as silent acceptance.
"""

import os

import pytest

from repro.can.bits import DOMINANT
from repro.can.controller import CanController
from repro.can.fields import EOF
from repro.can.frame import data_frame
from repro.errors import TraceError, TraceStoreError
from repro.faults.injector import ScriptedInjector, Trigger, ViewFault
from repro.tracestore import (
    GOLDEN_BUILDERS,
    RecordedTrace,
    ScenarioSpec,
    check_corpus,
    corpus_entries,
    diff_traces,
    load_trace,
    record_outcome,
    replay_trace,
    spec_from_outcome,
    update_corpus,
)
from repro.tracestore.recorder import outcome_records
from repro.tracestore.schema import SCHEMA_VERSION, require_valid, validate_records

from helpers import run_one_frame

FRAME = data_frame(0x123, b"\x55", message_id="m")
CORPUS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "corpus"
)


def _fig1b_outcome(record_bits=True):
    from repro.faults.scenarios import run_single_frame_scenario

    nodes = [CanController(name) for name in ("tx", "x", "y")]
    injector = ScriptedInjector(
        view_faults=[ViewFault("x", Trigger(field=EOF, index=5), force=DOMINANT)]
    )
    return run_single_frame_scenario(
        "test", nodes, injector, frame=FRAME, record_bits=record_bits
    )


def _recorded(outcome):
    return RecordedTrace.from_records(list(outcome_records(outcome)))


class TestSchemaValidation:
    def _records(self):
        return list(outcome_records(_fig1b_outcome()))

    def test_full_recording_validates(self):
        assert validate_records(self._records()) == []

    def test_manifest_must_come_first(self):
        records = self._records()
        records.append(records.pop(0))
        assert validate_records(records)

    def test_exactly_one_verdict(self):
        records = self._records()
        errors = validate_records(records[:-1])
        assert any("verdict" in error for error in errors)

    def test_bit_times_strictly_increasing(self):
        records = self._records()
        bits = [record for record in records if record["type"] == "bit"]
        bits[5]["t"] = bits[4]["t"]
        assert any("increas" in error for error in validate_records(records))

    def test_bus_levels_restricted_to_symbols(self):
        records = self._records()
        bus = next(record for record in records if record["type"] == "bus")
        bus["levels"] = bus["levels"][:-1] + "x"
        assert validate_records(records)

    def test_require_valid_raises(self):
        with pytest.raises(TraceStoreError):
            require_valid([{"type": "verdict"}], "unit-test")

    def test_schema_version_pinned_in_manifest(self):
        manifest = self._records()[0]
        assert manifest["version"] == SCHEMA_VERSION


# Minimal well-formed lines of both schema versions; each malformed case
# below breaks one rule and pins the validator's exact problem list.
_M1 = {
    "type": "manifest", "version": 1, "name": "t",
    "nodes": [{"name": "tx", "protocol": "can", "m": 5}],
    "frame": {}, "injector": {}, "engine": {},
}
_M2 = {
    "type": "manifest", "version": 2, "kind": "traffic", "name": "t",
    "traffic": {}, "engine": {},
}
_BUS = {"type": "bus", "levels": "drr"}
_EVENT = {"type": "event", "t": 0, "node": "tx", "kind": "k"}
_V1 = {
    "type": "verdict", "deliveries": {}, "crashed": [], "attempts": 1,
    "errors_injected": 0, "consistent": True, "inconsistent_omission": False,
    "double_reception": False,
}
_V2 = {
    "type": "verdict", "frames": 1, "delivered": 1, "duplicated": 0,
    "omitted": 0, "lost": 0, "total_bits": 3, "bus_load": 0.5,
    "max_backlog": 1, "errors_injected": 0, "window_bits": [3],
    "properties": {}, "deliveries": {},
}
_FV = {
    "type": "frame_verdict", "origin": "n0", "seq": 0, "window": 0, "t": 0,
    "status": "delivered", "counts": {}, "first_delivered": 0,
}


def _bit(t):
    return {"type": "bit", "t": t, "bus": "d", "drives": {}, "views": {},
            "pos": {}, "state": {}}


def _sub(t):
    return {"type": "submission", "t": t, "window": 0, "node": "n0", "seq": 0,
            "id": 256, "payload": "", "message_id": "m"}


def _without(record, *keys):
    return {key: value for key, value in record.items() if key not in keys}


def _v1(*lines, **manifest):
    return [dict(_M1, **manifest)] + list(lines)


def _v2(*lines, **manifest):
    return [dict(_M2, **manifest)] + list(lines)


_GOOD_V1 = (_BUS, _bit(0), _bit(1), _EVENT, _V1)
_GOOD_V2 = (_sub(0), _sub(0), _BUS, _EVENT, _FV, _V2)
_V1_ORDER = "(manifest, bus, bits, events, verdict)"
_V2_ORDER = "(manifest, submissions, bus, events, frame verdicts, verdict)"

_MALFORMED = {
    "empty": ([], ["file is empty (expected a manifest line)"]),
    "v1-manifest-missing-keys": (
        [_without(_M1, "frame", "injector")] + list(_GOOD_V1),
        ["line 1: manifest missing keys ['frame', 'injector']"],
    ),
    "v1-bad-node-entry": (
        _v1(*_GOOD_V1, nodes=[{"name": "tx"}, "x"]),
        ["line 1: malformed node entry {'name': 'tx'}",
         "line 1: malformed node entry 'x'"],
    ),
    "v1-wrong-version": (
        _v1(*_GOOD_V1, version=3),
        ["line 1: unsupported schema version 3 (expected 1)"],
    ),
    "v1-first-line-not-manifest": (
        list(_GOOD_V1),
        ["line 1: first line must be the manifest",
         "expected exactly one bus line, found 0"],
    ),
    "v1-duplicate-manifest": (
        _v1(_M1, *_GOOD_V1), ["line 2: duplicate manifest"],
    ),
    "v1-manifest-after-bus": (
        _v1(_BUS, _M1, *_GOOD_V1[1:]),
        ["line 3: 'manifest' record out of order %s" % _V1_ORDER,
         "line 3: duplicate manifest"],
    ),
    "v1-unknown-type": (
        _v1(_BUS, {"type": "frobnicate"}, _V1),
        ["line 3: unknown record type 'frobnicate'"],
    ),
    "v1-out-of-order": (
        _v1(_BUS, _EVENT, _bit(0), _V1),
        ["line 4: 'bit' record out of order %s" % _V1_ORDER],
    ),
    "v1-bus-not-dr": (
        _v1(dict(_BUS, levels="drx"), _V1),
        ["line 2: bus levels must be a d/r string"],
    ),
    "v1-bus-not-string": (
        _v1(dict(_BUS, levels=3), _V1),
        ["line 2: bus levels must be a d/r string"],
    ),
    "v1-no-bus": (_v1(_EVENT, _V1), ["expected exactly one bus line, found 0"]),
    "v1-two-buses": (_v1(_BUS, _BUS, _V1), ["expected exactly one bus line, found 2"]),
    "v1-no-verdict": (
        _v1(_BUS, _EVENT), ["expected exactly one verdict line, found 0"],
    ),
    "v1-two-verdicts": (
        _v1(_BUS, _V1, _V1), ["expected exactly one verdict line, found 2"],
    ),
    "v1-bit-time-repeats": (
        _v1(_BUS, _bit(0), _bit(0), _bit(1), _V1),
        ["line 4: bit times must increase strictly"],
    ),
    "v1-bit-time-decreases": (
        _v1(_BUS, _bit(2), _bit(1), _bit(3), _V1),
        ["line 4: bit times must increase strictly"],
    ),
    "v1-bit-time-not-integer": (
        _v1(_BUS, _bit(0), _bit("1"), _without(_bit(2), "t"), _V1),
        ["line 4: bit record needs an integer 't'",
         "line 5: bit record needs an integer 't'"],
    ),
    "v1-bit-missing-fields": (
        _v1(_BUS, _without(_bit(0), "views", "state"), _V1),
        ["line 3: bit record missing 'views'", "line 3: bit record missing 'state'"],
    ),
    "v1-event-missing-fields": (
        _v1(_BUS, _without(_EVENT, "node", "t"), _V1),
        ["line 3: event missing 't'", "line 3: event missing 'node'"],
    ),
    "v1-verdict-missing-keys": (
        _v1(_BUS, _without(_V1, "crashed", "consistent")),
        ["line 3: verdict missing keys ['consistent', 'crashed']"],
    ),
    "v2-manifest-missing-keys": (
        [_without(_M2, "traffic", "engine")] + list(_GOOD_V2),
        ["line 1: manifest missing keys ['engine', 'traffic']"],
    ),
    "v2-wrong-kind": (
        _v2(*_GOOD_V2, kind="batch"),
        ["line 1: v2 manifest kind must be 'traffic', got 'batch'"],
    ),
    "v2-no-kind": (
        [_without(_M2, "kind")] + list(_GOOD_V2),
        ["line 1: manifest missing keys ['kind']",
         "line 1: v2 manifest kind must be 'traffic', got None"],
    ),
    "v2-first-line-not-manifest": (
        list(_GOOD_V2),
        ["line 1: first line must be the manifest",
         "line 2: unknown record type 'submission'",
         "line 5: unknown record type 'frame_verdict'",
         "line 6: verdict missing keys ['attempts', 'consistent', 'crashed', "
         "'double_reception', 'inconsistent_omission']"],
    ),
    "v2-duplicate-manifest": (
        _v2(*_GOOD_V2[:3], _M2, *_GOOD_V2[3:]),
        ["line 5: 'manifest' record out of order %s" % _V2_ORDER,
         "line 5: duplicate manifest"],
    ),
    "v2-unknown-type": (
        _v2(_BUS, _bit(0), _V2), ["line 3: unknown record type 'bit'"],
    ),
    "v2-out-of-order": (
        _v2(_BUS, _sub(0), _V2, _FV),
        ["line 3: 'submission' record out of order %s" % _V2_ORDER,
         "line 5: 'frame_verdict' record out of order %s" % _V2_ORDER],
    ),
    "v2-bus-not-dr": (
        _v2(dict(_BUS, levels="dr "), _V2),
        ["line 2: bus levels must be a d/r string"],
    ),
    "v2-no-bus": (_v2(_sub(0), _V2), ["expected exactly one bus line, found 0"]),
    "v2-two-buses": (_v2(_BUS, _BUS, _V2), ["expected exactly one bus line, found 2"]),
    "v2-no-verdict": (_v2(_BUS, _FV), ["expected exactly one verdict line, found 0"]),
    "v2-two-verdicts": (
        _v2(_BUS, _V2, _V2), ["expected exactly one verdict line, found 2"],
    ),
    "v2-event-missing-field": (
        _v2(_BUS, _without(_EVENT, "kind"), _V2), ["line 3: event missing 'kind'"],
    ),
    "v2-verdict-missing-keys": (
        _v2(_BUS, _without(_V2, "properties", "bus_load")),
        ["line 3: verdict missing keys ['bus_load', 'properties']"],
    ),
    "v2-submission-missing-keys": (
        _v2(_without(_sub(0), "payload", "seq"), _BUS, _V2),
        ["line 2: submission missing keys ['payload', 'seq']"],
    ),
    "v2-submission-time-not-integer": (
        _v2(_sub(1.5), _without(_sub(0), "t"), _BUS, _V2),
        ["line 2: submission needs an integer 't'",
         "line 3: submission missing keys ['t']",
         "line 3: submission needs an integer 't'"],
    ),
    "v2-submission-time-decreases": (
        _v2(_sub(5), _sub(5), _sub(4), _sub(6), _BUS, _V2),
        ["line 4: submission times must not decrease"],
    ),
    "v2-frame-verdict-missing-keys": (
        _v2(_BUS, _without(_FV, "counts", "origin"), _V2),
        ["line 3: frame verdict missing keys ['counts', 'origin']"],
    ),
    "v2-frame-verdict-unknown-status": (
        _v2(_BUS, dict(_FV, status="garbled"), _without(_FV, "status"), _V2),
        ["line 3: unknown frame status 'garbled'",
         "line 4: frame verdict missing keys ['status']",
         "line 4: unknown frame status None"],
    ),
    # Lines that are not JSON objects, and unhashable values where a
    # line type or a frame status belongs, are problems too.
    "v1-lines-not-objects": (
        _v1(_BUS, [1, 2], 7, "bus", None, _V1),
        ["line 3: not a JSON object: [1, 2]",
         "line 4: not a JSON object: 7",
         "line 5: not a JSON object: 'bus'",
         "line 6: not a JSON object: None"],
    ),
    "manifest-not-an-object": (
        [["manifest"], _BUS, _V1], ["line 1: first line must be the manifest"],
    ),
    "v1-type-not-a-string": (
        _v1(_BUS, dict(_EVENT, type=["event"]), dict(_EVENT, type={"a": 1}), _V1),
        ["line 3: unknown record type ['event']",
         "line 4: unknown record type {'a': 1}"],
    ),
    "v1-nodes-not-a-list": (
        _v1(*_GOOD_V1, nodes=3), ["line 1: nodes must be a list, got 3"],
    ),
    "v2-frame-status-not-a-string": (
        _v2(_BUS, dict(_FV, status=["delivered"]), dict(_FV, status={"lost": 1}), _V2),
        ["line 3: unknown frame status ['delivered']",
         "line 4: unknown frame status {'lost': 1}"],
    ),
    # Recordings are written uncompressed; a manifest naming any
    # compression is rejected, whichever version it claims.
    "v1-compression-rle": (
        _v1(*_GOOD_V1, compression="rle"),
        ["line 1: unsupported trace compression 'rle' (recordings are uncompressed)"],
    ),
    "v2-compression-rle": (
        _v2(*_GOOD_V2, compression="rle"),
        ["line 1: unsupported trace compression 'rle' (recordings are uncompressed)"],
    ),
}


class TestValidatorProblems:
    def test_well_formed_layouts_validate(self):
        assert validate_records(_v1(*_GOOD_V1)) == []
        assert validate_records(_v2(*_GOOD_V2)) == []

    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_exact_problem_list(self, case):
        records, expected = _MALFORMED[case]
        assert validate_records(records) == expected

    @pytest.mark.parametrize(
        "line", ["[1, 2]", "7", '"bus"', '{"type": ["event"]}', '{"type": "bus"', "\xff"]
    )
    def test_malformed_line_fails_to_load(self, tmp_path, line):
        # Not an object, an unhashable type, cut-off JSON, bytes that
        # are not UTF-8: each is a TraceStoreError, never another type.
        from repro.metrics.export import write_jsonl

        path = tmp_path / "bad.jsonl"
        write_jsonl(str(path), _v1(*_GOOD_V1))
        lines = path.read_bytes().splitlines()
        lines.insert(2, line.encode("latin-1"))
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(TraceStoreError):
            load_trace(str(path))

    def test_compressed_manifest_fails_to_load(self, tmp_path):
        from repro.metrics.export import write_jsonl

        path = str(tmp_path / "packed.jsonl")
        write_jsonl(path, _v1(*_GOOD_V1, compression="rle"))
        with pytest.raises(TraceStoreError, match="'rle'"):
            load_trace(path)


class TestRecordRoundTrip:
    def test_record_then_load(self, tmp_path):
        outcome = _fig1b_outcome()
        path = record_outcome(str(tmp_path / "fig1b.jsonl"), outcome)
        recorded = load_trace(path)
        assert recorded.name == "test"
        assert recorded.manifest["engine"]["record_bits"] is True
        assert recorded.bus == "".join(
            level.symbol for level in outcome.engine.bus.history
        )
        assert len(recorded.bits) == len(outcome.trace.bits)
        assert len(recorded.events) == len(outcome.trace.events)
        assert recorded.verdict["double_reception"] is True

    def test_fast_path_run_records_without_bit_lines(self, tmp_path):
        outcome = _fig1b_outcome(record_bits=False)
        path = record_outcome(str(tmp_path / "fast.jsonl"), outcome)
        recorded = load_trace(path)
        assert recorded.bits == []
        assert recorded.manifest["engine"]["record_bits"] is False
        assert len(recorded.bus) == outcome.engine.time

    def test_recording_is_deterministic(self, tmp_path):
        first = record_outcome(str(tmp_path / "a.jsonl"), _fig1b_outcome())
        second = record_outcome(str(tmp_path / "b.jsonl"), _fig1b_outcome())
        with open(first) as fa, open(second) as fb:
            assert fa.read() == fb.read()

    def test_spec_round_trips_through_manifest(self):
        spec = spec_from_outcome(_fig1b_outcome())
        rebuilt = ScenarioSpec.from_manifest(spec.to_manifest())
        assert rebuilt == spec

    def test_unserializable_injector_rejected(self):
        from repro.faults.injector import FaultInjector

        nodes = [CanController(name) for name in ("tx", "x")]
        outcome = run_one_frame(nodes, FRAME, FaultInjector())
        with pytest.raises(TraceStoreError):
            spec_from_outcome(outcome)


class TestReplay:
    def test_replay_is_bit_identical(self, tmp_path):
        path = record_outcome(str(tmp_path / "fig1b.jsonl"), _fig1b_outcome())
        result = replay_trace(path)
        assert result.bit_identical
        assert result.diff.identical

    def test_replay_fast_path_recording(self, tmp_path):
        outcome = _fig1b_outcome(record_bits=False)
        path = record_outcome(str(tmp_path / "fast.jsonl"), outcome)
        assert replay_trace(path).bit_identical

    def test_replayer_accepts_recorded_trace(self):
        result = replay_trace(_recorded(_fig1b_outcome()))
        assert result.bit_identical

    def test_controller_tweak_caught_as_diff(self, tmp_path, monkeypatch):
        """A deliberate behaviour change (a MajorCAN_4 controller, whose
        EOF is 8 bits, in place of each CAN one) must show up as a
        structured bus/verdict diff on replay."""
        from repro.faults import scenarios

        path = record_outcome(str(tmp_path / "fig1b.jsonl"), _fig1b_outcome())
        original = scenarios.make_controller

        def tweaked(protocol, name, m=5, config=None):
            if protocol == "can" and config is None:
                return original("majorcan", name, m=4)
            return original(protocol, name, m=m, config=config)

        monkeypatch.setattr(scenarios, "make_controller", tweaked)
        result = replay_trace(path)
        assert not result.bit_identical
        assert result.diff.bus
        assert "bus" in result.diff.summary()

    def test_unknown_schema_version_rejected(self, tmp_path):
        path = record_outcome(str(tmp_path / "fig1b.jsonl"), _fig1b_outcome())
        recorded = load_trace(path)
        recorded.manifest["version"] = 99
        with pytest.raises(TraceStoreError):
            recorded.spec()


class TestDiff:
    def test_identical_traces_have_empty_diff(self):
        outcome = _fig1b_outcome()
        recorded = _recorded(outcome)
        diff = diff_traces(recorded, recorded)
        assert diff.identical
        assert diff.problems() == []

    def test_bus_divergence_reports_position_and_context(self):
        outcome = _fig1b_outcome()
        expected = _recorded(outcome)
        actual = _recorded(outcome)
        levels = actual.bus
        actual.bus = levels[:40] + ("d" if levels[40] == "r" else "r") + levels[41:]
        diff = diff_traces(expected, actual)
        assert not diff.identical
        assert any("bit 40" in line for line in diff.bus)

    def test_verdict_divergence_reported_by_key(self):
        outcome = _fig1b_outcome()
        expected = _recorded(outcome)
        actual = _recorded(outcome)
        actual.verdict["double_reception"] = False
        diff = diff_traces(expected, actual)
        assert not diff.identical
        assert any("double_reception" in line for line in diff.verdict)


class TestCheckedInCorpus:
    """The repo's own golden corpus is complete, valid, and replayable."""

    def test_every_golden_entry_is_checked_in(self):
        present = {
            name
            for name in os.listdir(CORPUS_DIR)
            if name.endswith(".jsonl")
        }
        assert {name + ".jsonl" for name in corpus_entries()} <= present

    def test_core_figures_covered_for_all_protocols(self):
        names = set(corpus_entries())
        assert {"fig1b-can", "fig1b-minorcan", "fig1b-majorcan"} <= names
        assert {"fig1c-can", "fig1c-minorcan", "fig1c-majorcan"} <= names
        assert {"fig3a-can", "fig3b-minorcan", "fig3-majorcan"} <= names

    def test_checked_in_files_validate_against_schema(self):
        for name in corpus_entries():
            recorded = load_trace(os.path.join(CORPUS_DIR, name + ".jsonl"))
            assert recorded.manifest["meta"]["entry"] == name

    def test_corpus_check_passes_and_is_jobs_invariant(self):
        serial = check_corpus(CORPUS_DIR, jobs=1)
        parallel = check_corpus(CORPUS_DIR, jobs=2)
        assert serial.ok, serial.summary()
        assert serial.results == parallel.results

    def test_missing_golden_entry_is_a_failure(self, tmp_path):
        update_corpus(str(tmp_path), names=["fig1b-can"])
        report = check_corpus(str(tmp_path), jobs=1)
        assert not report.ok
        missing = {result.entry for result in report.failures}
        assert "fig1c-majorcan" in missing

    def test_update_rejects_unknown_entry(self, tmp_path):
        with pytest.raises(TraceStoreError):
            update_corpus(str(tmp_path), names=["not-a-scenario"])

    def test_corrupted_entry_fails_check(self, tmp_path):
        update_corpus(str(tmp_path), names=["fig1b-can"])
        path = os.path.join(str(tmp_path), "fig1b-can.jsonl")
        with open(path) as handle:
            lines = handle.readlines()
        with open(path, "w") as handle:
            handle.writelines(lines[:-1])  # drop the verdict line
        report = check_corpus(str(tmp_path), jobs=1, require_golden=False)
        assert not report.ok
        assert report.failures[0].entry == "fig1b-can"

    def test_golden_builders_reproduce_their_recordings(self):
        """Spot-check: re-running a builder gives the recorded wire."""
        outcome = GOLDEN_BUILDERS["fig1b-can"]()
        recorded = load_trace(os.path.join(CORPUS_DIR, "fig1b-can.jsonl"))
        assert recorded.bus == "".join(
            level.symbol for level in outcome.engine.bus.history
        )


class TestTraceSortedPrecondition:
    def test_add_events_rejects_unsorted_trace(self):
        from repro.simulation.trace import Event, Trace

        trace = Trace()
        trace.events = [
            Event(time=5, node="a", kind="k", data={}),
            Event(time=3, node="a", kind="k", data={}),
        ]
        with pytest.raises(TraceError):
            trace.add_events([Event(time=1, node="b", kind="k", data={})])


class TestSharedJsonlHelpers:
    def test_json_line_is_deterministic(self):
        from repro.metrics.export import json_line

        assert json_line({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_write_then_read_round_trip(self, tmp_path):
        from repro.metrics.export import read_jsonl, write_jsonl

        path = str(tmp_path / "records.jsonl")
        records = [{"a": 1}, {"b": [1, 2]}]
        assert write_jsonl(path, records) == 2
        assert read_jsonl(path) == records

    def test_read_rejects_garbage_lines(self, tmp_path):
        from repro.errors import ReproError
        from repro.metrics.export import read_jsonl

        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok":1}\nnot json\n')
        with pytest.raises(ReproError):
            read_jsonl(str(path))
