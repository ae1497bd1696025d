"""Persistent trace capture, deterministic replay, and the golden corpus.

The trace store turns in-memory simulation runs into durable,
replayable artifacts:

``repro.tracestore.schema``
    The versioned JSONL recording format: one layout table with a row
    per schema version, and the one validator that walks it.

``repro.tracestore.spec``
    :class:`ScenarioSpec` — the plain-data description of a scenario
    (nodes, frame, injector script, engine config) that a manifest
    stores and a replay rebuilds.

``repro.tracestore.recorder``
    :func:`outcome_records` — the v1 record generator of a completed
    run — and :func:`record_outcome`, which streams it through
    ``repro.metrics.export.write_jsonl``.  Capture reads the structures
    the engine already maintains, so the ``record_bits=False`` fast
    path is untouched.

``repro.tracestore.replay``
    :func:`replay_trace` — rebuild the run from a manifest, re-run it,
    re-emit its records, and produce a structured :class:`TraceDiff`
    (bus divergence, per-bit, event and verdict mismatches).

``repro.tracestore.corpus``
    The checked-in golden corpus (Fig. 1b/1c and Fig. 3 across CAN,
    MinorCAN and MajorCAN_m, plus EOF/overload edge cases, plus the
    schema-v2 multi-frame traffic entries) with ``update`` and
    parallel ``check`` operations.

Two schema versions coexist: v1 single-frame recordings
(:data:`SCHEMA_VERSION`) and v2 multi-frame traffic recordings
(:data:`TRAFFIC_SCHEMA_VERSION`, written by ``repro.traffic``); the
validator and :func:`replay_trace` dispatch on the manifest's
``version``.

CLI: ``majorcan-repro record | replay | diff | corpus | traffic``.
"""

from repro._namespace import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "corpus": (
            "DEFAULT_CORPUS_DIR", "CorpusCheckResult", "CorpusReport", "GOLDEN_BUILDERS",
            "GOLDEN_TRAFFIC_ENTRIES", "check_corpus", "check_recording", "corpus_entries",
            "update_corpus",
        ),
        "recorder": ("outcome_records", "record_outcome"),
        "replay": (
            "RecordedTrace", "ReplayResult", "TraceDiff", "diff_traces", "load_trace",
            "replay_trace",
        ),
        "schema": ("SCHEMA_VERSION", "TRAFFIC_SCHEMA_VERSION", "require_valid", "validate_records"),
        "spec": ("ScenarioSpec", "frame_from_dict", "frame_to_dict", "spec_from_outcome"),
    },
)
