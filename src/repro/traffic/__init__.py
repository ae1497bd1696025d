"""Steady-state multi-frame traffic runs (ROADMAP direction 1).

Sharded, deterministic, replayable traffic: a :class:`TrafficSpec`
names the workload (periodic or Poisson submissions, which
:func:`build_schedule` lays out), the window partition and the
sustained fault regime; :func:`run_traffic` executes it over
``repro.parallel`` with bit-identical results for any ``--jobs``;
``record_traffic`` serialises the run as a schema-v2 trace the
tracestore replays and diffs like the golden corpus.
"""

from repro._namespace import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "batch": ("run_window_batch",),
        "recording": (
            "frame_verdict_record", "record_traffic", "submission_record", "traffic_records",
            "traffic_verdict_record",
        ),
        "run": (
            "MessageVerdict", "TrafficOutcome", "TrafficStats", "run_traffic", "run_window",
            "splice_windows",
        ),
        "schedule": ("build_schedule", "traffic_seed_tree"),
        "spec": (
            "CAN_SEQ_CAP", "HLP_SEQ_CAP", "ID_BASE", "SOURCES", "TRAFFIC_SCHEMA_VERSION",
            "BurstSpec", "Submission", "TrafficSpec",
        ),
        "window": ("WindowResult",),
    },
)
