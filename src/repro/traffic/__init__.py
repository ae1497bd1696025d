"""Steady-state multi-frame traffic runs (ROADMAP direction 1).

Sharded, deterministic, replayable traffic: a :class:`TrafficSpec`
names the workload (``repro.workload`` generators), the window
partition and the sustained fault regime; :func:`run_traffic` executes
it over ``repro.parallel`` with bit-identical results for any
``--jobs``; ``record_traffic`` serialises the run as a schema-v2 trace
the tracestore replays and diffs like the golden corpus.
"""

from repro.traffic.batch import run_window_batch
from repro.traffic.recording import (
    frame_verdict_record,
    record_traffic,
    recorded_traffic,
    submission_record,
    traffic_records,
    traffic_verdict_record,
)
from repro.traffic.run import (
    MessageVerdict,
    TrafficOutcome,
    TrafficStats,
    WindowResult,
    run_traffic,
    run_window,
    splice_windows,
)
from repro.traffic.schedule import build_schedule, traffic_seed_tree
from repro.traffic.spec import (
    CAN_SEQ_CAP,
    HLP_SEQ_CAP,
    ID_BASE,
    TRAFFIC_SCHEMA_VERSION,
    BurstSpec,
    Submission,
    TrafficSpec,
)

__all__ = [
    "BurstSpec",
    "CAN_SEQ_CAP",
    "HLP_SEQ_CAP",
    "ID_BASE",
    "MessageVerdict",
    "Submission",
    "TRAFFIC_SCHEMA_VERSION",
    "TrafficOutcome",
    "TrafficSpec",
    "TrafficStats",
    "WindowResult",
    "build_schedule",
    "frame_verdict_record",
    "record_traffic",
    "recorded_traffic",
    "run_traffic",
    "run_window",
    "run_window_batch",
    "splice_windows",
    "submission_record",
    "traffic_records",
    "traffic_seed_tree",
    "traffic_verdict_record",
]
