"""Resumable design-space sweeps with a content-addressed result store.

The paper's evaluation samples a handful of (protocol, m, BER) points;
this package turns that sample into a *service*: a validated
:class:`SweepSpec` names a grid over the axes of one surface in
:data:`SURFACES` — the analytic surface's protocol, tolerance ``m``,
bit-error rate, bit rate, bus length, payload and node count, or the
traffic surface's protocol, ``m``, node count, load, workload source
and view noise.  Each cell gets a content-addressed key (SHA-256 of
its parameters plus the code-relevant constants — backend, the
surface's spec constants, chunk partition), and results land in an
append-only JSONL store whose compacted form is byte-identical for any
worker count or interrupt/resume history.
Re-running a completed sweep evaluates nothing; resuming an interrupted
one evaluates exactly the missing cells.

* :mod:`repro.sweep.spec` — the validated spec and its expansion;
* :mod:`repro.sweep.cell` — cell identity and per-cell evaluation;
* :mod:`repro.sweep.store` — the append-only, compacting result store;
* :mod:`repro.sweep.run` — the resumable driver over
  :mod:`repro.parallel`.

CLI: ``repro sweep plan|run|status|export``; integrity test:
``tests/test_sweep.py::TestRunSweep::test_interrupted_resume_across_jobs_is_byte_identical``.
"""

from repro.sweep.cell import (
    cell_constants,
    cell_key,
    cell_record,
    evaluate_cell,
    evaluate_traffic_cell,
)
from repro.sweep.run import SweepRunReport, pending_cells, run_sweep, surface_rows
from repro.sweep.spec import (
    PROTOCOLS,
    SURFACES,
    SweepCell,
    SweepSpec,
    TrafficCell,
    expand_cells,
)
from repro.sweep.store import ResultStore, StoreStatus

__all__ = [
    "PROTOCOLS",
    "ResultStore",
    "SURFACES",
    "StoreStatus",
    "SweepCell",
    "SweepRunReport",
    "SweepSpec",
    "TrafficCell",
    "cell_constants",
    "cell_key",
    "cell_record",
    "evaluate_cell",
    "evaluate_traffic_cell",
    "expand_cells",
    "pending_cells",
    "run_sweep",
    "surface_rows",
]
