"""Resumable design-space sweeps with a content-addressed result store.

The paper's evaluation samples a handful of (protocol, m, BER) points;
this package turns that sample into a *service*: a validated
:class:`SweepSpec` names a grid over seven axes (protocol, tolerance
``m``, bit-error rate, bit rate, bus length, payload, node count), each
cell gets a content-addressed key (SHA-256 of its parameters plus the
code-relevant constants — backend, fault universe, chunk partition),
and results land in an append-only JSONL store whose compacted form is
byte-identical for any worker count or interrupt/resume history.
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
    traffic_cell_constants,
    traffic_cell_record,
    traffic_cell_spec,
)
from repro.sweep.run import SweepRunReport, pending_cells, run_sweep, surface_rows
from repro.sweep.spec import (
    PROTOCOLS,
    SweepCell,
    SweepSpec,
    TrafficCell,
    expand_cells,
    expand_traffic_cells,
)
from repro.sweep.store import ResultStore, StoreStatus

__all__ = [
    "PROTOCOLS",
    "ResultStore",
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
    "expand_traffic_cells",
    "pending_cells",
    "run_sweep",
    "surface_rows",
    "traffic_cell_constants",
    "traffic_cell_record",
    "traffic_cell_spec",
]
