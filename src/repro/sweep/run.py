"""The resumable sweep driver: plan, skip, chunk, fan out, persist.

``run_sweep`` is the heart of the service.  Its pipeline:

1. expand the spec into cells (deterministic order),
2. derive each cell's content-addressed key,
3. skip every key the store already holds (the *incremental* half of
   the contract: re-running a completed sweep evaluates nothing),
4. optionally truncate the pending list to a cell budget (how the CI
   integrity check models a run killed mid-grid),
5. group the survivors into chunks sized by each cell's adaptive
   ``chunk_cells`` constant,
6. stream chunk results through :func:`repro.parallel.imap_tasks`,
   appending each chunk to the store the moment it completes — an
   interrupted run keeps everything finished so far,
7. compact the store (sorted by key, deduplicated) so the persisted
   bytes are a pure function of the evaluated cell set — identical for
   any ``jobs``, any backend-induced chunking, any interrupt/resume
   history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro.parallel import imap_tasks
from repro.sweep.cell import (
    cell_constants,
    cell_key,
    cell_record,
    stats_of,
    traffic_cell_constants,
    traffic_cell_record,
)
from repro.sweep.spec import (
    SweepCell,
    SweepSpec,
    expand_cells,
    expand_traffic_cells,
)
from repro.sweep.store import ResultStore


@dataclass
class SweepRunReport:
    """What one ``run_sweep`` call planned, skipped and evaluated."""

    name: str
    backend: str
    jobs: int
    total_cells: int  # cells the spec expands to
    skipped: int  # keys already in the store (plus in-spec duplicates)
    evaluated: int  # cells actually evaluated this run
    deferred: int  # pending cells cut off by the cell budget
    stored: int  # distinct records in the store after compaction
    digest: str  # compacted-store digest after this run
    #: Merged batch-backend provenance counters of this run's cells.
    backend_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        """True when no pending cell was left behind by the budget."""
        return self.deferred == 0

    def summary(self) -> str:
        return (
            "sweep %r [%s, jobs=%d]: %d cells, %d evaluated, "
            "%d skipped, %d deferred, %d stored"
            % (
                self.name,
                self.backend,
                self.jobs,
                self.total_cells,
                self.evaluated,
                self.skipped,
                self.deferred,
                self.stored,
            )
        )


def _keyed_cells(
    spec: SweepSpec, backend: str
) -> List[Tuple[Any, Dict[str, Any], str]]:
    """Expand the spec and attach each cell's constants and key."""
    keyed = []
    if spec.surface == "traffic":
        for cell in expand_traffic_cells(spec):
            constants = traffic_cell_constants(
                cell,
                windows=spec.traffic_windows,
                window_bits=spec.traffic_window_bits,
                seed=spec.traffic_seed,
                backend=backend,
            )
            keyed.append((cell, constants, cell_key(cell, constants)))
        return keyed
    for cell in expand_cells(spec):
        constants = cell_constants(
            cell,
            window=spec.window,
            max_flips=spec.max_flips,
            load=spec.load,
            backend=backend,
        )
        keyed.append((cell, constants, cell_key(cell, constants)))
    return keyed


def pending_cells(
    spec: SweepSpec, store: ResultStore, backend: str = "batch"
) -> Tuple[List[Tuple[SweepCell, Dict[str, Any], str]], int]:
    """The cells still missing from the store, plus the skipped count.

    Preserves the canonical expansion order and drops in-spec
    duplicates (explicit cell lists may repeat a point) along with the
    keys the store already holds.
    """
    existing = store.keys()
    seen = set(existing)
    pending = []
    skipped = 0
    for cell, constants, key in _keyed_cells(spec, backend):
        if key in seen:
            skipped += 1
            continue
        seen.add(key)
        pending.append((cell, constants, key))
    return pending, skipped


def _evaluate_chunk(record, cells) -> List[dict]:
    """Evaluate one chunk of cells into complete store records (keys
    included, so the driver appends them verbatim); one pool task of
    :func:`run_sweep`."""
    return [record(cell) for cell in cells]


def _chunk_tasks(
    pending: List[Tuple[Any, Dict[str, Any], str]],
    spec: SweepSpec,
    backend: str,
) -> List[Any]:
    """Chunk pending cells into tasks, honouring each cell's partition.

    Walks the pending list in order and closes a chunk when it reaches
    its leading cell's ``chunk_cells`` size or the next cell resolves a
    different partition — a pure function of the pending list, so the
    chunking (and the submission order) is identical for any ``jobs``.
    """
    if spec.surface == "traffic":
        record = partial(
            traffic_cell_record,
            windows=spec.traffic_windows,
            window_bits=spec.traffic_window_bits,
            seed=spec.traffic_seed,
            backend=backend,
        )
    else:
        record = partial(
            cell_record,
            window=spec.window,
            max_flips=spec.max_flips,
            load=spec.load,
            backend=backend,
        )
    tasks: List[Any] = []
    current: List[Any] = []
    current_size = 0
    for cell, constants, _ in pending:
        chunk_cells = int(constants["chunk_cells"])
        if current and (chunk_cells != current_size or len(current) >= current_size):
            tasks.append(partial(_evaluate_chunk, record, tuple(current)))
            current = []
        if not current:
            current_size = chunk_cells
        current.append(cell)
    if current:
        tasks.append(partial(_evaluate_chunk, record, tuple(current)))
    return tasks


def run_sweep(
    spec: SweepSpec,
    store: ResultStore,
    jobs: Optional[int] = None,
    backend: str = "batch",
    cell_budget: Optional[int] = None,
    progress=None,
) -> SweepRunReport:
    """Run (or resume) ``spec`` against ``store``; returns the report.

    ``cell_budget`` caps how many cells this call evaluates — the rest
    stay pending for the next call, which is both the integrity
    check's interruption model and a way to drip a huge grid through
    short CI slots.  ``progress`` is an optional callable receiving
    ``(evaluated_so_far, planned)`` after each persisted chunk.
    """
    from repro.parallel.pool import effective_jobs

    pending, skipped = pending_cells(spec, store, backend=backend)
    total = spec.cell_count()
    deferred = 0
    if cell_budget is not None:
        if cell_budget < 0:
            cell_budget = 0
        deferred = max(0, len(pending) - cell_budget)
        pending = pending[:cell_budget]
    evaluated = 0
    stats: Dict[str, int] = {}
    for records in imap_tasks(_chunk_tasks(pending, spec, backend), jobs=jobs):
        store.append(records)
        evaluated += len(records)
        for record in records:
            for key, value in (stats_of(record) or {}).items():
                stats[key] = stats.get(key, 0) + int(value)
        if progress is not None:
            progress(evaluated, len(pending))
    status = store.compact()
    return SweepRunReport(
        name=spec.name,
        backend=backend,
        jobs=effective_jobs(jobs),
        total_cells=total,
        skipped=skipped,
        evaluated=evaluated,
        deferred=deferred,
        stored=status.records,
        digest=status.digest,
        backend_stats=stats,
    )


#: Result fields lifted into a surface row, in column order.
_SURFACE_FIELDS = (
    "tau_data",
    "ber_star",
    "patterns",
    "p_imo",
    "p_double",
    "p_inconsistent",
    "frames_per_hour",
    "imo_per_hour",
    "double_per_hour",
    "eq4_per_frame",
    "eq5_per_frame",
    "eq4_per_hour",
)

#: Result fields of a measured-under-load (traffic-surface) row.
_TRAFFIC_SURFACE_FIELDS = (
    "frames_submitted",
    "delivered",
    "omitted",
    "duplicated",
    "lost",
    "total_bits",
    "bus_load",
    "max_backlog",
    "arbitration_lost",
    "atomic",
)


def surface_rows(store: ResultStore) -> List[Dict[str, Any]]:
    """Flatten the store into probability-surface rows, sorted by key.

    One row per stored cell: the cell coordinates plus either the
    analytic headline probabilities (and the bus feasibility verdict)
    or, for ``surface="traffic"`` records, the measured ledger
    statistics of the steady-state run — the shape plotting scripts
    and the CLI ``export`` action want.
    """
    rows = []
    records = store.records()
    for key in sorted(records):
        record = records[key]
        cell = record.get("cell", {})
        result = record.get("result", {})
        constants = record.get("constants", {})
        row: Dict[str, Any] = {"key": key}
        row.update(cell)
        row["backend"] = constants.get("backend")
        if constants.get("surface") == "traffic":
            row["surface"] = "traffic"
            for name in _TRAFFIC_SURFACE_FIELDS:
                row[name] = result.get(name)
            rows.append(row)
            continue
        row["surface"] = "analytic"
        for name in _SURFACE_FIELDS:
            row[name] = result.get(name)
        bus = result.get("bus") or {}
        row["bus_feasible"] = bus.get("feasible")
        row["max_bus_length_m"] = bus.get("max_bus_length_m")
        rows.append(row)
    return rows
