"""The resumable sweep driver: plan, skip, chunk, fan out, persist.

``run_sweep`` is the heart of the service.  Its pipeline:

1. expand the spec into cells (deterministic order),
2. derive each cell's content-addressed key,
3. skip every key the store already holds (the *incremental* half of
   the contract: re-running a completed sweep evaluates nothing),
4. optionally truncate the pending list to a cell budget (how the CI
   integrity check models a run killed mid-grid),
5. group the survivors by each cell's adaptive ``chunk_cells``
   constant and cut each group into chunks of that size,
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

from repro.parallel import imap_tasks, merge_stats
from repro.sweep.cell import cell_key, cell_record, constants_planner, stats_of
from repro.sweep.spec import SweepSpec, expand_cells
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


def pending_cells(
    spec: SweepSpec, store: ResultStore, backend: str = "batch"
) -> Tuple[List[Tuple[Any, Dict[str, Any], str]], int]:
    """The cells still missing from the store, plus the skipped count.

    Preserves the canonical expansion order and drops in-spec
    duplicates (explicit cell lists may repeat a point) along with the
    keys the store already holds.
    """
    constants_of = constants_planner(spec, backend)
    seen = store.keys()
    pending = []
    skipped = 0
    for cell in expand_cells(spec):
        constants = constants_of(cell)
        key = cell_key(cell, constants)
        if key in seen:
            skipped += 1
            continue
        seen.add(key)
        pending.append((cell, constants, key))
    return pending, skipped


def _evaluate_chunk(planned) -> List[dict]:
    """Evaluate one chunk of planned ``(cell, constants, key)`` triples
    into complete store records (keys included, so the driver appends
    them verbatim); one pool task of :func:`run_sweep`."""
    return [cell_record(cell, constants, key) for cell, constants, key in planned]


def _chunk_tasks(pending: List[Tuple[Any, Dict[str, Any], str]]) -> List[Any]:
    """Chunk pending cells into tasks, honouring each cell's partition.

    Groups the cells by their ``chunk_cells`` size, in first-seen order
    and keeping the pending order inside each group, then cuts each
    group into chunks of that size: a grid whose innermost axis
    alternates partitions (node counts) still gets full chunks.  A pure
    function of the pending list, so the chunking (and the submission
    order) is identical for any ``jobs``.
    """
    groups: Dict[int, List[Any]] = {}
    for planned in pending:
        groups.setdefault(int(planned[1]["chunk_cells"]), []).append(planned)
    return [
        partial(_evaluate_chunk, tuple(cells[start : start + size]))
        for size, cells in groups.items()
        for start in range(0, len(cells), size)
    ]


def run_sweep(
    spec: SweepSpec,
    store: ResultStore,
    jobs: Optional[int] = None,
    backend: str = "batch",
    cell_budget: Optional[int] = None,
) -> SweepRunReport:
    """Run (or resume) ``spec`` against ``store``; returns the report.

    ``cell_budget`` caps how many cells this call evaluates — the rest
    stay pending for the next call, which is both the integrity
    check's interruption model and a way to drip a huge grid through
    short CI slots.  The run holds the store's writer lock (:meth:`ResultStore.locked`)
    throughout, so a second run on a live store raises
    :class:`repro.errors.ReproError` and leaves it untouched.
    """
    from repro.parallel.pool import effective_jobs

    with store.locked():
        pending, skipped = pending_cells(spec, store, backend=backend)
        deferred = 0
        if cell_budget is not None:
            if cell_budget < 0:
                cell_budget = 0
            deferred = max(0, len(pending) - cell_budget)
            pending = pending[:cell_budget]
        evaluated = 0
        stats: Dict[str, int] = {}
        for records in imap_tasks(_chunk_tasks(pending), jobs=jobs):
            store.append(records)
            evaluated += len(records)
            stats = merge_stats([stats, *map(stats_of, records)])
        status = store.compact()
    return SweepRunReport(
        name=spec.name,
        backend=backend,
        jobs=effective_jobs(jobs),
        total_cells=spec.cell_count(),
        skipped=skipped,
        evaluated=evaluated,
        deferred=deferred,
        stored=status.records,
        digest=status.digest,
        backend_stats=stats,
    )


#: Result fields lifted into a surface row, per surface, in column order.
_ROW_FIELDS = {
    "analytic": (
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
    ),
    "traffic": (
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
    ),
}


def surface_rows(store: ResultStore) -> List[Dict[str, Any]]:
    """Flatten the store into surface rows, sorted by key.

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
        result = record.get("result", {})
        constants = record.get("constants", {})
        surface = constants.get("surface", "analytic")
        row: Dict[str, Any] = {"key": key}
        row.update(record.get("cell", {}))
        row["backend"] = constants.get("backend")
        row["surface"] = surface
        for name in _ROW_FIELDS[surface]:
            row[name] = result.get(name)
        if surface == "analytic":
            bus = result.get("bus") or {}
            row["bus_feasible"] = bus.get("feasible")
            row["max_bus_length_m"] = bus.get("max_bus_length_m")
        rows.append(row)
    return rows
