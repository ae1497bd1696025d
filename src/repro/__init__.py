"""Reproduction of *MajorCAN: A Modification to the Controller Area Network
Protocol to Achieve Atomic Broadcast* (Proenza & Miro-Julia, ICDCS 2000).

The package is organised in layers:

``repro.simulation``
    A bit-synchronous, discrete-event bus simulator with per-node bus
    views (the paper's error model perturbs the *view* each node has of
    a bus bit, not the bus itself).

``repro.can``
    A bit-accurate implementation of the standard CAN data-link layer:
    frames, CRC-15, bit stuffing, arbitration, error detection and
    signalling, fault confinement, and the (in)famous last-bit-of-EOF
    rule that causes the inconsistencies studied by the paper.

``repro.core``
    The paper's contributions: the :class:`~repro.core.MinorCanController`
    and the parametric :class:`~repro.core.MajorCanController`.

``repro.faults``
    Fault injection: random spatial bit-error model (``ber* = ber / N``)
    and deterministic builders for every scenario figure in the paper.

``repro.protocols``
    The higher-level baseline protocols from Rufino et al. (FTCS'98):
    EDCAN, RELCAN and TOTCAN.

``repro.properties``
    Executable checkers for the Atomic Broadcast properties AB1-AB5 and
    the CAN properties CAN1-CAN6 / CAN2' / CAN6'.

``repro.analysis``
    The analytical probability model (equations 1-5), the Table 1
    generator, exact pattern enumeration, and the overhead formulas.

``repro.workload`` / ``repro.metrics``
    The paper's evaluation profile (bit rate, node count, load, frame
    length), and result collection/reporting.

``repro.tracestore``
    Persistent trace capture (versioned JSONL), deterministic replay
    with structured diffing, and the golden-scenario regression corpus.

``repro.traffic``
    Steady-state multi-frame traffic runs: periodic or Poisson
    submission schedules feeding a multi-node bus, a per-frame message
    ledger with delivered/omitted/duplicated verdicts, window-sharded
    parallel execution, and schema-v2 replayable recordings.

``repro.sweep``
    Resumable design-space sweeps: validated specs over seven axes,
    content-addressed cell keys, an append-only JSONL result store
    with byte-deterministic compaction, and a driver that skips stored
    cells and streams the rest over the worker pool.

Every package declares its public names once, in the table passed to
:func:`repro._namespace.lazy_namespace`; a name's module is imported
on first use, so ``import repro`` loads no layer.
"""

from repro._namespace import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "_version": ("__version__",),
        "can": ("CanController", "CanId", "ControllerConfig", "Frame"),
        "core": ("MajorCanController", "MinorCanController"),
        "simulation": ("Bus", "SimulationEngine", "Trace"),
        "tracestore": (
            "RecordedTrace", "ScenarioSpec", "TraceDiff", "check_corpus", "diff_traces",
            "load_trace", "record_outcome", "replay_trace", "update_corpus",
        ),
        "sweep": ("ResultStore", "SweepCell", "SweepSpec", "run_sweep"),
        "traffic": ("BurstSpec", "TrafficOutcome", "TrafficSpec", "record_traffic", "run_traffic"),
    },
)
