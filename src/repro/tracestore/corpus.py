"""The golden-scenario regression corpus.

A corpus directory holds one recording per canonical scenario — the
paper's Fig. 1b/1c (double reception, inconsistent omission) and the
new Fig. 3 scenario for each of standard CAN, MinorCAN and MajorCAN_m,
plus EOF/overload edge cases that pin exact wire patterns (Fig. 1a
under MinorCAN, its primary-error overload choreography, and Fig. 4's
"error in EOF bit 6" row under MajorCAN_5, the extended error flag).

Two operations maintain it:

* :func:`update_corpus` re-records every entry from the live scenario
  builders (run after an *intended* behaviour change, then review the
  diff in version control);
* :func:`check_corpus` replays every checked-in recording and diffs it
  against the recording itself — any mismatch is a behavioural
  regression.  Checking fans out over :mod:`repro.parallel`, one task
  per entry, and is deterministic for any ``jobs`` value.
"""

from __future__ import annotations

import glob
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import TraceStoreError
from repro.faults.scenarios import SCENARIOS, SCRIPTS, run_script, x_eof_error
from repro.parallel.pool import run_tasks
from repro.tracestore.recorder import record_outcome
from repro.tracestore.replay import replay_trace
from repro.tracestore.spec import spec_from_outcome
from repro.traffic.recording import record_traffic
from repro.traffic.run import run_traffic
from repro.traffic.spec import BurstSpec, TrafficSpec

#: Default corpus directory (repo-root relative).
DEFAULT_CORPUS_DIR = "corpus"


# ---------------------------------------------------------------------------
# Golden entry builders
# ---------------------------------------------------------------------------


def _scenario(name: str, protocol: str):
    return SCENARIOS[name](protocol)


def _overload_primary():
    """Fig. 1a under MinorCAN: its primary-error overload choreography."""
    return run_script("overload-primary", SCRIPTS["fig1a"], "minorcan")


def _eof_extended_flag():
    """Fig. 4's "error in EOF bit 6" row under MajorCAN_5: the extended
    error flag."""
    return run_script("eof-extended-flag", x_eof_error(5), "majorcan")


#: Entry name -> builder returning a fresh ``ScenarioOutcome``.
GOLDEN_BUILDERS: Dict[str, Callable[[], object]] = {
    "%s-%s" % (scenario, protocol): partial(_scenario, scenario, protocol)
    for scenario in ("fig1b", "fig1c")
    for protocol in ("can", "minorcan", "majorcan")
}
# The Fig. 3 scenario family: the paper labels the standard-CAN run
# Fig. 3a and the MinorCAN run Fig. 3b; the MajorCAN run of the same
# fault script has no figure letter of its own.
GOLDEN_BUILDERS["fig3a-can"] = partial(_scenario, "fig3", "can")
GOLDEN_BUILDERS["fig3b-minorcan"] = partial(_scenario, "fig3", "minorcan")
GOLDEN_BUILDERS["fig3-majorcan"] = partial(_scenario, "fig3", "majorcan")
# EOF / overload edge cases beyond the core figure set.
GOLDEN_BUILDERS["fig1a-can"] = partial(_scenario, "fig1a", "can")
GOLDEN_BUILDERS["fig5-majorcan"] = partial(_scenario, "fig5", "majorcan")
GOLDEN_BUILDERS["eof-extended-flag-majorcan"] = _eof_extended_flag
GOLDEN_BUILDERS["overload-primary-minorcan"] = _overload_primary


def _traffic_spec(name: str):
    """The frozen :class:`TrafficSpec` of one multi-frame golden entry.

    Specs, not outcomes: ``update_corpus`` runs them through
    ``run_traffic`` and records the v2 trace; ``check_corpus`` replays
    the recording from its own manifest, so the spec here only matters
    when re-recording.
    """
    specs = {
        # Four nodes at the paper's 90% load factor: sustained
        # arbitration under contention across two spliced windows.
        "traffic-contended-majorcan": TrafficSpec(
            name="traffic-contended-majorcan",
            protocol="majorcan",
            m=5,
            n_nodes=4,
            windows=2,
            window_bits=900,
            load=0.9,
            seed=11,
        ),
        # An error-burst storm: two bursts corrupt a receiver's view
        # mid-frame, forcing error signalling and retransmissions.
        "traffic-burst-storm-can": TrafficSpec(
            name="traffic-burst-storm-can",
            protocol="can",
            n_nodes=3,
            windows=2,
            window_bits=1100,
            load=0.7,
            seed=7,
            bursts=(
                BurstSpec(node="n1", window=0, start=140, length=24),
                BurstSpec(node="n2", window=1, start=400, length=18),
            ),
        ),
        # TEC ramp into bus-off and ISO 11898 recovery: a long burst on
        # the transmitter's own view drives its TEC past 255; low load
        # leaves enough idle recessive bits to rejoin within the window
        # and flush the queued backlog.
        "traffic-busoff-recovery-majorcan": TrafficSpec(
            name="traffic-busoff-recovery-majorcan",
            protocol="majorcan",
            m=5,
            n_nodes=3,
            windows=1,
            window_bits=6000,
            load=0.3,
            seed=3,
            bursts=(BurstSpec(node="n0", window=0, start=10, length=700),),
            bus_off_recovery=True,
        ),
        # The same bus-off recovery driven by per-bit noise on n0's own
        # view instead of a burst: n0 ramps into bus-off twice and
        # rejoins once, and flipped views keep breaking the recessive
        # runs it counts while it is off the bus.
        "traffic-busoff-recovery-noise-majorcan": TrafficSpec(
            name="traffic-busoff-recovery-noise-majorcan",
            protocol="majorcan",
            m=5,
            n_nodes=3,
            windows=1,
            window_bits=6000,
            load=0.3,
            seed=3,
            noise_ber=0.05,
            noise_nodes=("n0",),
            bus_off_recovery=True,
        ),
        # An HLP stream: EDCAN riding standard CAN, application-level
        # (origin, seq) ledger keys across two windows.
        "traffic-hlp-edcan": TrafficSpec(
            name="traffic-hlp-edcan",
            protocol="can",
            hlp="edcan",
            n_nodes=3,
            windows=2,
            window_bits=900,
            load=0.3,
            seed=5,
        ),
        # TOTCAN under sustained contention: vector-clock causal order
        # over MajorCAN while three nodes keep the bus busy — the
        # total-order HLP exercised beyond single-frame scenarios.
        "traffic-hlp-totcan-contended": TrafficSpec(
            name="traffic-hlp-totcan-contended",
            protocol="majorcan",
            m=5,
            hlp="totcan",
            n_nodes=3,
            windows=2,
            window_bits=1100,
            load=0.6,
            seed=17,
        ),
        # Random per-bit noise under an HLP: the direction-1 residual
        # channel model (seeded BER flips on one receiver's view) riding
        # the EDCAN ledger.  HLP windows classify to the engine even
        # with the noise evaluator available, so this entry pins the
        # noisy engine path while the batch scan handles raw CAN.
        "traffic-noisy-hlp-edcan": TrafficSpec(
            name="traffic-noisy-hlp-edcan",
            protocol="can",
            hlp="edcan",
            n_nodes=3,
            windows=2,
            window_bits=900,
            load=0.4,
            seed=23,
            noise_ber=0.001,
            noise_nodes=("n1",),
        ),
        # A deterministic burst under the RELCAN relay HLP: the burst
        # forces error signalling mid-window, exercising the relay
        # retransmission ledger across the splice.
        "traffic-burst-relcan": TrafficSpec(
            name="traffic-burst-relcan",
            protocol="can",
            hlp="relcan",
            n_nodes=3,
            windows=2,
            window_bits=1000,
            load=0.5,
            seed=13,
            bursts=(BurstSpec(node="n1", window=0, start=180, length=20),),
        ),
        # Poisson traffic under per-bit noise on two of four nodes plus
        # a burst on a third: window 0 runs the noise and the burst
        # through one composite injector, so the noise realisation of a
        # noise+burst window is pinned without an HLP.
        "traffic-noisy-burst-majorcan": TrafficSpec(
            name="traffic-noisy-burst-majorcan",
            protocol="majorcan",
            m=5,
            n_nodes=4,
            windows=2,
            window_bits=900,
            source="poisson",
            rate_per_bit=0.0015,
            seed=29,
            noise_ber=0.001,
            noise_nodes=("n1", "n2"),
            bursts=(BurstSpec(node="n3", window=0, start=240, length=4),),
        ),
    }
    return specs[name]


#: Multi-frame (schema v2) golden entry names.
GOLDEN_TRAFFIC_ENTRIES = (
    "traffic-burst-relcan",
    "traffic-burst-storm-can",
    "traffic-busoff-recovery-majorcan",
    "traffic-busoff-recovery-noise-majorcan",
    "traffic-contended-majorcan",
    "traffic-hlp-edcan",
    "traffic-hlp-totcan-contended",
    "traffic-noisy-burst-majorcan",
    "traffic-noisy-hlp-edcan",
)


def corpus_entries() -> List[str]:
    """The canonical golden entry names, sorted."""
    return sorted(list(GOLDEN_BUILDERS) + list(GOLDEN_TRAFFIC_ENTRIES))


def entry_path(directory: str, name: str) -> str:
    """Path of one corpus entry file."""
    return os.path.join(directory, name + ".jsonl")


# ---------------------------------------------------------------------------
# update
# ---------------------------------------------------------------------------


def update_corpus(
    directory: str = DEFAULT_CORPUS_DIR,
    names: Optional[Sequence[str]] = None,
) -> List[str]:
    """(Re-)record the golden entries into ``directory``.

    Returns the paths written.  Entries are recorded serially — each is
    a sub-second single-frame run — in sorted name order, so the output
    is deterministic file by file.
    """
    selected = corpus_entries() if names is None else list(names)
    unknown = [
        name
        for name in selected
        if name not in GOLDEN_BUILDERS and name not in GOLDEN_TRAFFIC_ENTRIES
    ]
    if unknown:
        raise TraceStoreError(
            "unknown corpus entries %s (known: %s)" % (unknown, corpus_entries())
        )
    os.makedirs(directory, exist_ok=True)
    written: List[str] = []
    for name in selected:
        path = entry_path(directory, name)
        if name in GOLDEN_TRAFFIC_ENTRIES:
            record_traffic(
                path,
                run_traffic(_traffic_spec(name), jobs=1),
                meta={"entry": name},
            )
            written.append(path)
            continue
        outcome = GOLDEN_BUILDERS[name]()
        spec = spec_from_outcome(outcome)
        written.append(
            record_outcome(path, outcome, spec=spec, meta={"entry": name})
        )
    return written


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusCheckResult:
    """Replay verdict for one corpus entry (picklable)."""

    entry: str
    path: str
    ok: bool
    detail: str = "identical"


@dataclass
class CorpusReport:
    """Aggregate result of one corpus check."""

    results: List[CorpusCheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every entry replayed bit-identically."""
        return all(result.ok for result in self.results)

    @property
    def failures(self) -> List[CorpusCheckResult]:
        """The entries that failed."""
        return [result for result in self.results if not result.ok]

    def summary(self) -> str:
        """Human-readable multi-line report."""
        lines = [
            "%-4s %-32s %s"
            % ("ok" if result.ok else "FAIL", result.entry, result.detail.splitlines()[0])
            for result in self.results
        ]
        lines.append(
            "%d/%d entries bit-identical"
            % (len(self.results) - len(self.failures), len(self.results))
        )
        return "\n".join(lines)


def check_recording(path: str) -> CorpusCheckResult:
    """Validate and replay one recording; compare against itself."""
    entry = os.path.splitext(os.path.basename(path))[0]
    try:
        result = replay_trace(path)
    except TraceStoreError as exc:
        return CorpusCheckResult(entry=entry, path=path, ok=False, detail=str(exc))
    if result.bit_identical:
        return CorpusCheckResult(entry=entry, path=path, ok=True)
    return CorpusCheckResult(
        entry=entry, path=path, ok=False, detail=result.diff.summary()
    )


def check_corpus(
    directory: str = DEFAULT_CORPUS_DIR,
    jobs: Optional[int] = None,
    require_golden: bool = True,
) -> CorpusReport:
    """Replay every ``.jsonl`` recording under ``directory``.

    One :func:`check_recording` task per entry is fanned out over the
    worker pool; results keep sorted-path order, so the report is
    identical for any ``jobs`` value.  With
    ``require_golden`` (the default) a missing canonical entry is
    reported as a failure.
    """
    if not os.path.isdir(directory):
        raise TraceStoreError("corpus directory %r does not exist" % directory)
    paths = sorted(glob.glob(os.path.join(directory, "*.jsonl")))
    tasks = [partial(check_recording, path) for path in paths]
    report = CorpusReport(results=run_tasks(tasks, jobs=jobs))
    if require_golden:
        present = {result.entry for result in report.results}
        for name in corpus_entries():
            if name not in present:
                report.results.append(
                    CorpusCheckResult(
                        entry=name,
                        path=entry_path(directory, name),
                        ok=False,
                        detail="golden entry missing (run corpus update)",
                    )
                )
    return report
