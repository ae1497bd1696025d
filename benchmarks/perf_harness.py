#!/usr/bin/env python
"""Performance harness for the simulation workloads.

Measures the axes this repo's perf trajectory tracks:

* **simulated bits/sec** of the engine's inner loop — with per-bit
  recording (``record_bits=True``) and on the lean fast path
  (``record_bits=False``), which skips all per-bit dict and
  ``BitRecord`` construction;
* **simulated bits/sec** of the controller hot loop on the
  ``record_bits=False`` engine — the table-driven controller fast path
  (``ControllerConfig(fast_path=True)``, the default) versus the
  branchy reference state machine (``fast_path=False``);
* **trials/sec** of the statistical workloads (Monte-Carlo sampling
  and bounded exhaustive verification) — serial (``jobs=1``) versus
  fanned out over the ``repro.parallel`` worker pool;
* **placements/sec** of the batch-replay backend
  (``backend="batch"``, :mod:`repro.analysis.batchreplay`) versus one
  engine run per placement on the same ``verify_consistency``
  universe — the two backends' verdicts are asserted identical before
  the speedup is reported;
* **engine vs batch wall-clock** on the header-dominated
  ``m_ablation check_f1`` sweep (ablation rows asserted identical) and
  on seeded ``monte_carlo_tail`` runs (counts asserted bit-identical)
  — the PR 5 header-site backend and chunked Monte-Carlo draws;
* **engine vs batch wall-clock** on the PR 6 workloads: the full
  ≤ 2-flip header+tail combo universe (per-combo verdicts asserted
  identical to an engine oracle), ``run_campaign`` rounds (campaign
  rows asserted identical) and the enumerated
  ``reliability_comparison`` rates (rows asserted identical);
* **frames/sec of steady-state traffic** (PR 7,
  :mod:`repro.traffic`): the same multi-window run driven through the
  controller fast path and the reference state machine (ledgers
  asserted identical, the ratio gated), plus — full runs only — the
  paper-profile sustained run (32 nodes at 90% load, ≥ 5,000 frames)
  whose absolute throughput is recorded ungated;
* **engine vs batch sweep cells** (PR 8, :mod:`repro.sweep`): the same
  small design-space grid evaluated through ``run_sweep`` on both
  backends into fresh result stores (stored payloads asserted
  identical, the ratio gated), plus a re-run that must evaluate zero
  cells — the content-addressed store's incrementality;
* **engine vs frame-granular traffic windows** (PR 9,
  :mod:`repro.traffic.batch`): one clean contended profile replayed
  on both traffic backends with cold window caches, the full
  serialized surface plus ledger/stats/properties asserted identical,
  the ratio gated at >= 3x with a zero-window engine share;
* **engine vs vectorised noise** (PR 10,
  :mod:`repro.analysis.noisebatch`): one noisy contended traffic
  profile and one noisy campaign schedule, each run on both backends
  with cold caches — the flip scan classifies zero-flip
  windows/rounds closed-form and resumes the engine from the first
  flip — surfaces asserted identical, both ratios gated at >= 3x.

Writes a JSON report (default ``BENCH_PR10.json`` in the repo root)
recording the raw rates, the speedups, and the host's CPU budget —
parallel speedup is physically bounded by ``cpu_count``, so the file
keeps that context alongside the numbers.

Usage::

    python benchmarks/perf_harness.py [--smoke] [--jobs N] [--out PATH]
        [--section NAME ...]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_REPO_ROOT, "src")
if _SRC not in sys.path:
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, _SRC)


def bench_engine_bits(frames: int, record_bits: bool) -> Dict[str, float]:
    """Simulated bits/sec of one engine pushing ``frames`` frames."""
    from repro.can.controller import CanController
    from repro.can.frame import data_frame
    from repro.simulation.engine import SimulationEngine

    nodes = [CanController(name) for name in ("tx", "r1", "r2")]
    engine = SimulationEngine(nodes, record_bits=record_bits)
    for index in range(frames):
        nodes[0].submit(data_frame(0x100 + (index % 0x200), b"\x55\xaa"))
    started = time.perf_counter()
    engine.run_until_idle(max_bits=10_000_000)
    elapsed = time.perf_counter() - started
    return {
        "frames": frames,
        "bits": engine.time,
        "seconds": elapsed,
        "bits_per_sec": engine.time / elapsed if elapsed else float("inf"),
    }


def _fast_path_engine(frames: int):
    from repro.can.controller import CanController
    from repro.can.frame import data_frame
    from repro.simulation.engine import SimulationEngine

    nodes = [CanController(name) for name in ("tx", "r1", "r2")]
    engine = SimulationEngine(nodes, record_bits=False)
    for index in range(frames):
        nodes[0].submit(data_frame(0x100 + (index % 0x200), b"\x55\xaa"))
    return engine


def bench_fast_path_capture(frames: int) -> Dict[str, float]:
    """Fast-path engine run *plus* a post-run trace-store dump.

    The trace store takes no per-bit hook: capture reads the bus history
    and the controller event streams after the run, so the only cost
    recording adds to a ``record_bits=False`` run is a one-time
    serialization pass that amortises over the run's length.  This
    measures that end-to-end cost against :func:`bench_fast_path_bare`.
    """
    import tempfile

    from repro.tracestore.recorder import TraceRecorder, event_record

    engine = _fast_path_engine(frames)
    started = time.perf_counter()
    engine.run_until_idle(max_bits=10_000_000)
    with tempfile.TemporaryDirectory() as tmp:
        with TraceRecorder(os.path.join(tmp, "bench.jsonl")) as recorder:
            recorder.write_record(
                {
                    "type": "bus",
                    "levels": "".join(
                        level.symbol for level in engine.bus.history
                    ),
                }
            )
            recorder.write_records(
                event_record(event) for event in engine.trace.events
            )
    elapsed = time.perf_counter() - started
    return {
        "frames": frames,
        "bits": engine.time,
        "seconds": elapsed,
        "bits_per_sec": engine.time / elapsed if elapsed else float("inf"),
    }


def bench_fast_path_bare(frames: int) -> Dict[str, float]:
    """The identical fast-path engine workload without the dump."""
    engine = _fast_path_engine(frames)
    started = time.perf_counter()
    engine.run_until_idle(max_bits=10_000_000)
    elapsed = time.perf_counter() - started
    return {
        "frames": frames,
        "bits": engine.time,
        "seconds": elapsed,
        "bits_per_sec": engine.time / elapsed if elapsed else float("inf"),
    }


def bench_controller(frames: int, fast_path: bool) -> Dict[str, float]:
    """Simulated bits/sec of the controller hot loop.

    Runs the same three-node workload as :func:`bench_engine_bits` on
    the ``record_bits=False`` engine — where per-bit cost is dominated
    by ``CanController.drive`` / ``on_bit`` — with the table-driven
    fast path either enabled (the default configuration) or disabled
    (the branchy reference state machine kept for differential
    testing).
    """
    from repro.can.controller import CanController
    from repro.can.controller_config import ControllerConfig
    from repro.can.frame import data_frame
    from repro.simulation.engine import SimulationEngine

    config = ControllerConfig(fast_path=fast_path)
    nodes = [CanController(name, config) for name in ("tx", "r1", "r2")]
    engine = SimulationEngine(nodes, record_bits=False)
    for index in range(frames):
        nodes[0].submit(data_frame(0x100 + (index % 0x200), b"\x55\xaa"))
    started = time.perf_counter()
    engine.run_until_idle(max_bits=10_000_000)
    elapsed = time.perf_counter() - started
    return {
        "frames": frames,
        "fast_path": fast_path,
        "bits": engine.time,
        "seconds": elapsed,
        "bits_per_sec": engine.time / elapsed if elapsed else float("inf"),
    }


def bench_montecarlo(trials: int, jobs: int) -> Dict[str, float]:
    """Trials/sec of the tail-window Monte-Carlo workload (E-MC)."""
    from repro.analysis.montecarlo import monte_carlo_tail

    started = time.perf_counter()
    monte_carlo_tail("can", n_nodes=3, ber_star=0.08, trials=trials, seed=7, jobs=jobs)
    elapsed = time.perf_counter() - started
    return {
        "trials": trials,
        "jobs": jobs,
        "seconds": elapsed,
        "trials_per_sec": trials / elapsed if elapsed else float("inf"),
    }


def bench_verify(max_flips: int, jobs: int) -> Dict[str, float]:
    """Placements/sec of the bounded exhaustive verification (E-VER)."""
    from repro.analysis.verification import verify_consistency

    started = time.perf_counter()
    result = verify_consistency("can", m=5, n_nodes=3, max_flips=max_flips, jobs=jobs)
    elapsed = time.perf_counter() - started
    return {
        "placements": result.runs,
        "jobs": jobs,
        "seconds": elapsed,
        "placements_per_sec": result.runs / elapsed if elapsed else float("inf"),
    }


def bench_batch_enumeration(max_flips: int, protocol: str = "can") -> Dict:
    """Engine vs batch backend on one ``verify_consistency`` universe.

    Runs the identical placement universe through both backends,
    asserts the verdicts match placement for placement, and reports
    the wall-clock speedup (the PR 4 acceptance bar is >= 5x on the
    full-size ``can``/2-flip universe).  Both sides are best-of-3 with
    the batch side timed from cold work caches, like the later batch
    sections — a single engine pass is a noisy denominator for a gated
    ratio.
    """
    from repro.analysis.batchreplay import clear_caches
    from repro.analysis.verification import verify_consistency

    engine_elapsed, engine = _timed_best(
        lambda: verify_consistency(
            protocol, m=5, n_nodes=3, max_flips=max_flips, jobs=1
        )
    )

    def batch_run():
        clear_caches()
        return verify_consistency(
            protocol, m=5, n_nodes=3, max_flips=max_flips, jobs=1,
            backend="batch",
        )

    batch_elapsed, batch = _timed_best(batch_run)
    identical = engine.runs == batch.runs and [
        str(c) for c in engine.counterexamples
    ] == [str(c) for c in batch.counterexamples]
    if not identical:
        raise AssertionError(
            "batch backend diverged from the engine on %s flips=%d"
            % (protocol, max_flips)
        )
    return {
        "protocol": protocol,
        "max_flips": max_flips,
        "placements": engine.runs,
        "counterexamples": len(engine.counterexamples),
        "verdicts_identical": identical,
        "engine": {
            "seconds": engine_elapsed,
            "placements_per_sec": (
                engine.runs / engine_elapsed if engine_elapsed else float("inf")
            ),
        },
        "batch": {
            "seconds": batch_elapsed,
            "placements_per_sec": (
                batch.runs / batch_elapsed if batch_elapsed else float("inf")
            ),
        },
        "speedup": (
            engine_elapsed / batch_elapsed if batch_elapsed else float("inf")
        ),
    }


def _timed_best(run, repeats: int = 3):
    """Best-of-``repeats`` wall time for ``run()`` plus its last result.

    The batch-side denominators here are a few milliseconds, so a
    single sample makes the gated speedup ratios noisy; the minimum
    over a few repeats is the standard stable estimator.
    """
    best = None
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = run()
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def bench_header_enumeration() -> Dict:
    """Engine vs batch on the ``m_ablation check_f1`` sweep (PR 5).

    The ``check_f1`` verification is dominated by header placements —
    the universe PR 4's tail model bailed to the engine for.  Runs the
    full sweep through both backends, asserts the ablation rows are
    identical, and reports the wall-clock speedup (the PR 5 acceptance
    bar is >= 5x).

    Both sides get one untimed warm-up row so the infrastructure
    caches (wire programs, tail/header shapes — pre-expanded by the
    worker-pool initializer in production) are hot; the per-sweep
    *work* caches (header class runs, combo verdicts) are cleared
    inside every timed batch sweep so it pays for its own reduced
    engine runs and memoisation.  The universe is identical in smoke
    and full runs — the perf gate compares the ratio across reports.
    """
    from repro.analysis.batchreplay import (
        _HEADER_CLASS_CACHE,
        clear_caches,
        warm_shapes,
    )
    from repro.analysis.sweeps import m_ablation

    m_values = (3, 4, 5, 6, 7)
    warm_shapes()
    m_ablation(m_values=m_values[:1], check_f1=True, jobs=1)
    m_ablation(m_values=m_values[:1], check_f1=True, jobs=1, backend="batch")
    engine_elapsed, engine_rows = _timed_best(
        lambda: m_ablation(m_values=m_values, check_f1=True, jobs=1)
    )

    def batch_sweep():
        clear_caches()
        return m_ablation(
            m_values=m_values, check_f1=True, jobs=1, backend="batch"
        )

    batch_elapsed, batch_rows = _timed_best(batch_sweep)
    from dataclasses import replace

    # The rows carry backend provenance counters (None on the engine,
    # a dict on the batch backend); equality is over everything else.
    strip = lambda rows: [  # noqa: E731
        replace(row, backend_stats=None) for row in rows
    ]
    if strip(engine_rows) != strip(batch_rows):
        raise AssertionError(
            "batch m_ablation rows diverged from the engine"
        )
    placements = sum(row.tail_errors_verified for row in engine_rows)
    return {
        "m_values": list(m_values),
        "check_f1": True,
        "tail_placements": placements,
        "header_class_runs": len(_HEADER_CLASS_CACHE),
        "rows_identical": True,
        "engine": {"seconds": engine_elapsed},
        "batch": {"seconds": batch_elapsed},
        "speedup": (
            engine_elapsed / batch_elapsed if batch_elapsed else float("inf")
        ),
    }


def bench_montecarlo_batch(trials: int) -> Dict:
    """Engine vs batch ``monte_carlo_tail`` at one seed (PR 5).

    Both runs draw their placements from the same seeded chunked
    matrices, so every count must be bit-identical; the speedup (PR 5
    acceptance bar: >= 3x at default trial counts) measures the
    vectorised draw + batch classification against one engine run per
    fault-bearing trial.  As in :func:`bench_header_enumeration`, both
    sides get a small untimed warm-up, every timed batch run starts
    with cold work caches, and timings are best-of-3 over a universe
    identical in smoke and full runs.
    """
    from repro.analysis.batchreplay import clear_caches, warm_shapes
    from repro.analysis.montecarlo import monte_carlo_tail

    warm_shapes()
    monte_carlo_tail("can", n_nodes=3, ber_star=0.08, trials=8, seed=7, jobs=1)
    monte_carlo_tail(
        "can", n_nodes=3, ber_star=0.08, trials=8, seed=7, jobs=1,
        backend="batch",
    )
    engine_elapsed, engine = _timed_best(
        lambda: monte_carlo_tail(
            "can", n_nodes=3, ber_star=0.08, trials=trials, seed=7, jobs=1
        )
    )

    def batch_run():
        clear_caches()
        return monte_carlo_tail(
            "can",
            n_nodes=3,
            ber_star=0.08,
            trials=trials,
            seed=7,
            jobs=1,
            backend="batch",
        )

    batch_elapsed, batch = _timed_best(batch_run)
    counts = lambda r: (  # noqa: E731
        r.imo,
        r.double_reception,
        r.inconsistent,
        r.no_fault_trials,
        r.flips_total,
    )
    if counts(engine) != counts(batch):
        raise AssertionError(
            "batch monte_carlo_tail counts diverged from the engine"
        )
    return {
        "trials": trials,
        "counts_identical": True,
        "flips_total": engine.flips_total,
        "backend_stats": batch.backend_stats,
        "engine": {
            "seconds": engine_elapsed,
            "trials_per_sec": (
                trials / engine_elapsed if engine_elapsed else float("inf")
            ),
        },
        "batch": {
            "seconds": batch_elapsed,
            "trials_per_sec": (
                trials / batch_elapsed if batch_elapsed else float("inf")
            ),
        },
        "speedup": (
            engine_elapsed / batch_elapsed if batch_elapsed else float("inf")
        ),
    }


def bench_multiflip_header(
    protocol: str = "can", m: int = 5, n_nodes: int = 6
) -> Dict:
    """Engine oracle vs batch on the full ≤2-flip combo universe (PR 6).

    The universe mixes every header site with every EOF site — all
    singles, all pairs and the clean combo — over an empty-payload
    frame, the universe shape the tier-1 differential suite checks at
    three nodes.  Six nodes is where the batch design earns its keep:
    receiver symmetry folds the ~2.2k raw combos onto a far smaller
    canonical set, while the engine oracle pays full price per combo.
    Every verdict is asserted identical to the per-combo engine run
    before the speedup is reported (the PR 6 acceptance bar is >= 5x).
    """
    import itertools

    from repro.analysis.batchreplay import (
        BatchReplayEvaluator,
        clear_caches,
        warm_shapes,
    )
    from repro.analysis.verification import header_sites
    from repro.can.fields import EOF
    from repro.can.frame import data_frame
    from repro.faults.injector import ScriptedInjector, Trigger, ViewFault
    from repro.faults.scenarios import make_controller, run_single_frame_scenario

    node_names = tuple(
        ["tx"] + ["r%d" % index for index in range(1, n_nodes)]
    )
    frame = data_frame(0x123, b"", message_id="bench")
    probe = make_controller(protocol, "probe", m=m)
    sites = list(header_sites(node_names, data_bits=0))
    sites += [
        (name, EOF, index)
        for name in node_names
        for index in range(probe.config.eof_length)
    ]
    combos = (
        [()]
        + [(site,) for site in sites]
        + list(itertools.combinations(sites, 2))
    )

    def engine_pass():
        results = []
        for combo in combos:
            nodes = [
                make_controller(protocol, name, m=m) for name in node_names
            ]
            faults = [
                ViewFault(name, Trigger(field=field, index=index), force=None)
                for name, field, index in combo
            ]
            outcome = run_single_frame_scenario(
                "bench-multiflip",
                nodes,
                ScriptedInjector(view_faults=faults),
                frame=frame,
                record_bits=False,
            )
            results.append(
                (
                    tuple(outcome.deliveries[name] for name in node_names),
                    outcome.attempts,
                )
            )
        return results

    def batch_pass():
        clear_caches()
        evaluator = BatchReplayEvaluator(protocol, m, node_names, frame=frame)
        return (
            [(o.deliveries, o.attempts) for o in evaluator.evaluate(combos)],
            dict(evaluator.stats),
        )

    warm_shapes()
    batch_pass()  # untimed warm-up: pays the shape compile for ``frame``
    engine_elapsed, engine_verdicts = _timed_best(engine_pass)
    batch_elapsed, (batch_verdicts, stats) = _timed_best(batch_pass)
    if engine_verdicts != batch_verdicts:
        raise AssertionError(
            "batch multi-flip verdicts diverged from the engine oracle"
        )
    return {
        "protocol": protocol,
        "m": m,
        "n_nodes": n_nodes,
        "combos": len(combos),
        "verdicts_identical": True,
        "backend_stats": stats,
        "engine_share": stats["engine"] / len(combos),
        "engine": {
            "seconds": engine_elapsed,
            "combos_per_sec": (
                len(combos) / engine_elapsed if engine_elapsed else float("inf")
            ),
        },
        "batch": {
            "seconds": batch_elapsed,
            "combos_per_sec": (
                len(combos) / batch_elapsed if batch_elapsed else float("inf")
            ),
        },
        "speedup": (
            engine_elapsed / batch_elapsed if batch_elapsed else float("inf")
        ),
    }


def bench_campaign_batch(rounds: int = 96) -> Dict:
    """Engine vs batch ``run_campaign`` at one seed (PR 6).

    Both backends replay the identical seeded round schedule; the full
    campaign surface (summary row, per-round omission indices, attack
    and injection counters) is asserted identical before the speedup
    is reported (the PR 6 acceptance bar is >= 3x).  The round count is
    the same in smoke and full runs, so the gated ratio is apples to
    apples across reports.
    """
    from repro.analysis.batchreplay import clear_caches, warm_shapes
    from repro.faults.campaigns import CampaignSpec, run_campaign

    spec = CampaignSpec(
        protocol="can",
        n_nodes=4,
        rounds=rounds,
        attack_probability=0.5,
        seed=17,
    )
    warm_up = CampaignSpec(
        protocol="can", n_nodes=4, rounds=2, attack_probability=0.5, seed=17
    )
    warm_shapes()
    run_campaign(warm_up, backend="engine")
    run_campaign(warm_up, backend="batch")  # compiles the campaign frame shape

    def surface(outcome):
        return (
            outcome.as_row(),
            outcome.omission_rounds,
            outcome.attacked_rounds,
            outcome.errors_injected,
        )

    engine_elapsed, engine = _timed_best(
        lambda: run_campaign(spec, backend="engine")
    )

    def batch_run():
        clear_caches()
        return run_campaign(spec, backend="batch")

    batch_elapsed, batch = _timed_best(batch_run)
    if surface(engine) != surface(batch):
        raise AssertionError("batch campaign rows diverged from the engine")
    return {
        "protocol": spec.protocol,
        "rounds": rounds,
        "rows_identical": True,
        "backend_stats": dict(batch.backend_stats),
        "engine_share": batch.backend_stats.get("engine", 0) / rounds,
        "engine": {
            "seconds": engine_elapsed,
            "rounds_per_sec": (
                rounds / engine_elapsed if engine_elapsed else float("inf")
            ),
        },
        "batch": {
            "seconds": batch_elapsed,
            "rounds_per_sec": (
                rounds / batch_elapsed if batch_elapsed else float("inf")
            ),
        },
        "speedup": (
            engine_elapsed / batch_elapsed if batch_elapsed else float("inf")
        ),
    }


def bench_reliability_batch(ber: float = 1e-5) -> Dict:
    """Engine vs batch enumerated ``reliability_comparison`` (PR 6).

    Both backends enumerate the identical tail-window pattern universe
    per protocol and must produce the same measured IMO rates; the
    row surface is asserted identical before the speedup is reported
    (the PR 6 acceptance bar is >= 3x).
    """
    from repro.analysis.batchreplay import clear_caches, warm_shapes
    from repro.analysis.reliability import reliability_comparison

    def surface(rows):
        return [
            (
                row.protocol,
                row.ber,
                row.imo_rate_per_hour,
                row.mttf_hours,
                row.mission_survival,
            )
            for row in rows
        ]

    warm_shapes()
    reliability_comparison(ber, backend="engine")
    reliability_comparison(ber, backend="batch")
    engine_elapsed, engine = _timed_best(
        lambda: reliability_comparison(ber, backend="engine")
    )

    def batch_run():
        clear_caches()
        return reliability_comparison(ber, backend="batch")

    batch_elapsed, batch = _timed_best(batch_run)
    if surface(engine) != surface(batch):
        raise AssertionError(
            "batch reliability rows diverged from the engine"
        )
    stats = {}
    for row in batch:
        for key, value in (row.backend_stats or {}).items():
            stats[key] = stats.get(key, 0) + value
    total = sum(stats.values())
    return {
        "ber": ber,
        "protocols": [row.protocol for row in engine],
        "rows_identical": True,
        "backend_stats": stats,
        "engine_share": (stats.get("engine", 0) / total) if total else 0.0,
        "engine": {"seconds": engine_elapsed},
        "batch": {"seconds": batch_elapsed},
        "speedup": (
            engine_elapsed / batch_elapsed if batch_elapsed else float("inf")
        ),
    }


def bench_traffic_steady_state(smoke: bool) -> Dict:
    """Steady-state traffic throughput (PR 7, :mod:`repro.traffic`).

    The gated part runs one small multi-window contended workload —
    identical in smoke and full runs — through the controller fast
    path and the branchy reference state machine, asserts the two
    produce the identical serialized run (schedule, bus, events,
    per-frame verdicts, aggregate verdict), and reports the wall-clock
    ratio.  Driver overhead (scheduling, ledger bookkeeping, splicing)
    is common to both sides, so a regression there drags the ratio
    toward 1 and trips the gate even though both runs slow down
    together.

    Full runs add the paper-profile acceptance workload — 32 MajorCAN_5
    nodes at 90% bus load, four spliced windows, >= 5,000 frames — and
    record its absolute frames/sec ungated (absolute rates vary with
    the host; the ratio above is the portable signal).
    """
    from repro.metrics.export import json_line
    from repro.traffic import TrafficSpec, run_traffic, traffic_records

    def run(fast_path: bool):
        spec = TrafficSpec(
            name="bench-traffic",
            protocol="majorcan",
            m=5,
            n_nodes=6,
            windows=2,
            window_bits=1200,
            load=0.9,
            seed=13,
            fast_path=fast_path,
        )
        return run_traffic(spec, jobs=1)

    fast_elapsed, fast = _timed_best(lambda: run(True))
    ref_elapsed, ref = _timed_best(lambda: run(False))

    def surface(outcome):
        # Everything but the manifest — the fast_path knob lives there.
        return [json_line(r) for r in traffic_records(outcome)][1:]

    if surface(fast) != surface(ref):
        raise AssertionError(
            "traffic run diverged between the controller fast path and "
            "the reference state machine"
        )
    frames = fast.stats.frames_submitted
    bits = fast.stats.total_bits
    report = {
        "protocol": "majorcan",
        "n_nodes": 6,
        "windows": 2,
        "frames": frames,
        "bits": bits,
        "ledgers_identical": True,
        "atomic": fast.atomic,
        "reference": {
            "seconds": ref_elapsed,
            "frames_per_sec": (
                frames / ref_elapsed if ref_elapsed else float("inf")
            ),
        },
        "fast_path": {
            "seconds": fast_elapsed,
            "frames_per_sec": (
                frames / fast_elapsed if fast_elapsed else float("inf")
            ),
        },
        "speedup": ref_elapsed / fast_elapsed if fast_elapsed else float("inf"),
    }
    if not smoke:
        spec = TrafficSpec(
            name="paper-profile",
            protocol="majorcan",
            m=5,
            n_nodes=32,
            windows=4,
            window_bits=153_000,
            load=0.9,
            seed=2026,
            record_events=False,
            max_window_bits=400_000,
        )
        started = time.perf_counter()
        outcome = run_traffic(spec, jobs=1)
        elapsed = time.perf_counter() - started
        stats = outcome.stats
        report["paper_profile"] = {
            "protocol": spec.protocol,
            "n_nodes": spec.n_nodes,
            "load": spec.load,
            "windows": spec.windows,
            "window_bits": spec.window_bits,
            "frames": stats.frames_submitted,
            "delivered": stats.delivered,
            "bits": stats.total_bits,
            "bus_load": stats.bus_load,
            "atomic": outcome.atomic,
            "seconds": elapsed,
            "frames_per_sec": (
                stats.frames_submitted / elapsed if elapsed else float("inf")
            ),
            "bits_per_sec": (
                stats.total_bits / elapsed if elapsed else float("inf")
            ),
        }
    return report


def bench_sweep() -> Dict:
    """Engine vs batch design-space sweep cells (PR 8, :mod:`repro.sweep`).

    Runs one small sweep grid — two protocols x two BERs x two node
    counts, identical in smoke and full runs — through ``run_sweep``
    on both backends into fresh stores, asserts the stored result
    payloads are identical cell for cell (the backend is part of the
    key, so equality is checked on the physics, not the hashes), and
    reports the wall-clock speedup (the PR 8 acceptance bar is >= 3x).
    Timings are best-of-3 into a fresh store per repeat so every run
    evaluates the full grid; the batch side starts from cold work
    caches like the other batch sections.  A final re-run into the
    populated batch store must evaluate zero cells — the store's
    incrementality, measured where it is claimed.
    """
    import itertools
    import tempfile

    from repro.analysis.batchreplay import clear_caches, warm_shapes
    from repro.metrics.export import json_line
    from repro.sweep import ResultStore, SweepSpec, run_sweep

    spec = SweepSpec(
        name="bench-sweep",
        protocols=("can", "majorcan"),
        m_values=(5,),
        bers=(1e-5, 1e-4),
        bit_rates=(500_000.0,),
        bus_lengths_m=(30.0,),
        payloads=(1,),
        node_counts=(3, 4),
        window=2,
        max_flips=2,
    )
    cells = spec.cell_count()
    warm_shapes()
    with tempfile.TemporaryDirectory() as tmp:
        counter = itertools.count()

        def run_with(backend):
            store = ResultStore(
                os.path.join(tmp, "%s-%d" % (backend, next(counter)))
            )
            return store, run_sweep(spec, store, jobs=1, backend=backend)

        run_with("engine")
        run_with("batch")  # untimed warm-up on both backends
        engine_elapsed, (engine_store, _) = _timed_best(
            lambda: run_with("engine")
        )

        def batch_run():
            clear_caches()
            return run_with("batch")

        batch_elapsed, (batch_store, _) = _timed_best(batch_run)

        def physics(store):
            return {
                json_line(record["cell"]): {
                    key: value
                    for key, value in record["result"].items()
                    if key != "backend_stats"
                }
                for record in store.records().values()
            }

        if physics(engine_store) != physics(batch_store):
            raise AssertionError(
                "batch sweep results diverged from the engine backend"
            )
        rerun = run_sweep(spec, batch_store, jobs=1, backend="batch")
        if rerun.evaluated != 0:
            raise AssertionError(
                "completed sweep re-evaluated %d cells" % rerun.evaluated
            )
    return {
        "cells": cells,
        "window": spec.window,
        "max_flips": spec.max_flips,
        "results_identical": True,
        "rerun_evaluated": rerun.evaluated,
        "engine": {
            "seconds": engine_elapsed,
            "cells_per_sec": (
                cells / engine_elapsed if engine_elapsed else float("inf")
            ),
        },
        "batch": {
            "seconds": batch_elapsed,
            "cells_per_sec": (
                cells / batch_elapsed if batch_elapsed else float("inf")
            ),
        },
        "speedup": (
            engine_elapsed / batch_elapsed if batch_elapsed else float("inf")
        ),
    }


def bench_traffic_batch() -> Dict:
    """Engine vs frame-granular traffic windows (PR 9, :mod:`repro.traffic.batch`).

    Runs one clean contended profile — six MajorCAN_5 nodes at 90%
    load, identical in smoke and full runs — through ``run_traffic``
    on the per-bit engine and the frame-granular batch backend, then
    asserts the *entire* observable surface identical: every
    serialized schema-v2 record (schedule, spliced bus, events,
    per-frame verdicts, aggregate verdict) plus the ledger,
    ``TrafficStats`` and the AB1–AB5 property booleans compared
    directly.  The spec is fault-free, so the engine-fallback share
    must be exactly zero windows.  The batch timing clears the window
    memo cache inside every repeat — the gated ratio measures the
    evaluator, not the cache — and the PR 9 acceptance bar for
    ``speedup`` is >= 3x.
    """
    from repro.metrics.export import json_line
    from repro.traffic import (
        TrafficSpec,
        clear_window_cache,
        run_traffic,
        traffic_records,
    )

    spec = TrafficSpec(
        name="bench-traffic-batch",
        protocol="majorcan",
        m=5,
        n_nodes=6,
        windows=2,
        window_bits=2400,
        load=0.9,
        seed=13,
    )

    engine_elapsed, engine = _timed_best(lambda: run_traffic(spec, jobs=1))

    def batch_run():
        clear_window_cache()
        return run_traffic(spec, jobs=1, backend="batch")

    batch_elapsed, batch = _timed_best(batch_run)

    def lines(outcome):
        return [json_line(record) for record in traffic_records(outcome)]

    if lines(batch) != lines(engine):
        raise AssertionError(
            "batch traffic run diverged from the per-bit engine"
        )
    if (
        batch.ledger != engine.ledger
        or batch.stats != engine.stats
        or batch.properties != engine.properties
    ):
        raise AssertionError(
            "batch traffic ledger/stats/properties diverged from the engine"
        )
    if batch.backend_stats != {"batch": spec.windows}:
        raise AssertionError(
            "fault-free spec fell back to the engine: %r"
            % (batch.backend_stats,)
        )
    frames = batch.stats.frames_submitted
    return {
        "protocol": spec.protocol,
        "n_nodes": spec.n_nodes,
        "windows": spec.windows,
        "window_bits": spec.window_bits,
        "frames": frames,
        "bits": batch.stats.total_bits,
        "ledgers_identical": True,
        "atomic": batch.atomic,
        "engine_windows": 0,
        "engine": {
            "seconds": engine_elapsed,
            "frames_per_sec": (
                frames / engine_elapsed if engine_elapsed else float("inf")
            ),
        },
        "batch": {
            "seconds": batch_elapsed,
            "frames_per_sec": (
                frames / batch_elapsed if batch_elapsed else float("inf")
            ),
        },
        "speedup": (
            engine_elapsed / batch_elapsed if batch_elapsed else float("inf")
        ),
    }


def bench_noise_batch() -> Dict:
    """Engine vs vectorised noise scans (PR 10, :mod:`repro.analysis.noisebatch`).

    Two halves, both draw-order-preserving and asserted bit-identical
    before any timing is reported:

    * **traffic** — a contended MajorCAN profile with seeded per-bit
      noise at a realistic BER; the batch side scans each window's
      whole noise-draw prefix vectorised, returns the memoised clean
      replay when the scan comes back empty, and resumes the engine
      from the first flip otherwise.  The full serialized schema-v2
      surface must match the per-bit engine and the full-engine share
      must stay under 10% of windows.
    * **campaign** — a noisy seeded campaign; zero-flip rounds classify
      through the combo evaluator, flipped rounds rewind the generator
      and re-run on the engine.  The campaign surface must match.

    Both sides are best-of-3; every timed batch repeat starts from cold
    work caches (the window memo, the batch-replay caches and the
    campaign round-reference cache are cleared inside the repeat), so
    the gated ratios measure the scan + dispatch, not cache reuse.  The
    universes are identical in smoke and full runs; the PR 10
    acceptance bar is >= 3x on each half.
    """
    from repro.analysis.batchreplay import clear_caches
    from repro.faults.campaigns import _ROUND_REFERENCE, CampaignSpec, run_campaign
    from repro.metrics.export import json_line
    from repro.traffic import (
        TrafficSpec,
        clear_window_cache,
        run_traffic,
        traffic_records,
    )

    traffic_spec = TrafficSpec(
        name="bench-noise-traffic",
        protocol="majorcan",
        m=3,
        n_nodes=4,
        windows=40,
        window_bits=900,
        load=0.55,
        seed=11,
        noise_ber=2e-5,
    )

    def lines(outcome):
        return [json_line(record) for record in traffic_records(outcome)]

    traffic_engine_elapsed, traffic_engine = _timed_best(
        lambda: run_traffic(traffic_spec, jobs=1)
    )

    def traffic_batch_run():
        clear_window_cache()
        clear_caches()
        return run_traffic(traffic_spec, jobs=1, backend="batch")

    traffic_batch_elapsed, traffic_batch = _timed_best(traffic_batch_run)
    if lines(traffic_batch) != lines(traffic_engine):
        raise AssertionError(
            "noisy batch traffic run diverged from the per-bit engine"
        )
    split = dict(traffic_batch.backend_stats or {})
    engine_share = split.get("engine", 0) / traffic_spec.windows
    if engine_share >= 0.10:
        raise AssertionError(
            "noisy traffic full-engine share %.1f%% breaches the 10%% "
            "bound: %r" % (engine_share * 100.0, split)
        )

    campaign_spec = CampaignSpec(
        protocol="majorcan",
        n_nodes=4,
        rounds=60,
        attack_probability=0.4,
        noise_ber_star=2e-5,
        seed=17,
    )

    def campaign_surface(outcome):
        return (
            outcome.as_row(),
            outcome.omission_rounds,
            outcome.attacked_rounds,
            outcome.errors_injected,
        )

    campaign_engine_elapsed, campaign_engine = _timed_best(
        lambda: run_campaign(campaign_spec, backend="engine")
    )

    def campaign_batch_run():
        clear_caches()
        _ROUND_REFERENCE.clear()
        return run_campaign(campaign_spec, backend="batch")

    campaign_batch_elapsed, campaign_batch = _timed_best(campaign_batch_run)
    if campaign_surface(campaign_batch) != campaign_surface(campaign_engine):
        raise AssertionError(
            "noisy batch campaign rows diverged from the engine"
        )
    campaign_split = dict(campaign_batch.backend_stats or {})
    campaign_share = campaign_split.get("engine", 0) / campaign_spec.rounds
    if campaign_share >= 0.10:
        raise AssertionError(
            "noisy campaign engine share %.1f%% breaches the 10%% bound: %r"
            % (campaign_share * 100.0, campaign_split)
        )

    return {
        "traffic": {
            "protocol": traffic_spec.protocol,
            "m": traffic_spec.m,
            "n_nodes": traffic_spec.n_nodes,
            "windows": traffic_spec.windows,
            "noise_ber": traffic_spec.noise_ber,
            "records_identical": True,
            "backend_stats": split,
            "engine_share": engine_share,
            "engine": {"seconds": traffic_engine_elapsed},
            "batch": {"seconds": traffic_batch_elapsed},
            "speedup": (
                traffic_engine_elapsed / traffic_batch_elapsed
                if traffic_batch_elapsed
                else float("inf")
            ),
        },
        "campaign": {
            "protocol": campaign_spec.protocol,
            "rounds": campaign_spec.rounds,
            "noise_ber_star": campaign_spec.noise_ber_star,
            "rows_identical": True,
            "backend_stats": campaign_split,
            "engine_share": campaign_share,
            "engine": {"seconds": campaign_engine_elapsed},
            "batch": {"seconds": campaign_batch_elapsed},
            "speedup": (
                campaign_engine_elapsed / campaign_batch_elapsed
                if campaign_batch_elapsed
                else float("inf")
            ),
        },
    }


def _speedup(base: float, fast: float) -> float:
    return fast / base if base else float("inf")


#: Report sections in run order; ``--section`` picks a subset.
SECTIONS = (
    "engine",
    "controller",
    "capture",
    "montecarlo",
    "verify",
    "batch_enumeration",
    "header_enumeration",
    "montecarlo_batch",
    "multiflip_header",
    "campaign_batch",
    "reliability_batch",
    "traffic_steady_state",
    "traffic_batch",
    "sweep",
    "noise_batch",
)


def run_harness(jobs: int, smoke: bool, sections=None) -> Dict:
    """Run the selected benchmarks and assemble the report dict."""
    from repro.parallel.pool import cpu_count

    wanted = set(sections) if sections else set(SECTIONS)
    frames = 8 if smoke else 60
    trials = 32 if smoke else 256
    flips = 1 if smoke else 2
    # The engine and controller sections feed gated speedup ratios
    # (tools/perf_gate.py), so their workload must match the committed
    # full-run baseline even under --smoke: at 8 frames the fixed
    # per-run setup is not amortised and the ratio reads systematically
    # low.  A 60-frame run costs ~0.1s, so smoke keeps it.
    gated_frames = 60

    report = {
        "bench": "PR10 vectorised noise classification (+ PR9 "
        "frame-granular traffic batch backend, PR8 "
        "resumable design-space sweep service, PR7 "
        "steady-state traffic engine, PR6 multi-flip combo classification "
        "and campaign/reliability batch backends, PR5 header-site backend, "
        "PR4 vectorised enumeration, PR3 controller fast path, PR1 "
        "parallel trials)",
        "smoke": smoke,
        "host": {
            "cpu_count": cpu_count(),
            "python": sys.version.split()[0],
            "note": "parallel speedup is bounded above by cpu_count; "
            "the determinism contract (jobs=1 == jobs=N) holds regardless",
        },
    }
    if "engine" in wanted:
        recorded = bench_engine_bits(gated_frames, record_bits=True)
        fast = bench_engine_bits(gated_frames, record_bits=False)
        report["engine"] = {
            "recorded": recorded,
            "fast_path": fast,
            "fast_path_speedup": _speedup(
                recorded["bits_per_sec"], fast["bits_per_sec"]
            ),
        }
    if "controller" in wanted:
        ctrl_reference = bench_controller(gated_frames, fast_path=False)
        ctrl_fast = bench_controller(gated_frames, fast_path=True)
        report["controller"] = {
            "reference": ctrl_reference,
            "fast_path": ctrl_fast,
            # The PR 3 acceptance bar for this is >= 1.5x on the
            # record_bits=False hot loop.
            "fast_path_speedup": _speedup(
                ctrl_reference["bits_per_sec"], ctrl_fast["bits_per_sec"]
            ),
        }
    if "capture" in wanted:
        capture_base = bench_fast_path_bare(frames)
        capture_rec = bench_fast_path_capture(frames)
        report["capture"] = {
            "fast_path": capture_base,
            "fast_path_with_recording": capture_rec,
            # Relative slowdown of persisting each fast-path run via the
            # trace store; the PR 2 acceptance budget for this is <= 5%.
            "overhead": (
                capture_rec["seconds"] / capture_base["seconds"] - 1.0
                if capture_base["seconds"]
                else 0.0
            ),
        }
    if "montecarlo" in wanted:
        mc_serial = bench_montecarlo(trials, jobs=1)
        mc_parallel = bench_montecarlo(trials, jobs=jobs)
        report["montecarlo"] = {
            "serial": mc_serial,
            "parallel": mc_parallel,
            "speedup": _speedup(
                mc_serial["trials_per_sec"], mc_parallel["trials_per_sec"]
            ),
        }
    if "verify" in wanted:
        ver_serial = bench_verify(flips, jobs=1)
        ver_parallel = bench_verify(flips, jobs=jobs)
        report["verify"] = {
            "serial": ver_serial,
            "parallel": ver_parallel,
            "speedup": _speedup(
                ver_serial["placements_per_sec"],
                ver_parallel["placements_per_sec"],
            ),
        }
    if "batch_enumeration" in wanted:
        report["batch_enumeration"] = bench_batch_enumeration(2)
        report["batch_enumeration_majorcan"] = bench_batch_enumeration(
            1 if smoke else 2, protocol="majorcan"
        )
    if "header_enumeration" in wanted:
        report["header_enumeration"] = bench_header_enumeration()
    if "montecarlo_batch" in wanted:
        report["montecarlo_batch"] = bench_montecarlo_batch(500)
    if "multiflip_header" in wanted:
        report["multiflip_header"] = bench_multiflip_header()
    if "campaign_batch" in wanted:
        report["campaign_batch"] = bench_campaign_batch()
    if "reliability_batch" in wanted:
        report["reliability_batch"] = bench_reliability_batch()
    if "traffic_steady_state" in wanted:
        report["traffic_steady_state"] = bench_traffic_steady_state(smoke)
    if "traffic_batch" in wanted:
        report["traffic_batch"] = bench_traffic_batch()
    if "sweep" in wanted:
        report["sweep"] = bench_sweep()
    if "noise_batch" in wanted:
        report["noise_batch"] = bench_noise_batch()
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs", type=int, default=4, help="worker count for the parallel runs"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny counts — exercises every path in seconds (used by CI)",
    )
    parser.add_argument(
        "--out",
        default=os.path.join(_REPO_ROOT, "BENCH_PR10.json"),
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--section",
        action="append",
        choices=SECTIONS,
        default=None,
        help="run only the named section (repeatable; default: all)",
    )
    args = parser.parse_args(argv)

    report = run_harness(jobs=args.jobs, smoke=args.smoke, sections=args.section)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")

    if "engine" in report:
        print("engine     : %8.0f bits/s recorded, %8.0f bits/s fast path (x%.2f)" % (
            report["engine"]["recorded"]["bits_per_sec"],
            report["engine"]["fast_path"]["bits_per_sec"],
            report["engine"]["fast_path_speedup"],
        ))
    if "controller" in report:
        print("controller : %8.0f bits/s reference, %8.0f bits/s fast path (x%.2f)" % (
            report["controller"]["reference"]["bits_per_sec"],
            report["controller"]["fast_path"]["bits_per_sec"],
            report["controller"]["fast_path_speedup"],
        ))
    if "capture" in report:
        print("capture    : %8.0f bits/s bare, %8.0f bits/s recording (%+.1f%% overhead)" % (
            report["capture"]["fast_path"]["bits_per_sec"],
            report["capture"]["fast_path_with_recording"]["bits_per_sec"],
            report["capture"]["overhead"] * 100.0,
        ))
    if "montecarlo" in report:
        print("montecarlo : %8.1f trials/s serial, %8.1f trials/s at jobs=%d (x%.2f)" % (
            report["montecarlo"]["serial"]["trials_per_sec"],
            report["montecarlo"]["parallel"]["trials_per_sec"],
            args.jobs,
            report["montecarlo"]["speedup"],
        ))
    if "verify" in report:
        print("verify     : %8.1f placements/s serial, %8.1f at jobs=%d (x%.2f)" % (
            report["verify"]["serial"]["placements_per_sec"],
            report["verify"]["parallel"]["placements_per_sec"],
            args.jobs,
            report["verify"]["speedup"],
        ))
    for key in ("batch_enumeration", "batch_enumeration_majorcan"):
        if key in report:
            section = report[key]
            print(
                "batch      : %-8s flips=%d %6d placements, %8.1f/s engine,"
                " %9.1f/s batch (x%.2f)"
                % (
                    section["protocol"],
                    section["max_flips"],
                    section["placements"],
                    section["engine"]["placements_per_sec"],
                    section["batch"]["placements_per_sec"],
                    section["speedup"],
                )
            )
    if "header_enumeration" in report:
        section = report["header_enumeration"]
        print(
            "header     : m=%s check_f1 sweep, %6.2fs engine, %6.2fs batch"
            " (x%.2f)"
            % (
                ",".join(str(m) for m in section["m_values"]),
                section["engine"]["seconds"],
                section["batch"]["seconds"],
                section["speedup"],
            )
        )
    if "montecarlo_batch" in report:
        section = report["montecarlo_batch"]
        print(
            "mc batch   : %6d trials, %8.1f trials/s engine,"
            " %9.1f trials/s batch (x%.2f)"
            % (
                section["trials"],
                section["engine"]["trials_per_sec"],
                section["batch"]["trials_per_sec"],
                section["speedup"],
            )
        )
    if "multiflip_header" in report:
        section = report["multiflip_header"]
        print(
            "multiflip  : %-8s m=%d n=%d %6d combos, %8.1f/s engine,"
            " %9.1f/s batch (x%.2f, engine share %.2f%%)"
            % (
                section["protocol"],
                section["m"],
                section["n_nodes"],
                section["combos"],
                section["engine"]["combos_per_sec"],
                section["batch"]["combos_per_sec"],
                section["speedup"],
                section["engine_share"] * 100.0,
            )
        )
    if "campaign_batch" in report:
        section = report["campaign_batch"]
        print(
            "campaign   : %6d rounds, %8.1f rounds/s engine,"
            " %9.1f rounds/s batch (x%.2f, engine share %.2f%%)"
            % (
                section["rounds"],
                section["engine"]["rounds_per_sec"],
                section["batch"]["rounds_per_sec"],
                section["speedup"],
                section["engine_share"] * 100.0,
            )
        )
    if "reliability_batch" in report:
        section = report["reliability_batch"]
        print(
            "reliability: ber=%g enumerated rates, %6.2fs engine,"
            " %6.2fs batch (x%.2f, engine share %.2f%%)"
            % (
                section["ber"],
                section["engine"]["seconds"],
                section["batch"]["seconds"],
                section["speedup"],
                section["engine_share"] * 100.0,
            )
        )
    if "traffic_steady_state" in report:
        section = report["traffic_steady_state"]
        print(
            "traffic    : %6d frames/%d bits, %8.1f frames/s reference,"
            " %8.1f frames/s fast path (x%.2f)"
            % (
                section["frames"],
                section["bits"],
                section["reference"]["frames_per_sec"],
                section["fast_path"]["frames_per_sec"],
                section["speedup"],
            )
        )
        if "paper_profile" in section:
            profile = section["paper_profile"]
            print(
                "traffic    : paper profile n=%d load=%.2f: %d frames"
                " (%d delivered) in %.1fs, %8.1f frames/s, atomic=%s"
                % (
                    profile["n_nodes"],
                    profile["load"],
                    profile["frames"],
                    profile["delivered"],
                    profile["seconds"],
                    profile["frames_per_sec"],
                    profile["atomic"],
                )
            )
    if "traffic_batch" in report:
        section = report["traffic_batch"]
        print(
            "trafficbat : %6d frames/%d bits, %8.1f frames/s engine,"
            " %9.1f frames/s batch (x%.2f, engine windows %d)"
            % (
                section["frames"],
                section["bits"],
                section["engine"]["frames_per_sec"],
                section["batch"]["frames_per_sec"],
                section["speedup"],
                section["engine_windows"],
            )
        )
    if "sweep" in report:
        section = report["sweep"]
        print(
            "sweep      : %6d cells, %8.2f cells/s engine,"
            " %9.2f cells/s batch (x%.2f, re-run evaluated %d)"
            % (
                section["cells"],
                section["engine"]["cells_per_sec"],
                section["batch"]["cells_per_sec"],
                section["speedup"],
                section["rerun_evaluated"],
            )
        )
    if "noise_batch" in report:
        section = report["noise_batch"]
        print(
            "noise      : traffic %2d windows %6.2fs engine, %6.2fs batch"
            " (x%.2f, engine share %.1f%%)"
            % (
                section["traffic"]["windows"],
                section["traffic"]["engine"]["seconds"],
                section["traffic"]["batch"]["seconds"],
                section["traffic"]["speedup"],
                section["traffic"]["engine_share"] * 100.0,
            )
        )
        print(
            "noise      : campaign %2d rounds %6.2fs engine, %6.2fs batch"
            " (x%.2f, engine share %.1f%%)"
            % (
                section["campaign"]["rounds"],
                section["campaign"]["engine"]["seconds"],
                section["campaign"]["batch"]["seconds"],
                section["campaign"]["speedup"],
                section["campaign"]["engine_share"] * 100.0,
            )
        )
    print("report     : %s (cpu_count=%d)" % (args.out, report["host"]["cpu_count"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
