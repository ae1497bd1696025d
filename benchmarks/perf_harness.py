#!/usr/bin/env python
"""Performance harness: reference-vs-candidate rows, identity asserted.

Every measurement is one :class:`Row` in :func:`rows`: the same
workload run through a *reference* (the per-bit engine, the reference
controller, ``jobs=1``, the bare fast path) and a *candidate* (the
batch backend, the table-driven controller, ``jobs=N``, the fast path
plus a trace-store dump).  :func:`run_row` times both sides best-of-
``repeats``, asserts the two sides agree on the row's identity surface
(raising on any difference), checks the candidate's engine-share bound
when the row has one, and returns the report entry::

    {"items": ..., "unit": ..., "reference": {"seconds", "per_sec"},
     "candidate": {"seconds", "per_sec"}, "speedup": ...,
     "engine_share": ...}   # engine_share only on rows that route work

``speedup`` is reference seconds over candidate seconds.  The gated
subset is listed in ``tools/perf_gate.py``; the row universes are the
same in smoke and full runs wherever a ratio is gated, so a smoke
report compares against the committed full-run baseline.  Smoke only
shrinks the ungated ``capture``, ``montecarlo``, ``verify`` and
``batch_enumeration_majorcan`` universes.  The report also records the
host's ``cpu_count``: parallel speedup is bounded by it.

``docs/performance.md`` tabulates every row: reference, candidate,
identity surface, gated key and bound.

Usage::

    python benchmarks/perf_harness.py [--smoke] [--jobs N] [--out PATH]
        [--section NAME ...]
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, replace
from functools import partial
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_REPO_ROOT, "src")
if _SRC not in sys.path:
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, _SRC)

from repro.analysis.batchreplay import BatchReplayEvaluator, clear_caches  # noqa: E402
from repro.analysis.montecarlo import monte_carlo_tail  # noqa: E402
from repro.analysis.reliability import reliability_comparison  # noqa: E402
from repro.analysis.sweeps import m_ablation  # noqa: E402
from repro.analysis.verification import header_sites, verify_consistency  # noqa: E402
from repro.can.controller import CanController  # noqa: E402
from repro.can.controller_config import ControllerConfig  # noqa: E402
from repro.can.fields import EOF  # noqa: E402
from repro.can.frame import data_frame  # noqa: E402
from repro.faults.campaigns import _ROUND_REFERENCE, CampaignSpec, run_campaign  # noqa: E402
from repro.faults.injector import ScriptedInjector, Trigger, ViewFault  # noqa: E402
from repro.faults.scenarios import make_controller, run_single_frame_scenario  # noqa: E402
from repro.metrics.export import json_line, write_jsonl  # noqa: E402
from repro.parallel.pool import cpu_count  # noqa: E402
from repro.simulation.engine import SimulationEngine  # noqa: E402
from repro.sweep import ResultStore, SweepSpec, run_sweep  # noqa: E402
from repro.tracestore.recorder import event_record  # noqa: E402
from repro.traffic import (  # noqa: E402
    TrafficSpec,
    run_traffic,
    traffic_records,
)


@dataclass(frozen=True)
class Row:
    """One reference-vs-candidate measurement.

    ``key`` is the report path (dotted keys nest).  ``surface`` maps a
    side's result to what both sides must agree on; ``items`` and
    ``share`` read the candidate's result.  ``warm`` runs once, untimed,
    before any timing; ``cold`` runs at the start of every timed
    candidate repeat, so the candidate pays for rebuilding the caches
    it clears.  A ``staged`` row's sides build their workload untimed
    and return the thunk to time.  ``alias`` repeats the speedup under
    a second report key.
    """

    key: str
    reference: Callable[[], Any]
    candidate: Callable[[], Any]
    surface: Callable[[Any], Any]
    items: Callable[[Any], int]
    unit: str
    warm: Optional[Callable[[], Any]] = None
    cold: Optional[Callable[[], Any]] = None
    share: Optional[Callable[[Any], float]] = None
    max_share: Optional[float] = None
    repeats: int = 3
    staged: bool = False
    alias: Optional[str] = None


def _timed_best(row: Row, side: Callable, cold: Optional[Callable]):
    """Best-of-``row.repeats`` wall time of ``side`` plus its last result.

    The batch-side denominators are a few milliseconds, so a single
    sample makes the gated ratios noisy; the minimum over a few repeats
    is the standard stable estimator.
    """
    best = result = None
    for _ in range(row.repeats):
        run = side() if row.staged else side
        started = time.perf_counter()
        if cold is not None:
            cold()
        result = run()
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def _rate(seconds: float, items: int) -> Dict[str, float]:
    return {
        "seconds": seconds,
        "per_sec": items / seconds if seconds else float("inf"),
    }


def run_row(row: Row) -> Dict[str, Any]:
    """Time ``row``, assert identity and its share bound, return its entry."""
    if row.warm is not None:
        row.warm()
    reference_s, reference = _timed_best(row, row.reference, None)
    candidate_s, candidate = _timed_best(row, row.candidate, row.cold)
    if row.surface(reference) != row.surface(candidate):
        raise AssertionError(
            "%s: the candidate diverged from the reference" % row.key
        )
    items = row.items(candidate)
    entry = {
        "items": items,
        "unit": row.unit,
        "reference": _rate(reference_s, items),
        "candidate": _rate(candidate_s, items),
        "speedup": reference_s / candidate_s if candidate_s else float("inf"),
    }
    if row.alias:
        entry[row.alias] = entry["speedup"]
    if row.share is not None:
        share = entry["engine_share"] = row.share(candidate)
        # A bound of 0 demands no engine work at all; any other bound
        # is exclusive.
        if row.max_share is not None and share > 0 and share >= row.max_share:
            raise AssertionError(
                "%s: engine share %.1f%% breaches the %.0f%% bound"
                % (row.key, share * 100.0, row.max_share * 100.0)
            )
    return entry


def _engine_share(stats: Optional[dict], total: Optional[int] = None) -> float:
    """Engine-routed fraction of ``total`` (default: all routed items)."""
    stats = stats or {}
    total = total if total is not None else sum(stats.values())
    return stats.get("engine", 0) / total if total else 0.0


# -- engine and controller hot loops (staged: setup untimed) ---------------


def _engine_stage(
    frames: int,
    record_bits: bool = False,
    fast_path: bool = True,
    capture: bool = False,
) -> Callable[[], int]:
    """Three nodes, ``frames`` queued frames; the thunk returns the bits.

    With ``capture`` the thunk also dumps the run through the trace
    store after it ends: capture takes no per-bit hook, so recording
    costs one serialization pass over the bus history and events.
    """
    config = ControllerConfig(fast_path=fast_path)
    nodes = [CanController(name, config) for name in ("tx", "r1", "r2")]
    engine = SimulationEngine(nodes, record_bits=record_bits)
    for index in range(frames):
        nodes[0].submit(data_frame(0x100 + (index % 0x200), b"\x55\xaa"))

    def run() -> int:
        engine.run_until_idle(max_bits=10_000_000)
        if capture:
            levels = "".join(level.symbol for level in engine.bus.history)
            records = itertools.chain(
                [{"type": "bus", "levels": levels}],
                (event_record(event) for event in engine.trace.events),
            )
            with tempfile.TemporaryDirectory() as tmp:
                write_jsonl(os.path.join(tmp, "bench.jsonl"), records)
        return engine.time

    return run


def _engine_row(key: str, frames: int, reference: dict, candidate: dict,
                alias: Optional[str] = None) -> Row:
    return Row(
        key,
        reference=partial(_engine_stage, frames, **reference),
        candidate=partial(_engine_stage, frames, **candidate),
        surface=lambda bits: bits,
        items=lambda bits: bits,
        unit="bits",
        staged=True,
        alias=alias,
    )


# -- statistical workloads --------------------------------------------------


_monte_carlo = partial(monte_carlo_tail, "can", n_nodes=3, ber_star=0.08, seed=7)


def _monte_carlo_row(key: str, trials: int, jobs: int = 1,
                     backend: str = "engine", **fields) -> Row:
    """Seeded ``monte_carlo_tail`` at ``jobs=1`` on the engine vs the
    given ``jobs``/``backend``: every count must be bit-identical."""
    return Row(
        key,
        reference=partial(_monte_carlo, trials=trials, jobs=1),
        candidate=partial(_monte_carlo, trials=trials, jobs=jobs, backend=backend),
        surface=attrgetter(
            "imo", "double_reception", "inconsistent", "no_fault_trials",
            "flips_total",
        ),
        items=lambda result: trials,
        unit="trials",
        **fields,
    )


def _verify_row(key: str, protocol: str, max_flips: int, jobs: int = 1,
                backend: str = "engine", **fields) -> Row:
    """``verify_consistency`` at m=5 over three nodes, ``jobs=1`` on the
    engine vs the given ``jobs``/``backend``: equal placement counts
    and counterexamples."""
    verify = partial(
        verify_consistency, protocol, m=5, n_nodes=3, max_flips=max_flips
    )
    return Row(
        key,
        reference=partial(verify, jobs=1),
        candidate=partial(verify, jobs=jobs, backend=backend),
        surface=lambda result: (
            result.runs,
            [str(c) for c in result.counterexamples],
        ),
        items=lambda result: result.runs,
        unit="placements",
        **fields,
    )


_M_VALUES = (3, 4, 5, 6, 7)


def _ablation(m_values=_M_VALUES, backend: str = "engine"):
    return m_ablation(m_values=m_values, check_f1=True, jobs=1, backend=backend)


def _multiflip_row(protocol: str = "can", m: int = 5, n_nodes: int = 6) -> Row:
    """The ≤2-flip universe (every header and EOF site: all singles,
    all pairs and the clean combo) at six nodes, one engine run per
    combo vs the batch evaluator, where receiver symmetry folds the
    ~2.2k combos onto a far smaller canonical set."""
    node_names = tuple(["tx"] + ["r%d" % index for index in range(1, n_nodes)])
    frame = data_frame(0x123, b"", message_id="bench")
    combos: List[tuple] = []

    def engine_pass():
        verdicts = []
        for combo in combos:
            nodes = [make_controller(protocol, name, m=m) for name in node_names]
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
            deliveries = tuple(outcome.deliveries[name] for name in node_names)
            verdicts.append((deliveries, outcome.attempts))
        return verdicts, None

    def batch_pass():
        evaluator = BatchReplayEvaluator(protocol, m, node_names, frame=frame)
        placed = evaluator.evaluate(combos)
        verdicts = zip(map(tuple, placed.deliveries.tolist()), placed.attempts.tolist())
        return list(verdicts), evaluator.stats

    def warm():
        probe = make_controller(protocol, "probe", m=m)
        sites = list(header_sites(node_names, data_bits=0))
        sites += [
            (name, EOF, index)
            for name in node_names
            for index in range(probe.geometry.eof_length)
        ]
        combos[:] = (
            [()] + [(site,) for site in sites]
            + list(itertools.combinations(sites, 2))
        )
        clear_caches()
        batch_pass()  # pays the shape compile for ``frame``

    return Row(
        "multiflip_header",
        reference=engine_pass,
        candidate=batch_pass,
        surface=lambda result: result[0],
        items=lambda result: len(result[0]),
        unit="combos",
        warm=warm,
        cold=clear_caches,
        share=lambda result: _engine_share(result[1], len(result[0])),
    )


def _campaign_row(key: str, spec: CampaignSpec, warm=None, cold=clear_caches,
                  max_share: Optional[float] = None) -> Row:
    return Row(
        key,
        reference=partial(run_campaign, spec, backend="engine"),
        candidate=partial(run_campaign, spec, backend="batch"),
        surface=lambda outcome: (
            outcome.as_row(),
            outcome.omission_rounds,
            outcome.attacked_rounds,
            outcome.errors_injected,
        ),
        items=lambda outcome: spec.rounds,
        unit="rounds",
        warm=warm,
        cold=cold,
        share=lambda outcome: _engine_share(outcome.backend_stats, spec.rounds),
        max_share=max_share,
    )


def _warm_campaign() -> None:
    warm_up = CampaignSpec(
        protocol="can", n_nodes=4, rounds=2, attack_probability=0.5, seed=17
    )
    run_campaign(warm_up, backend="engine")
    run_campaign(warm_up, backend="batch")  # compiles the campaign frame shape


_RELIABILITY_FIELDS = attrgetter(
    "protocol", "ber", "imo_rate_per_hour", "mttf_hours", "mission_survival"
)


def _route_totals(rows) -> Counter:
    return sum((Counter(row.backend_stats or {}) for row in rows), Counter())


# -- traffic and sweeps -----------------------------------------------------


def _traffic_lines(outcome) -> List[str]:
    return [json_line(record) for record in traffic_records(outcome)]


def _traffic_row(key: str, spec: TrafficSpec, **fields) -> Row:
    """The per-bit engine vs the batch backend on one traffic spec."""
    return Row(
        key,
        reference=partial(run_traffic, spec, jobs=1),
        candidate=partial(run_traffic, spec, jobs=1, backend="batch"),
        items=lambda outcome: outcome.stats.frames_submitted,
        unit="frames",
        share=lambda outcome: _engine_share(outcome.backend_stats, spec.windows),
        **fields,
    )


def _sweep_row() -> Row:
    """Engine vs batch ``run_sweep`` into a fresh store per repeat.

    The stored payloads must match cell for cell (the backend is part
    of the key, so the physics is compared, not the hashes), and a
    re-run into either completed store must evaluate zero cells.
    """
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
    stores = itertools.count()
    workdir: List[tempfile.TemporaryDirectory] = []

    def run_with(backend: str):
        store = ResultStore(
            os.path.join(workdir[0].name, "%s-%d" % (backend, next(stores)))
        )
        run_sweep(spec, store, jobs=1, backend=backend)
        return store, backend

    def warm():
        workdir.append(tempfile.TemporaryDirectory(prefix="perf-sweep-"))
        run_with("engine")
        run_with("batch")

    def physics(result):
        store, backend = result
        rerun = run_sweep(spec, store, jobs=1, backend=backend)
        if rerun.evaluated != 0:
            raise AssertionError(
                "completed sweep re-evaluated %d cells" % rerun.evaluated
            )
        return {
            json_line(record["cell"]): {
                key: value
                for key, value in record["result"].items()
                if key != "backend_stats"
            }
            for record in store.records().values()
        }

    return Row(
        "sweep",
        reference=partial(run_with, "engine"),
        candidate=partial(run_with, "batch"),
        surface=physics,
        items=lambda result: spec.cell_count(),
        unit="cells",
        warm=warm,
        cold=clear_caches,
    )


# -- the table --------------------------------------------------------------


def rows(smoke: bool = False, jobs: int = 4) -> List[Row]:
    """Every harness row in run order.  Building a row runs nothing."""
    # The engine and controller rows feed gated ratios, so they keep
    # the full-run 60 frames under --smoke: at 8 frames the per-run
    # setup is not amortised and the ratio reads systematically low.
    gated_frames = 60
    frames = 8 if smoke else 60
    trials = 32 if smoke else 256
    flips = 1 if smoke else 2
    # A clean contended profile: six MajorCAN_5 nodes at 90% load.
    contended = partial(
        TrafficSpec, protocol="majorcan", m=5, n_nodes=6, windows=2, load=0.9,
        seed=13,
    )
    steady = contended(name="bench-traffic", window_bits=1200)
    noisy = TrafficSpec(
        name="bench-noise-traffic", protocol="majorcan", m=3, n_nodes=4,
        windows=40, window_bits=900, load=0.55, seed=11, noise_ber=2e-5,
    )
    return [
        _engine_row(
            "engine", gated_frames, {"record_bits": True}, {},
            alias="fast_path_speedup",
        ),
        _engine_row(
            "controller", gated_frames, {"fast_path": False}, {},
            alias="fast_path_speedup",
        ),
        _engine_row("capture", frames, {}, {"capture": True}),
        _monte_carlo_row("montecarlo", trials, jobs, repeats=1),
        _verify_row("verify", "can", flips, jobs, repeats=1),
        _verify_row("batch_enumeration", "can", 2, backend="batch", cold=clear_caches),
        _verify_row(
            "batch_enumeration_majorcan", "majorcan", flips, backend="batch",
            cold=clear_caches,
        ),
        Row(
            "header_enumeration",
            reference=_ablation,
            candidate=partial(_ablation, backend="batch"),
            # Rows carry backend provenance (None on the engine).
            surface=lambda rows: [replace(r, backend_stats=None) for r in rows],
            items=lambda rows: sum(r.tail_errors_verified for r in rows),
            unit="placements",
            warm=lambda: (
                _ablation(_M_VALUES[:1]),
                _ablation(_M_VALUES[:1], backend="batch"),
            ),
            cold=clear_caches,
        ),
        _monte_carlo_row(
            "montecarlo_batch",
            500,
            backend="batch",
            warm=lambda: (
                _monte_carlo(trials=8, jobs=1),
                _monte_carlo(trials=8, jobs=1, backend="batch"),
            ),
            cold=clear_caches,
        ),
        _multiflip_row(),
        _campaign_row(
            "campaign_batch",
            CampaignSpec(
                protocol="can", n_nodes=4, rounds=96, attack_probability=0.5,
                seed=17,
            ),
            warm=_warm_campaign,
        ),
        Row(
            "reliability_batch",
            reference=partial(reliability_comparison, 1e-5, backend="engine"),
            candidate=partial(reliability_comparison, 1e-5, backend="batch"),
            surface=lambda rows: [_RELIABILITY_FIELDS(row) for row in rows],
            items=lambda rows: sum(_route_totals(rows).values()),
            unit="patterns",
            warm=lambda: (
                reliability_comparison(1e-5, backend="engine"),
                reliability_comparison(1e-5, backend="batch"),
            ),
            cold=clear_caches,
            share=lambda rows: _engine_share(_route_totals(rows)),
        ),
        Row(
            "traffic_steady_state",
            reference=partial(run_traffic, replace(steady, fast_path=False), jobs=1),
            candidate=partial(run_traffic, steady, jobs=1),
            # Everything but the manifest: the fast_path knob lives there.
            surface=lambda outcome: _traffic_lines(outcome)[1:],
            items=lambda outcome: outcome.stats.frames_submitted,
            unit="frames",
        ),
        _traffic_row(
            "traffic_batch",
            contended(name="bench-traffic-batch", window_bits=2400),
            surface=lambda outcome: (
                _traffic_lines(outcome),
                outcome.ledger,
                outcome.stats,
                outcome.properties,
            ),
            max_share=0.0,
        ),
        _sweep_row(),
        _traffic_row(
            "noise_batch.traffic",
            noisy,
            surface=_traffic_lines,
            cold=clear_caches,
            max_share=0.10,
        ),
        _campaign_row(
            "noise_batch.campaign",
            CampaignSpec(
                protocol="majorcan", n_nodes=4, rounds=60,
                attack_probability=0.4, noise_ber_star=2e-5, seed=17,
            ),
            cold=lambda: (clear_caches(), _ROUND_REFERENCE.clear()),
            max_share=0.10,
        ),
    ]


def _selected(key: str, sections) -> bool:
    return not sections or any(
        key == name or key.startswith(name + ".") for name in sections
    )


#: ``--section`` choices: every row key plus each dotted key's prefix.
SECTIONS = tuple(
    dict.fromkeys(
        name
        for row in rows()
        for name in (row.key.split(".")[0], row.key)
    )
)


def run_harness(jobs: int, smoke: bool, sections=None) -> Dict:
    """Run the selected rows, print one line each, return the report."""
    report: Dict[str, Any] = {
        "smoke": smoke,
        "host": {
            "cpu_count": cpu_count(),
            "python": sys.version.split()[0],
            "note": "parallel speedup is bounded above by cpu_count; "
            "the determinism contract (jobs=1 == jobs=N) holds regardless",
        },
    }
    for row in rows(smoke, jobs):
        if not _selected(row.key, sections):
            continue
        entry = run_row(row)
        *parents, leaf = row.key.split(".")
        node = report
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = entry
        share = entry.get("engine_share")
        print(
            "%-27s %7d %-10s %12.1f/s ref %12.1f/s cand  x%-6.2f%s"
            % (
                row.key,
                entry["items"],
                entry["unit"],
                entry["reference"]["per_sec"],
                entry["candidate"]["per_sec"],
                entry["speedup"],
                "" if share is None else "  engine share %.1f%%" % (share * 100.0),
            )
        )
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
        default=os.path.join(_REPO_ROOT, "bench-report.json"),
        help="where to write the JSON report (re-baselining the perf gate "
        "is an explicit --out BENCH_PR10.json)",
    )
    parser.add_argument(
        "--section",
        action="append",
        choices=SECTIONS,
        default=None,
        help="run only the named row, or every row under a dotted prefix "
        "(repeatable; default: all)",
    )
    args = parser.parse_args(argv)

    report = run_harness(jobs=args.jobs, smoke=args.smoke, sections=args.section)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    print("report: %s (cpu_count=%d)" % (args.out, report["host"]["cpu_count"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
