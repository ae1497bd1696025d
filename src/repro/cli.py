"""Command-line entry point: ``majorcan-repro <command>``.

Each sub-command regenerates one of the paper's artefacts:

* ``table1``      — Table 1 (analytical IMO rates per hour);
* ``scenarios``   — Fig. 1/2/3/5 deterministic scenario outcomes;
* ``fig4``        — the MajorCAN_m per-bit behaviour table;
* ``matrix``      — the Atomic Broadcast property matrices;
* ``overhead``    — the 2m-7 / 4m-9 overhead arithmetic, measured;
* ``enumerate``   — exact tail-pattern enumeration vs. equation 4;
* ``montecarlo``  — stochastic validation of the model;
* ``verify``      — bounded exhaustive consistency verification;
* ``geometry``    — the Section 5 frame-end geometry, derived/checked;
* ``ablation``    — the m-choice ablation and the CAN6' revision;
* ``campaign``    — seeded multi-round attack campaigns;
* ``reliability`` — Table 1 restated as mission survival.

The trace store (:mod:`repro.tracestore`) adds four more:

* ``record``      — run a figure scenario and persist it as JSONL;
* ``replay``      — re-run a recording and diff against it;
* ``diff``        — structured diff of two recordings;
* ``corpus``      — check/update the golden-scenario corpus.

The traffic engine (:mod:`repro.traffic`) adds one more:

* ``traffic``     — steady-state multi-frame run with per-frame ledger
  verdicts, optionally recorded as a schema-v2 trace.

The sweep service (:mod:`repro.sweep`) adds one more:

* ``sweep``       — resumable design-space sweeps against a
  content-addressed result store (``plan``/``run``/``status``/
  ``export``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

#: The link-layer protocols the commands accept.  Spelled here rather
#: than imported from :mod:`repro.can.geometry`, which would load the
#: CAN stack on every ``repro.cli`` start-up; a test keeps the two equal.
PROTOCOLS = ("can", "minorcan", "majorcan")


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.analysis.table1 import generate_table1, render_table1

    print(render_table1(generate_table1()))
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.faults.scenarios import SCENARIOS

    protocols = [args.protocol] if args.protocol else PROTOCOLS
    for name in ("fig1a", "fig1b", "fig1c", "fig3"):
        for protocol in protocols:
            print(SCENARIOS[name](protocol, m=args.m).summary())
    if args.protocol in (None, "majorcan"):
        print(SCENARIOS["fig5"]("majorcan", m=args.m).summary())
    return 0


def _cmd_fig4(args: argparse.Namespace) -> int:
    from repro.faults.scenarios import fig4_behaviour, render_behaviour

    print("Behaviour of a MajorCAN_%d node:" % args.m)
    for line in render_behaviour(fig4_behaviour(args.m)):
        print("  " + line)
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    from repro.properties.matrix import core_matrix, hlp_matrix, render_matrix

    print("Link-layer protocols:")
    print(render_matrix(core_matrix(m=args.m)))
    print()
    print("Higher-level protocols (Rufino et al.):")
    print(render_matrix(hlp_matrix()))
    return 0


def _cmd_overhead(args: argparse.Namespace) -> int:
    from repro.analysis.overhead import (
        best_case_overhead_bits,
        measured_overhead,
        worst_case_overhead_bits,
    )

    m = args.m
    print("MajorCAN_%d overhead vs standard CAN" % m)
    print("  formula : best %d bits, worst %d bits"
          % (best_case_overhead_bits(m), worst_case_overhead_bits(m)))
    if 3 <= m <= 5:
        measured = measured_overhead(m)
        print("  measured: best %d bits, worst %d bits"
              % (measured.best_case, measured.worst_case))
    else:
        print("  measured: (worst-case measurement defined for m in [3, 5])")
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    from repro.analysis.enumeration import (
        enumerate_tail_patterns,
        equation4_tail_prediction,
    )

    result = enumerate_tail_patterns(
        protocol=args.protocol or "can",
        n_nodes=args.nodes,
        window=args.window,
        ber_star=args.ber_star,
        backend=args.backend,
    )
    print("protocol=%s nodes=%d window=%d patterns=%d"
          % (result.protocol, result.n_nodes, result.window, len(result.outcomes)))
    print("  P(IMO) enumerated : %.6e" % result.p_inconsistent_omission)
    print("  P(IMO) equation 4 : %.6e"
          % equation4_tail_prediction(args.ber_star, args.nodes, result.tau_data))
    print("  P(double)         : %.6e" % result.p_double_reception)
    print("  IMO patterns      : %d" % len(result.imo_patterns()))
    _print_backend_stats(result.backend_stats)
    return 0


def _cmd_montecarlo(args: argparse.Namespace) -> int:
    from repro.analysis.montecarlo import monte_carlo_tail

    result = monte_carlo_tail(
        protocol=args.protocol or "can",
        n_nodes=args.nodes,
        ber_star=args.ber_star,
        trials=args.trials,
        seed=args.seed,
        jobs=args.jobs,
        backend=args.backend,
    )
    low, high = result.imo_confidence_interval()
    print("trials=%d flips=%d" % (result.trials, result.flips_total))
    print("  P(IMO)  : %.4f  (95%% CI [%.4f, %.4f])" % (result.p_imo, low, high))
    print("  P(incons): %.4f" % result.p_inconsistent)
    _print_backend_stats(result.backend_stats)
    return 0


def _cmd_geometry(args: argparse.Namespace) -> int:
    from repro.analysis.geometry import geometry_report

    print(geometry_report(args.m))
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.faults.campaigns import compare_protocols
    from repro.metrics.report import render_table

    outcomes = compare_protocols(
        jobs=args.jobs,
        backend=args.backend,
        rounds=args.rounds,
        attack_probability=args.attack,
        noise_ber_star=args.noise,
        seed=args.seed,
    )
    print(
        render_table(
            [outcome.as_row() for outcome in outcomes],
            columns=[
                "protocol",
                "rounds",
                "attacked",
                "consistent",
                "imo",
                "double",
                "errors",
            ],
            title="Consistency campaign (Fig. 3a attacks + optional noise)",
        )
    )
    _print_backend_stats(*(outcome.backend_stats for outcome in outcomes))
    return 0


def _cmd_reliability(args: argparse.Namespace) -> int:
    from repro.analysis.reliability import reliability_sweep
    from repro.analysis.residual import residual_table, smallest_m_meeting_target
    from repro.metrics.report import render_table

    ber_values = args.bers if args.bers else [args.ber]
    backend = None if args.backend == "analytic" else args.backend
    sweep = reliability_sweep(
        ber_values, mission_hours=(1.0, 8760.0), jobs=args.jobs, backend=backend
    )
    for ber, rows in sweep.items():
        source = "paper profile" if backend is None else (
            "paper profile, enumerated tail on the %s backend" % backend
        )
        print("Channel-error IMO reliability at ber=%.0e (%s):" % (ber, source))
        for row in rows:
            print(
                "  %-9s rate=%.3e /h  MTTF=%s h  P(survive 1 year)=%.6f"
                % (
                    row.protocol,
                    row.imo_rate_per_hour,
                    "inf" if row.mttf_hours == float("inf") else "%.3e" % row.mttf_hours,
                    row.mission_survival[8760.0],
                )
            )
    _print_backend_stats(
        *(row.backend_stats for rows in sweep.values() for row in rows)
    )
    print()
    print(
        render_table(
            [
                {
                    "ber": "%.0e" % row.ber,
                    "m": row.m,
                    "upper bound /h": row.upper_bound_per_hour,
                    "tail bound /h": row.tail_bound_per_hour,
                    "meets 1e-9": row.meets_target_upper,
                }
                for row in residual_table()
            ],
            columns=["ber", "m", "upper bound /h", "tail bound /h", "meets 1e-9"],
            title="Residual of MajorCAN_m — P(>m errors/frame) as incidents/hour",
        )
    )
    print(
        "smallest m meeting 1e-9/h (upper bound): "
        + ", ".join(
            "ber=%.0e -> m>=%d" % (ber, smallest_m_meeting_target(ber))
            for ber in (1e-4, 1e-5, 1e-6)
        )
    )
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    from repro.analysis.sweeps import (
        imo_rate_sweep,
        m_ablation,
        omission_degree_revision,
    )
    from repro.metrics.report import render_table

    rows = m_ablation(
        m_values=tuple(args.m_values),
        tail_flips=args.flips,
        jobs=args.jobs,
        backend=args.backend,
    )
    print(
        render_table(
            [
                {
                    "m": row.m,
                    "best bits": row.best_case_bits,
                    "worst bits": row.worst_case_bits,
                    "tail ok": row.tail_consistent,
                    "F1 closed": row.f1_channel_closed,
                }
                for row in rows
            ],
            columns=["m", "best bits", "worst bits", "tail ok", "F1 closed"],
            title="Choice of m — overhead vs verified robustness",
        )
    )
    _print_backend_stats(*(row.backend_stats for row in rows))
    print()
    for ber in (1e-4, 1e-5, 1e-6):
        revision = omission_degree_revision(ber)
        print(
            "CAN6' at ber=%.0e: j=%.2e  j'=%.2e  (x%.0f)"
            % (ber, revision.j_old_scenarios, revision.j_prime_with_new, revision.inflation)
        )
    print()
    print(
        render_table(
            [
                {
                    "N": point.n_nodes,
                    "IMOnew/hour": point.imo_new_per_hour,
                    "IMO*/hour": point.imo_star_per_hour,
                    "ratio": point.ratio,
                }
                for point in imo_rate_sweep((1e-4,), (8, 16, 32, 64), (110,))
            ],
            columns=["N", "IMOnew/hour", "IMO*/hour", "ratio"],
            title="IMO rates vs network size (ber=1e-4, ber* = ber/N)",
        )
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.analysis.verification import (
        header_sites,
        placement_node_names,
        verify_consistency,
    )

    extra = ()
    if args.include_header:
        extra = header_sites(placement_node_names(args.nodes))
    result = verify_consistency(
        protocol=args.protocol or "majorcan",
        m=args.m,
        n_nodes=args.nodes,
        max_flips=args.flips,
        extra_sites=extra,
        jobs=args.jobs,
        backend=args.backend,
    )
    print(result.summary())
    for counterexample in result.counterexamples[:20]:
        print("  " + str(counterexample))
    if len(result.counterexamples) > 20:
        print("  ... and %d more" % (len(result.counterexamples) - 20))
    _print_backend_stats(result.backend_stats)
    return 0 if result.holds else 1


def _cmd_record(args: argparse.Namespace) -> int:
    from repro.faults.scenarios import SCENARIOS
    from repro.tracestore import record_outcome

    outcome = SCENARIOS[args.scenario](args.protocol or "can", m=args.m)
    out = args.out or ("%s-%s.jsonl" % (outcome.name, outcome.protocol.lower()))
    path = record_outcome(out, outcome)
    print("recorded %s -> %s" % (outcome.summary(), path))
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.tracestore import replay_trace

    result = replay_trace(args.recording)
    if result.bit_identical:
        print("replay of %s: bit-identical" % result.recorded.name)
        return 0
    print("replay of %s DIVERGED:" % result.recorded.name)
    print(result.diff.summary())
    return 1


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.tracestore import diff_traces, load_trace

    diff = diff_traces(load_trace(args.expected), load_trace(args.actual))
    print(diff.summary())
    return 0 if diff.identical else 1


def _cmd_corpus(args: argparse.Namespace) -> int:
    from repro.tracestore import check_corpus, update_corpus

    if args.action == "update":
        for path in update_corpus(args.dir):
            print("wrote %s" % path)
        return 0
    report = check_corpus(args.dir, jobs=args.jobs)
    print(report.summary())
    return 0 if report.ok else 1


def _parse_burst(text: str):
    """Parse a ``node:window:start:length`` burst flag."""
    from repro.errors import ConfigurationError
    from repro.traffic import BurstSpec

    parts = text.split(":")
    if len(parts) != 4:
        raise ConfigurationError(
            "burst must be node:window:start:length, got %r" % text
        )
    try:
        window, start, length = (int(part) for part in parts[1:])
    except ValueError:
        raise ConfigurationError(
            "burst window/start/length must be integers, got %r" % text
        )
    return BurstSpec(node=parts[0], window=window, start=start, length=length)


def _cmd_traffic(args: argparse.Namespace) -> int:
    from repro.traffic import TrafficSpec, record_traffic, run_traffic

    spec = TrafficSpec(
        name=args.name,
        protocol=args.protocol,
        m=args.m,
        n_nodes=args.nodes,
        windows=args.windows,
        window_bits=args.window_bits,
        source=args.source,
        load=args.load,
        frame_bits=args.frame_bits,
        rate_per_bit=args.rate,
        messages_per_node=args.messages,
        seed=args.seed,
        hlp=args.hlp,
        noise_ber=args.noise,
        noise_nodes=tuple(args.noise_nodes) if args.noise_nodes else None,
        bursts=tuple(_parse_burst(item) for item in (args.burst or ())),
        bus_off_recovery=args.bus_off_recovery,
        record_events=not args.no_events,
    )
    outcome = run_traffic(spec, jobs=args.jobs, backend=args.backend)
    print(outcome.summary())
    _print_backend_stats(outcome.backend_stats)
    if args.record:
        record_traffic(args.record, outcome, meta={"entry": spec.name})
        print("recorded %s" % args.record)
    return 0


#: The ``sweep export`` summary line of each surface's rows: a format
#: and the row fields it prints.
_EXPORT_LINES = {
    "analytic": (
        "%s m=%d ber=%.0e nodes=%d p_imo=%.3e imo/h=%.3e",
        ("protocol", "m", "ber", "n_nodes", "p_imo", "imo_per_hour"),
    ),
    "traffic": (
        "%s m=%d nodes=%d load=%.2f %s: %d/%d delivered "
        "bus=%.3f backlog=%d arb_lost=%d atomic=%s",
        (
            "protocol",
            "m",
            "n_nodes",
            "load",
            "source",
            "delivered",
            "frames_submitted",
            "bus_load",
            "max_backlog",
            "arbitration_lost",
            "atomic",
        ),
    ),
}


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sweep import (
        ResultStore,
        SweepSpec,
        pending_cells,
        run_sweep,
        surface_rows,
    )

    spec = SweepSpec.from_file(args.spec)
    store = ResultStore(args.store)
    if args.action == "plan":
        pending, skipped = pending_cells(spec, store, backend=args.backend)
        print(
            "sweep %r: %d cells (%d pending, %d already stored)"
            % (spec.name, spec.cell_count(), len(pending), skipped)
        )
        for _, _, key in pending[:10]:
            print("  pending %s" % key[:16])
        if len(pending) > 10:
            print("  ... and %d more" % (len(pending) - 10))
        return 0
    if args.action == "run":
        report = run_sweep(
            spec,
            store,
            jobs=args.jobs,
            backend=args.backend,
            cell_budget=args.cell_budget,
        )
        print(report.summary())
        print("  store digest %s" % report.digest[:16])
        _print_backend_stats(report.backend_stats)
        return 0 if report.complete else 3
    if args.action == "status":
        status = store.status()
        pending, _ = pending_cells(spec, store, backend=args.backend)
        print("store %s: %s" % (store.root, status.summary()))
        print("  %d of %d cells pending" % (len(pending), spec.cell_count()))
        return 0
    # export
    from repro.metrics.export import write_rows

    rows = surface_rows(store)
    if not args.out:
        for row in rows:
            line, names = _EXPORT_LINES[row["surface"]]
            print(line % tuple(row[name] for name in names))
        return 0
    write_rows(args.out, rows)
    print("wrote %d surface rows -> %s" % (len(rows), args.out))
    return 0


def _add_jobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: REPRO_JOBS or 1; -1 = all CPUs); "
        "results, counterexamples, cell keys and verdicts are identical "
        "for any value, the 'backend stats' provenance counters can "
        "differ above 1",
    )


def _add_backend(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        choices=["engine", "batch"],
        default="engine",
        help="placement classifier: 'engine' simulates every placement, "
        "'batch' uses the vectorised tail/header replay (identical "
        "results; prints its batch/scalar/header/engine split)",
    )


def _print_backend_stats(*parts) -> None:
    """Print the batch backend's provenance split (and any notice).

    ``parts`` are the counters of one or more results, summed.  Printed
    after the main output and only when a batch result carries stats,
    so engine-backend output is byte-identical to earlier releases and
    silent engine bail-outs become visible.
    """
    from repro.parallel.pool import merge_stats

    stats = merge_stats(parts)
    if not stats:
        return
    from repro.analysis.batchreplay import engine_share_notice, format_stats

    print("  " + format_stats(stats))
    notice = engine_share_notice(stats)
    if notice is not None:
        print("  " + notice)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="majorcan-repro",
        description="MajorCAN (ICDCS 2000) reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="reproduce Table 1")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("scenarios", help="run the figure scenarios")
    p.add_argument("--protocol", choices=PROTOCOLS)
    p.add_argument("--m", type=int, default=5)
    p.set_defaults(func=_cmd_scenarios)

    p = sub.add_parser("fig4", help="MajorCAN per-bit behaviour table")
    p.add_argument("--m", type=int, default=5)
    p.set_defaults(func=_cmd_fig4)

    p = sub.add_parser("matrix", help="Atomic Broadcast property matrices")
    p.add_argument("--m", type=int, default=5)
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("overhead", help="MajorCAN overhead arithmetic")
    p.add_argument("--m", type=int, default=5)
    p.set_defaults(func=_cmd_overhead)

    p = sub.add_parser("enumerate", help="exact tail-pattern enumeration")
    p.add_argument("--protocol", choices=PROTOCOLS)
    p.add_argument("--nodes", type=int, default=3)
    p.add_argument("--window", type=int, default=2)
    p.add_argument("--ber-star", type=float, default=1e-4, dest="ber_star")
    _add_backend(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("geometry", help="MajorCAN frame-end geometry report")
    p.add_argument("--m", type=int, default=5)
    p.set_defaults(func=_cmd_geometry)

    p = sub.add_parser("campaign", help="multi-round consistency campaign")
    p.add_argument("--rounds", type=int, default=30)
    p.add_argument("--attack", type=float, default=0.3)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=7)
    _add_jobs(p)
    _add_backend(p)
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser("reliability", help="mission reliability comparison")
    p.add_argument("--ber", type=float, default=1e-4)
    p.add_argument(
        "--bers",
        type=float,
        nargs="+",
        default=None,
        help="sweep several bit-error rates (overrides --ber)",
    )
    _add_jobs(p)
    p.add_argument(
        "--backend",
        choices=["analytic", "engine", "batch"],
        default="analytic",
        help="rate source: 'analytic' evaluates the closed-form "
        "equations; 'engine' and 'batch' measure the tail-window IMO "
        "probability on the simulator (per-pattern engine runs vs. the "
        "vectorised replay — identical rates; 'batch' prints its "
        "batch/scalar/header/engine split)",
    )
    p.set_defaults(func=_cmd_reliability)

    p = sub.add_parser("ablation", help="m-choice ablation and CAN6' revision")
    p.add_argument(
        "--m-values",
        type=int,
        nargs="+",
        default=[3, 4, 5, 6, 7],
        dest="m_values",
    )
    p.add_argument("--flips", type=int, default=1)
    _add_jobs(p)
    _add_backend(p)
    p.set_defaults(func=_cmd_ablation)

    p = sub.add_parser(
        "verify", help="bounded exhaustive consistency verification"
    )
    p.add_argument("--protocol", choices=PROTOCOLS)
    p.add_argument("--m", type=int, default=5)
    p.add_argument("--nodes", type=int, default=3)
    p.add_argument("--flips", type=int, default=2)
    p.add_argument(
        "--include-header",
        action="store_true",
        help="add DLC/DATA sites (exposes finding F1)",
    )
    _add_jobs(p)
    _add_backend(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("record", help="record a figure scenario as JSONL")
    p.add_argument(
        "scenario",
        choices=["fig1a", "fig1b", "fig1c", "fig3", "fig3a", "fig3b", "fig5"],
    )
    p.add_argument("--protocol", choices=PROTOCOLS)
    p.add_argument("--m", type=int, default=5)
    p.add_argument("--out", help="output path (default: <scenario>-<protocol>.jsonl)")
    p.set_defaults(func=_cmd_record)

    p = sub.add_parser("replay", help="re-run a recording and diff against it")
    p.add_argument("recording", help="path to a .jsonl recording")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("diff", help="structured diff of two recordings")
    p.add_argument("expected", help="reference recording")
    p.add_argument("actual", help="candidate recording")
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("corpus", help="golden-scenario corpus maintenance")
    p.add_argument("action", choices=["check", "update"])
    p.add_argument("--dir", default="corpus", help="corpus directory")
    _add_jobs(p)
    p.set_defaults(func=_cmd_corpus)

    p = sub.add_parser(
        "traffic", help="steady-state multi-frame traffic run"
    )
    p.add_argument("--name", default="traffic", help="run/recording name")
    p.add_argument(
        "--protocol",
        choices=PROTOCOLS,
        default="can",
        help="link-layer protocol of every node",
    )
    p.add_argument("--m", type=int, default=5, help="MajorCAN_m parameter")
    p.add_argument("--nodes", type=int, default=4, help="node count")
    p.add_argument(
        "--windows", type=int, default=1,
        help="time-window partition (the sharding unit; part of the "
        "experiment identity)",
    )
    p.add_argument(
        "--window-bits", type=int, default=2000, dest="window_bits",
        help="active bits per window (each window drains to idle after)",
    )
    p.add_argument(
        "--source", choices=["periodic", "poisson"], default="periodic",
        help="workload family",
    )
    p.add_argument(
        "--load", type=float, default=0.5,
        help="target bus load of the periodic workload (values > 1 "
        "model overload); the poisson workload ignores it and reads "
        "--rate",
    )
    p.add_argument(
        "--frame-bits", type=int, default=110, dest="frame_bits",
        help="nominal frame length used by the load arithmetic",
    )
    p.add_argument(
        "--rate", type=float, default=0.0,
        help="per-bit submission probability of the poisson workload "
        "(default 0: no frames; sweep traffic cells never set it, so "
        "their poisson cells are empty)",
    )
    p.add_argument(
        "--messages", type=int, default=None,
        help="cap on messages per node over the whole run",
    )
    p.add_argument("--seed", type=int, default=0, help="root seed")
    p.add_argument(
        "--hlp", choices=["edcan", "relcan", "totcan"], default=None,
        help="run a higher-level protocol above the controllers",
    )
    p.add_argument(
        "--noise", type=float, default=0.0,
        help="per-node per-bit view-error probability (sustained noise)",
    )
    p.add_argument(
        "--noise-nodes", nargs="*", default=None, dest="noise_nodes",
        help="restrict noise to these node names",
    )
    p.add_argument(
        "--burst", action="append", default=None,
        help="view-error burst as node:window:start:length (repeatable; "
        "window -1 = every window)",
    )
    p.add_argument(
        "--bus-off-recovery", action="store_true", dest="bus_off_recovery",
        help="let bus-off nodes rejoin after 128 x 11 recessive bits",
    )
    p.add_argument(
        "--record", default=None, metavar="PATH",
        help="write the run as a schema-v2 recording",
    )
    p.add_argument(
        "--no-events", action="store_true", dest="no_events",
        help="skip event lines in recordings (smaller files)",
    )
    _add_jobs(p)
    p.add_argument(
        "--backend",
        choices=["engine", "batch"],
        default="engine",
        help="window evaluator: 'engine' steps every bit, 'batch' "
        "replays fault-free windows frame-granularly (identical "
        "ledger/stats/recording; prints its batch/engine window split)",
    )
    p.set_defaults(func=_cmd_traffic)

    p = sub.add_parser(
        "sweep", help="resumable design-space sweep over a result store"
    )
    p.add_argument(
        "action",
        choices=["plan", "run", "status", "export"],
        help="plan: list pending cells; run: evaluate them (resumable); "
        "status: store summary; export: probability-surface rows",
    )
    p.add_argument("spec", help="path to a SweepSpec JSON file")
    p.add_argument(
        "--store",
        default="sweep-store",
        help="result-store directory (created if missing)",
    )
    p.add_argument(
        "--cell-budget",
        type=int,
        default=None,
        dest="cell_budget",
        help="evaluate at most this many cells this run (the rest stay "
        "pending; exit code 3 signals an incomplete grid)",
    )
    p.add_argument(
        "--out",
        default=None,
        help="export target (.csv or .json; default: print a summary "
        "per cell)",
    )
    _add_jobs(p)
    p.add_argument(
        "--backend",
        choices=["engine", "batch"],
        default="batch",
        help="placement classifier (part of each cell's identity; "
        "'batch' is the production default, 'engine' the per-pattern "
        "reference)",
    )
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("montecarlo", help="stochastic model validation")
    p.add_argument("--protocol", choices=PROTOCOLS)
    p.add_argument("--nodes", type=int, default=3)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--ber-star", type=float, default=0.05, dest="ber_star")
    p.add_argument("--seed", type=int, default=None)
    _add_jobs(p)
    _add_backend(p)
    p.set_defaults(func=_cmd_montecarlo)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.

    Exit status: 0 ok, 1 a divergence or a counterexample, 2 invalid
    input (one ``error:`` line on stderr), 3 a sweep with cells left
    pending.
    """
    from repro.errors import ReproError
    from repro.parallel.pool import oversubscription_notice

    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "jobs"):
        notice = oversubscription_notice(args.jobs)
        if notice is not None:
            print(notice, file=sys.stderr)
    try:
        return args.func(args)
    except ReproError as exc:
        head, *problems = str(exc).splitlines() or [""]
        detail = "; ".join(problem.strip() for problem in problems)
        print("error: %s" % " ".join(filter(None, (head, detail))), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
