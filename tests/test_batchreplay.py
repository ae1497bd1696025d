"""Differential tests pinning the batch-replay backend to the engine.

The batch backend (:mod:`repro.analysis.batchreplay`) is exact by
construction — every placement it classifies itself must match an
engine run bit for bit, and anything it cannot model must fall back to
the engine.  These tests enforce that contract:

* over the **full tail-site universe of every golden-corpus frame**
  (single flips exhaustively, multi-flips sampled with a fixed seed);
* over the **full header-site universe** (the F1 desync placements,
  classified through cached reduced engine runs) for every
  protocol, network size and announced field;
* over a **seeded random sweep** of 1-3 flip placements per protocol;
* through every wired entry point (``verify_consistency``,
  ``enumerate_tail_patterns``, ``monte_carlo_tail``, ``m_ablation``,
  the CLI ``--backend`` flag), asserting backend equality end to end.
"""

import itertools
import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.batchreplay import (
    BatchReplayEvaluator,
    _simulate_numpy,
    _simulate_scalar,
    classify_placements,
    clear_caches,
    tail_shape,
)
from repro.analysis.enumeration import enumerate_tail_patterns
from repro.analysis.montecarlo import monte_carlo_tail
from repro.analysis.sweeps import ablation_row
from repro.analysis.verification import (
    header_sites,
    tail_sites,
    verify_consistency,
)
from repro.can.frame import data_frame
from repro.cli import main
from repro.errors import AnalysisError
from repro.faults.injector import ScriptedInjector, Trigger, ViewFault
from repro.faults.scenarios import make_controller, run_single_frame_scenario
from repro.tracestore import load_trace

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


def _scenario_version(path):
    with open(path) as handle:
        return json.loads(handle.readline()).get("version")


#: Single-frame (schema v1) entries only — the tail-universe
#: differential rebuilds a scenario spec, which v2 traffic recordings
#: (multi-frame, no injector script) do not have.
CORPUS_FILES = [
    p for p in sorted(CORPUS_DIR.glob("*.jsonl")) if _scenario_version(p) == 1
]

#: Micro-model configs exercised by the random sweep.
SWEEP_CONFIGS = (
    ("can", 5),
    ("minorcan", 5),
    ("majorcan", 5),
    ("majorcan", 3),
)


def engine_oracle(protocol, m, node_names, combo, frame):
    """One independent engine run -> (per-node deliveries, attempts)."""
    nodes = [make_controller(protocol, name, m=m) for name in node_names]
    faults = [
        ViewFault(name, Trigger(field=field_name, index=index), force=None)
        for name, field_name, index in combo
    ]
    outcome = run_single_frame_scenario(
        "oracle",
        nodes,
        ScriptedInjector(view_faults=faults),
        frame=frame,
        record_bits=False,
        max_bits=60000,
    )
    return (
        tuple(outcome.deliveries[name] for name in node_names),
        outcome.attempts,
    )


def universe(protocol, m, node_names):
    """The paper's tail-site universe for one config."""
    probe = make_controller(protocol, "probe", m=m)
    return tail_sites(
        node_names,
        probe.config.eof_length,
        window_start=getattr(probe, "window_start", None),
        window_end=getattr(probe, "window_end", None),
    )


class TestCorpusDifferential:
    """Batch == engine over every golden-corpus frame's tail universe."""

    def test_corpus_is_present(self):
        assert len(CORPUS_FILES) >= 13

    @pytest.mark.parametrize(
        "path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES]
    )
    def test_full_tail_universe_matches_engine(self, path):
        spec = load_trace(path).spec()
        protocols = {protocol for _, protocol, _ in spec.nodes}
        assert len(protocols) == 1, "corpus entries are single-protocol"
        protocol = protocols.pop()
        m = next(
            (node_m for _, _, node_m in spec.nodes if node_m is not None), 5
        )
        node_names = [name for name, _, _ in spec.nodes]
        sites = universe(protocol, m, node_names)
        singles = [(site,) for site in sites]
        rng = random.Random(0xC0FFEE)
        doubles = rng.sample(list(itertools.combinations(sites, 2)), 25)
        combos = singles + doubles

        evaluator = BatchReplayEvaluator(
            protocol, m, node_names, frame=spec.frame
        )
        outcomes = evaluator.evaluate(combos)
        assert evaluator.stats["engine"] == 0, (
            "corpus frames must be classified by the micro-model itself"
        )
        for combo, outcome in zip(combos, outcomes):
            assert outcome.via == "batch"
            expected = engine_oracle(protocol, m, node_names, combo, spec.frame)
            assert (outcome.deliveries, outcome.attempts) == expected, (
                path.stem,
                combo,
            )


class TestSeededRandomSweep:
    """Batch == engine on seeded random 1-3 flip placements."""

    @pytest.mark.parametrize("protocol,m", SWEEP_CONFIGS)
    def test_random_placements_match_engine(self, protocol, m):
        node_names = ["tx", "r1", "r2"]
        frame = data_frame(0x123, b"\x55", message_id="m")
        sites = universe(protocol, m, node_names)
        rng = random.Random(20260806 + m)
        combos = [
            tuple(rng.sample(sites, rng.randint(1, 3))) for _ in range(60)
        ]
        evaluator = BatchReplayEvaluator(protocol, m, node_names)
        for combo, outcome in zip(combos, evaluator.evaluate(combos)):
            expected = engine_oracle(protocol, m, node_names, combo, frame)
            assert (outcome.deliveries, outcome.attempts) == expected, combo

    @pytest.mark.parametrize("protocol,m", SWEEP_CONFIGS)
    def test_array_and_scalar_simulators_agree(self, protocol, m):
        """The two micro-simulators, fed the same armed-pair lists."""
        node_names = ["tx", "r1", "r2"]
        sites = universe(protocol, m, node_names)
        rng = random.Random(7 * m)
        combos = [(s,) for s in sites] + [
            tuple(rng.sample(sites, 2)) for _ in range(40)
        ]
        evaluator = BatchReplayEvaluator(protocol, m, node_names)
        arms = []
        for combo in combos:
            route, arm = evaluator._resolve(combo)
            assert route == "fast", combo
            arms.append(arm)
        shape = evaluator.shape
        array = _simulate_numpy(shape, len(node_names), arms)
        scalar = [_simulate_scalar(shape, len(node_names), arm) for arm in arms]
        assert array == scalar

    @pytest.mark.parametrize("fresh,label", [(95, "scalar"), (96, "batch")])
    def test_dispatch_boundary_labels(self, fresh, label):
        # The route label is persisted (sweep store ``backend_stats``,
        # benchmark fingerprints), so the size threshold is pinned.
        node_names = ["tx", "r1", "r2"]
        tx_sites = [s for s in universe("majorcan", 5, node_names) if s[0] == "tx"]
        combos = list(itertools.combinations(tx_sites, 2))[:fresh]
        assert len(combos) == fresh
        clear_caches()
        evaluator = BatchReplayEvaluator("majorcan", 5, node_names)
        evaluator.evaluate(combos)
        assert evaluator.stats == {
            "batch": 0, "scalar": 0, "header": 0, "engine": 0, label: fresh
        }


class TestHeaderDifferential:
    """Header flips ride cached reduced runs; verdicts == engine exactly."""

    #: majorcan requires m >= 3, so its "small m" config is m=3.
    HEADER_CONFIGS = (
        ("can", 2),
        ("can", 5),
        ("minorcan", 2),
        ("minorcan", 5),
        ("majorcan", 3),
        ("majorcan", 5),
    )

    @pytest.mark.parametrize("protocol,m", HEADER_CONFIGS)
    def test_header_sites_universe_matches_engine(self, protocol, m):
        node_names = ("tx", "r1", "r2")
        evaluator = BatchReplayEvaluator(protocol, m, node_names)
        combos = [(site,) for site in header_sites(node_names, data_bits=8)]
        outcomes = evaluator.evaluate(combos)
        assert evaluator.stats["engine"] == 0, (
            "header sites must not bail to the full engine"
        )
        assert evaluator.stats["header"] == len(combos)
        for combo, outcome in zip(combos, outcomes):
            assert outcome.via == "batch"
            expected = engine_oracle(
                protocol, m, node_names, combo, evaluator.frame
            )
            assert (outcome.deliveries, outcome.attempts) == expected, combo

    @pytest.mark.parametrize("n_nodes", (2, 4))
    def test_all_announced_fields_match_engine(self, n_nodes):
        from repro.can.encoding import header_shape

        node_names = tuple(["tx"] + ["r%d" % i for i in range(1, n_nodes)])
        for protocol, m in (("can", 5), ("majorcan", 3)):
            evaluator = BatchReplayEvaluator(protocol, m, node_names)
            shape = header_shape(evaluator.frame, evaluator.shape.eof_length)
            combos = [
                ((name, field_name, index),)
                for (field_name, index) in sorted(shape.announced)
                for name in node_names
            ]
            outcomes = evaluator.evaluate(combos)
            assert evaluator.stats["engine"] == 0
            for combo, outcome in zip(combos, outcomes):
                expected = engine_oracle(
                    protocol, m, node_names, combo, evaluator.frame
                )
                assert (
                    outcome.deliveries,
                    outcome.attempts,
                ) == expected, (protocol, m, combo)

    def test_inert_header_sites_match_clean_run(self):
        # The default 1-byte payload never announces DATA index 60, and
        # SOF has a single bit: both triggers can never fire.
        evaluator = BatchReplayEvaluator("can", 5, ["tx", "r1", "r2"])
        clean, data_inert, sof_inert = evaluator.evaluate(
            [(), (("r1", "DATA", 60),), (("r1", "SOF", 3),)]
        )
        for outcome in (data_inert, sof_inert):
            assert outcome.via == "batch"
            assert (outcome.deliveries, outcome.attempts) == (
                clean.deliveries,
                clean.attempts,
            )
        assert evaluator.stats["engine"] == 0

    def test_multi_flip_header_combos_stay_off_the_engine(self):
        # Header+header and header+tail combos classify through the
        # cached reduced-run path — no full-network engine runs.
        evaluator = BatchReplayEvaluator("can", 5, ["tx", "r1", "r2"])
        header = ("r1", "DATA", 0)
        tail = ("r2", "EOF", 5)
        combos = [(header, ("r2", "DATA", 1)), (header, tail)]
        outcomes = evaluator.evaluate(combos)
        assert evaluator.stats["engine"] == 0
        assert evaluator.stats["header"] == 2
        frame = evaluator.frame
        for combo, outcome in zip(combos, outcomes):
            assert outcome.via == "batch"
            expected = engine_oracle("can", 5, ("tx", "r1", "r2"), combo, frame)
            assert (outcome.deliveries, outcome.attempts) == expected

    def test_lone_receiver_flips_share_one_run_per_parse_signature(
        self, monkeypatch
    ):
        # Lone DATA/CRC receiver flips with equal parse signatures share
        # one reduced run, so the cold MajorCAN_5 header universe over
        # five nodes costs 24 engine runs, not one per site.
        from repro.analysis import batchreplay

        runs = []
        real = batchreplay.run_placement

        def counted(*args):
            runs.append(args)
            return real(*args)

        monkeypatch.setattr(batchreplay, "run_placement", counted)
        clear_caches()
        names = ["tx"] + ["r%d" % i for i in range(1, 5)]
        universe = dict(n_nodes=5, max_flips=1, extra_sites=header_sites(names))
        batch = verify_consistency("majorcan", 5, backend="batch", **universe)
        assert len(runs) == 24
        assert batch.backend_stats["engine"] == 0
        engine = verify_consistency("majorcan", 5, **universe)
        assert batch.runs == engine.runs
        assert batch.counterexamples == engine.counterexamples
        assert len(batch.counterexamples) == 12

    def test_inert_header_plus_tail_flip_stays_vectorised(self):
        node_names = ("tx", "r1", "r2")
        evaluator = BatchReplayEvaluator("can", 5, node_names)
        combo = (("r1", "DATA", 60), ("r2", "EOF", 6))
        (outcome,) = evaluator.evaluate([combo])
        assert outcome.via == "batch"
        assert evaluator.stats["engine"] == 0
        expected = engine_oracle("can", 5, node_names, combo, evaluator.frame)
        assert (outcome.deliveries, outcome.attempts) == expected


class TestRouting:
    """Placements outside the micro-model go to the engine oracle."""

    def test_duplicate_sites_cancel_by_parity(self):
        # Duplicate triggers on one position all fire at the same first
        # announcement and a flip of a flip is the identity, so an even
        # repeat count is a clean run and an odd one a single flip —
        # matching the engine without ever invoking it.
        evaluator = BatchReplayEvaluator("can", 5, ["tx", "r1", "r2"])
        node_names = ("tx", "r1", "r2")
        site = ("r1", "EOF", 5)
        even, odd, clean, single = evaluator.evaluate(
            [(site, site), (site, site, site), (), (site,)]
        )
        assert evaluator.stats["engine"] == 0
        assert even.via == "batch" and odd.via == "batch"
        assert (even.deliveries, even.attempts) == (
            clean.deliveries,
            clean.attempts,
        )
        assert (odd.deliveries, odd.attempts) == (
            single.deliveries,
            single.attempts,
        )
        for combo, outcome in ((((site, site)), even), ((site, site, site), odd)):
            expected = engine_oracle(
                "can", 5, node_names, combo, evaluator.frame
            )
            assert (outcome.deliveries, outcome.attempts) == expected

    def test_inert_sites_match_clean_run(self):
        evaluator = BatchReplayEvaluator("can", 5, ["tx", "r1", "r2"])
        clean, inert = evaluator.evaluate([(), (("r1", "EOF", 99),)])
        assert clean.via == "batch" and inert.via == "batch"
        assert (clean.deliveries, clean.attempts) == (
            inert.deliveries,
            inert.attempts,
        )
        assert clean.deliveries == (1, 1, 1)

    def test_unknown_node_falls_back_to_engine(self):
        evaluator = BatchReplayEvaluator("can", 5, ["tx", "r1"])
        (outcome,) = evaluator.evaluate([(("ghost", "EOF", 5),)])
        assert outcome.via == "engine"


class TestWiredEntryPoints:
    """backend="batch" is result-identical at every integration point."""

    def test_verify_consistency_equality(self):
        engine = verify_consistency("can", m=5, n_nodes=3, max_flips=2)
        batch = verify_consistency(
            "can", m=5, n_nodes=3, max_flips=2, backend="batch"
        )
        assert engine.runs == batch.runs
        assert [str(c) for c in engine.counterexamples] == [
            str(c) for c in batch.counterexamples
        ]
        assert batch.counterexamples, "the CAN 2-flip universe has IMO hits"

    def test_verify_consistency_equality_majorcan(self):
        engine = verify_consistency("majorcan", m=3, n_nodes=3, max_flips=1)
        batch = verify_consistency(
            "majorcan", m=3, n_nodes=3, max_flips=1, backend="batch"
        )
        assert engine.runs == batch.runs
        assert [str(c) for c in engine.counterexamples] == [
            str(c) for c in batch.counterexamples
        ]

    def test_verify_consistency_batch_parallel_path(self):
        serial = verify_consistency(
            "can", m=5, n_nodes=3, max_flips=2, backend="batch"
        )
        parallel = verify_consistency(
            "can", m=5, n_nodes=3, max_flips=2, backend="batch", jobs=2
        )
        assert serial.runs == parallel.runs
        assert [str(c) for c in serial.counterexamples] == [
            str(c) for c in parallel.counterexamples
        ]

    def test_verify_stop_at_first_on_batch(self):
        result = verify_consistency(
            "can",
            m=5,
            n_nodes=3,
            max_flips=2,
            backend="batch",
            stop_at_first=True,
        )
        assert len(result.counterexamples) == 1

    def test_enumerate_equality(self):
        for protocol in ("can", "minorcan", "majorcan"):
            engine = enumerate_tail_patterns(
                protocol, n_nodes=3, window=2, max_flips=2
            )
            batch = enumerate_tail_patterns(
                protocol, n_nodes=3, window=2, max_flips=2, backend="batch"
            )
            assert len(engine.outcomes) == len(batch.outcomes)
            for a, b in zip(engine.outcomes, batch.outcomes):
                assert (
                    a.pattern,
                    a.consistent,
                    a.inconsistent_omission,
                    a.double_reception,
                    a.attempts,
                ) == (
                    b.pattern,
                    b.consistent,
                    b.inconsistent_omission,
                    b.double_reception,
                    b.attempts,
                )
            assert engine.p_inconsistent_omission == pytest.approx(
                batch.p_inconsistent_omission, abs=0.0
            )

    def test_montecarlo_equality(self):
        engine = monte_carlo_tail("can", trials=200, seed=42)
        batch = monte_carlo_tail("can", trials=200, seed=42, backend="batch")
        assert (
            engine.imo,
            engine.double_reception,
            engine.inconsistent,
            engine.no_fault_trials,
            engine.flips_total,
        ) == (
            batch.imo,
            batch.double_reception,
            batch.inconsistent,
            batch.no_fault_trials,
            batch.flips_total,
        )

    def test_montecarlo_batch_jobs_invariant(self):
        serial = monte_carlo_tail(
            "majorcan", trials=150, seed=11, backend="batch"
        )
        parallel = monte_carlo_tail(
            "majorcan", trials=150, seed=11, backend="batch", jobs=2
        )
        assert (serial.imo, serial.inconsistent, serial.flips_total) == (
            parallel.imo,
            parallel.inconsistent,
            parallel.flips_total,
        )

    def test_montecarlo_counts_identical_across_backend_and_jobs(self):
        """The seeded chunked draw is part of the experiment identity.

        The (trials, sites) matrix draw consumes each chunk's PCG64
        stream exactly like the scalar per-trial draws it replaced, so
        every count is bit-identical across backend=engine/batch and
        jobs=1/4 for the same seed.
        """
        results = {
            (backend, jobs): monte_carlo_tail(
                "can", trials=96, seed=20260806, backend=backend, jobs=jobs
            )
            for backend in ("engine", "batch")
            for jobs in (1, 4)
        }
        reference = results[("engine", 1)]
        key = lambda r: (  # noqa: E731
            r.imo,
            r.double_reception,
            r.inconsistent,
            r.no_fault_trials,
            r.flips_total,
        )
        for label, result in results.items():
            assert key(result) == key(reference), label

    def test_montecarlo_backend_stats_surfaced(self):
        batch = monte_carlo_tail("can", trials=64, seed=5, backend="batch")
        engine = monte_carlo_tail("can", trials=64, seed=5)
        assert engine.backend_stats is None
        assert batch.backend_stats is not None
        classified = sum(batch.backend_stats.values())
        assert classified == batch.trials - batch.no_fault_trials

    def test_verify_backend_stats_surfaced(self):
        node_names = ["tx", "r1", "r2"]
        extra = header_sites(node_names, data_bits=8)
        serial = verify_consistency(
            "can",
            m=5,
            n_nodes=3,
            max_flips=1,
            extra_sites=extra,
            backend="batch",
        )
        parallel = verify_consistency(
            "can",
            m=5,
            n_nodes=3,
            max_flips=1,
            extra_sites=extra,
            backend="batch",
            jobs=2,
        )
        engine = verify_consistency(
            "can", m=5, n_nodes=3, max_flips=1, extra_sites=extra
        )
        assert engine.backend_stats is None
        for result in (serial, parallel):
            assert result.backend_stats is not None
            assert sum(result.backend_stats.values()) == result.runs
            assert result.backend_stats["header"] == len(extra)
            assert result.backend_stats["engine"] == 0

    def test_ablation_row_equality(self):
        engine = ablation_row(3, tail_flips=1, check_f1=True)
        batch = ablation_row(3, tail_flips=1, check_f1=True, backend="batch")
        assert replace(engine, backend_stats=None) == replace(
            batch, backend_stats=None
        )
        assert engine.backend_stats is None
        assert batch.backend_stats is not None
        assert batch.backend_stats["engine"] == 0

    def test_classify_placements_hit_tuples(self):
        from repro.analysis.verification import classify_placement

        node_names = ("tx", "r1", "r2")
        sites = universe("can", 5, list(node_names))
        combos = [(site,) for site in sites]
        hits = classify_placements("can", 5, node_names, combos, b"\x55")
        for combo, hit in zip(combos, hits):
            assert hit == classify_placement(
                "can", 5, node_names, combo, b"\x55"
            )

    def test_unknown_backend_rejected(self):
        with pytest.raises(AnalysisError):
            verify_consistency("can", backend="cuda")
        with pytest.raises(AnalysisError):
            enumerate_tail_patterns("can", backend="cuda")
        with pytest.raises(AnalysisError):
            monte_carlo_tail("can", trials=1, backend="cuda")


class TestSignalShapeHook:
    """The precompiled error-signalling table flows from the protocol."""

    def test_can_signal_shape(self):
        shape = make_controller("can", "probe").signal_shape()
        assert shape.error_flag == 6
        assert shape.overload_flag == 6
        assert shape.delimiter == 8
        assert shape.intermission == 3
        assert shape.extended_flag_end == 0

    def test_majorcan_signal_shape_tracks_m(self):
        for m in (3, 5, 7):
            probe = make_controller("majorcan", "probe", m=m)
            shape = probe.signal_shape()
            assert shape.delimiter == probe.config.delimiter_length
            assert shape.extended_flag_end == probe.window_end == 3 * m + 5

    def test_tail_shape_consumes_the_hook(self):
        frame = data_frame(0x123, b"\x55", message_id="m")
        shape = tail_shape("majorcan", 5, frame)
        assert dict(shape.signal_shapes)["extended_flag_end"] == 20
        assert dict(shape.signal_shapes)["delimiter"] == 11
        assert shape.supported


class TestStatsHelpers:
    def test_format_stats_line(self):
        from repro.analysis.batchreplay import format_stats

        line = format_stats({"batch": 10, "scalar": 0, "header": 4, "engine": 2})
        assert line == (
            "backend stats: batch=10 scalar=0 header=4 resume=0 engine=2 "
            "(total 16)"
        )
        line = format_stats({"batch": 2, "resume": 1})
        assert line == (
            "backend stats: batch=2 scalar=0 header=0 resume=1 engine=0 "
            "(total 3)"
        )

    def test_engine_share_notice_thresholds(self):
        from repro.analysis.batchreplay import engine_share_notice

        assert engine_share_notice({}) is None
        assert engine_share_notice({"batch": 90, "engine": 10}) is None
        notice = engine_share_notice({"batch": 80, "engine": 20})
        assert notice is not None and "20%" in notice

    def test_warm_shapes_populates_caches(self):
        from repro.analysis.batchreplay import warm_shapes
        from repro.can.encoding import header_shape

        warm_shapes()
        frame = data_frame(0x123, b"\x55", message_id="m")
        assert tail_shape.cache_info().currsize >= 7
        assert header_shape.cache_info().currsize >= 1
        # The warmed entries cover the sweep protocols for this frame.
        assert tail_shape("majorcan", 3, frame).supported


def _strip_stats(output):
    """Drop the batch-only stats/notice lines for backend comparisons."""
    return "".join(
        line
        for line in output.splitlines(keepends=True)
        if "backend stats:" not in line and "notice:" not in line
    )


class TestCli:
    def test_verify_backend_batch(self, capsys):
        engine_rc = main(["verify", "--protocol", "can", "--flips", "1"])
        engine_out = capsys.readouterr().out
        batch_rc = main(
            ["verify", "--protocol", "can", "--flips", "1", "--backend", "batch"]
        )
        batch_out = capsys.readouterr().out
        assert engine_rc == batch_rc == 1
        assert engine_out == _strip_stats(batch_out)
        assert "backend stats: batch=" in batch_out

    def test_engine_backend_prints_no_stats(self, capsys):
        main(["verify", "--protocol", "can", "--flips", "1"])
        assert "backend stats:" not in capsys.readouterr().out

    def test_montecarlo_backend_batch(self, capsys):
        assert (
            main(
                [
                    "montecarlo",
                    "--trials",
                    "64",
                    "--seed",
                    "5",
                    "--backend",
                    "batch",
                ]
            )
            == 0
        )
        batch_out = capsys.readouterr().out
        assert main(["montecarlo", "--trials", "64", "--seed", "5"]) == 0
        assert capsys.readouterr().out == _strip_stats(batch_out)
        assert "backend stats: batch=" in batch_out

    def test_enumerate_backend_batch(self, capsys):
        assert main(["enumerate", "--backend", "batch"]) == 0
        batch_out = capsys.readouterr().out
        assert main(["enumerate"]) == 0
        assert capsys.readouterr().out == _strip_stats(batch_out)
        assert "backend stats: batch=" in batch_out

    def test_backend_choices_validated(self):
        with pytest.raises(SystemExit):
            main(["verify", "--backend", "cuda"])
