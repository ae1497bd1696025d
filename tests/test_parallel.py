"""Tests for the parallel batch-execution layer (PR 1).

The central contract: for the same seed, ``jobs=1`` and ``jobs=N``
produce *bit-identical* aggregate results — the worker count decides
where a chunk runs, never what it computes.  Plus the engine fast
path: ``record_bits=False`` runs reach the same scenario outcomes as
``record_bits=True``.
"""

from functools import partial

import numpy as np
import pytest

from repro.analysis.montecarlo import monte_carlo_full, monte_carlo_tail, tail_chunk
from repro.analysis.reliability import reliability_comparison, reliability_sweep
from repro.analysis.sweeps import m_ablation
from repro.analysis.verification import verify_consistency
from repro.can.controller import CanController
from repro.errors import SimulationError
from repro.faults.campaigns import CampaignSpec, run_campaign
from repro.faults.scenarios import fig1b, fig3, make_controller, run_single_frame_scenario
from repro.faults.injector import ScriptedInjector, Trigger, ViewFault
from repro.can.fields import EOF
import repro.parallel.pool as pool_module
from repro.parallel.pool import cpu_count, effective_jobs, run_tasks, shutdown_pool
from repro.parallel.seeds import adaptive_chunk, chunk_sizes, rng_from, spawn_seeds
from repro.simulation.engine import SimulationEngine


class TestSeedSplitting:
    def test_spawn_is_deterministic(self):
        first = [rng_from(s).random() for s in spawn_seeds(42, 5)]
        second = [rng_from(s).random() for s in spawn_seeds(42, 5)]
        assert first == second

    def test_children_are_independent(self):
        values = {rng_from(s).random() for s in spawn_seeds(3, 6)}
        assert len(values) == 6

    def test_generator_seed_supported(self):
        rng = np.random.default_rng(7)
        children = spawn_seeds(rng, 3)
        assert len(children) == 3

    def test_chunk_sizes_partition(self):
        assert chunk_sizes(100, 32) == [32, 32, 32, 4]
        assert chunk_sizes(10, 32) == [10]
        assert chunk_sizes(0, 32) == []
        assert sum(chunk_sizes(997, 64)) == 997

    def test_chunk_sizes_validation(self):
        with pytest.raises(ValueError):
            chunk_sizes(10, 0)
        with pytest.raises(ValueError):
            chunk_sizes(-1, 4)


class TestPool:
    def test_effective_jobs_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert effective_jobs(None) == 1
        assert effective_jobs(3) == 3
        assert effective_jobs(-1) == cpu_count()

    def test_effective_jobs_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert effective_jobs(None) == 5
        monkeypatch.setenv("REPRO_JOBS", "bogus")
        assert effective_jobs(None) == 1

    def test_jobs_beyond_the_cpus_print_one_notice(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.setattr(pool_module, "cpu_count", lambda: 2)
        # No pool either way: a refused pool runs the tasks inline.
        monkeypatch.setattr(pool_module, "_get_pool", lambda workers: None)
        args = ["verify", "--protocol", "can", "--flips", "1", "--backend", "batch"]
        outputs = []
        for jobs in ("2", "64"):
            assert main(args + ["--jobs", jobs]) == 1
            outputs.append(capsys.readouterr())
        fitting, oversubscribed = outputs
        assert fitting.err == ""
        assert oversubscribed.err.splitlines() == [
            "notice: 64 workers requested on 2 usable CPUs; they will share them"
        ]
        assert oversubscribed.out == fitting.out
        assert pool_module.effective_jobs(64) == 64  # not clamped

    def test_run_tasks_preserves_order(self):
        tasks = [
            partial(
                tail_chunk,
                protocol="can",
                m=5,
                node_names=("tx", "r1", "r2"),
                sites=(("tx", 5), ("r1", 5)),
                ber_star=0.0,
                trials=index,
                seed=seed,
            )
            for index, seed in zip(range(1, 5), spawn_seeds(1, 4))
        ]
        serial = run_tasks(tasks, jobs=1)
        parallel = run_tasks(tasks, jobs=2)
        assert [part.trials for part in serial] == [1, 2, 3, 4]
        assert [part.trials for part in parallel] == [1, 2, 3, 4]


def _boom():
    """Picklable task that fails inside the worker."""
    raise RuntimeError("task failure")


class TestPoolReuse:
    """The module-level pool is shared across run_tasks calls."""

    def _tasks(self, count=3, seed=1):
        return [
            partial(
                tail_chunk,
                protocol="can",
                m=5,
                node_names=("tx", "r1", "r2"),
                sites=(("tx", 5), ("r1", 5)),
                ber_star=0.05,
                trials=4,
                seed=child,
            )
            for child in spawn_seeds(seed, count)
        ]

    @pytest.fixture(autouse=True)
    def _clean_pool(self):
        shutdown_pool()
        yield
        shutdown_pool()
        assert pool_module._POOL is None
        assert pool_module._POOL_WORKERS == 0

    def test_pool_survives_across_calls(self):
        first = run_tasks(self._tasks(seed=1), jobs=2)
        created = pool_module._POOL
        if created is None:
            pytest.skip("platform cannot create process pools")
        second = run_tasks(self._tasks(seed=2), jobs=2)
        assert pool_module._POOL is created, "pool must be reused, not rebuilt"
        assert len(first) == len(second) == 3

    def test_pool_recreated_on_worker_count_change(self):
        run_tasks(self._tasks(seed=1), jobs=2)
        created = pool_module._POOL
        if created is None:
            pytest.skip("platform cannot create process pools")
        assert pool_module._POOL_WORKERS == 2
        run_tasks(self._tasks(seed=2), jobs=3)
        assert pool_module._POOL is not created
        assert pool_module._POOL_WORKERS == 3

    def test_serial_path_never_builds_a_pool(self):
        run_tasks(self._tasks(), jobs=1)
        assert pool_module._POOL is None

    def test_shutdown_pool_is_idempotent(self):
        run_tasks(self._tasks(), jobs=2)
        shutdown_pool()
        shutdown_pool()
        assert pool_module._POOL is None

    def test_reused_pool_matches_serial_results(self):
        serial = run_tasks(self._tasks(seed=7), jobs=1)
        warm = run_tasks(self._tasks(seed=7), jobs=2)
        again = run_tasks(self._tasks(seed=7), jobs=2)
        for other in (warm, again):
            assert [part.trials for part in other] == [
                part.trials for part in serial
            ]
            assert [part.flips_total for part in other] == [
                part.flips_total for part in serial
            ]

    def test_no_pool_falls_back_to_serial(self, monkeypatch):
        def refuse(*args):
            raise OSError("no semaphore support")

        monkeypatch.setattr(pool_module.multiprocessing, "get_context", refuse)
        serial = run_tasks(self._tasks(seed=3), jobs=1)
        fallback = run_tasks(self._tasks(seed=3), jobs=2)
        assert pool_module._POOL is None
        assert [part.flips_total for part in fallback] == [
            part.flips_total for part in serial
        ]

    def test_sweeps_over_different_specs_share_the_pool(self, tmp_path):
        from repro.sweep import ResultStore, SweepSpec, run_sweep

        grid = dict(
            m_values=(5,),
            bit_rates=(500_000.0,),
            bus_lengths_m=(30.0,),
            payloads=(1,),
            node_counts=(3,),
            window=1,
            max_flips=1,
        )
        first = SweepSpec(name="a", protocols=("can",), bers=(1e-5,), **grid)
        second = SweepSpec(name="b", protocols=("majorcan",), bers=(1e-4,), **grid)
        run_sweep(first, ResultStore(str(tmp_path / "a")), jobs=2)
        created = pool_module._POOL
        if created is None:
            pytest.skip("platform cannot create process pools")
        report = run_sweep(second, ResultStore(str(tmp_path / "b")), jobs=2)
        assert report.evaluated == 1
        assert pool_module._POOL is created, "a new spec must not rebuild the pool"

    def test_exception_discards_the_pool(self):
        run_tasks(self._tasks(), jobs=2)
        if pool_module._POOL is None:
            pytest.skip("platform cannot create process pools")
        with pytest.raises(RuntimeError):
            run_tasks([_boom], jobs=2)
        assert pool_module._POOL is None


class TestMonteCarloEquivalence:
    def test_tail_jobs_equivalence(self):
        kwargs = dict(protocol="can", n_nodes=3, ber_star=0.08, trials=96, seed=11)
        serial = monte_carlo_tail(jobs=1, **kwargs)
        parallel = monte_carlo_tail(jobs=4, **kwargs)
        assert (
            serial.imo,
            serial.double_reception,
            serial.inconsistent,
            serial.no_fault_trials,
            serial.flips_total,
        ) == (
            parallel.imo,
            parallel.double_reception,
            parallel.inconsistent,
            parallel.no_fault_trials,
            parallel.flips_total,
        )
        assert serial.trials == parallel.trials == 96

    def test_full_jobs_equivalence(self):
        kwargs = dict(protocol="can", n_nodes=3, ber_star=3e-3, trials=48, seed=3)
        serial = monte_carlo_full(jobs=1, **kwargs)
        parallel = monte_carlo_full(jobs=3, **kwargs)
        assert (serial.imo, serial.inconsistent, serial.flips_total) == (
            parallel.imo,
            parallel.inconsistent,
            parallel.flips_total,
        )

    def test_chunking_never_changes_counts(self):
        # Different chunk sizes change the spawn tree (documented), but
        # a fixed chunk size must survive any job count.
        base = monte_carlo_tail("can", ber_star=0.1, trials=50, seed=2, jobs=1)
        for jobs in (2, 3, 8):
            other = monte_carlo_tail("can", ber_star=0.1, trials=50, seed=2, jobs=jobs)
            assert (base.imo, base.flips_total) == (other.imo, other.flips_total)


class TestVerificationEquivalence:
    def test_counterexample_sets_identical(self):
        serial = verify_consistency("can", m=5, n_nodes=3, max_flips=1, jobs=1)
        parallel = verify_consistency("can", m=5, n_nodes=3, max_flips=1, jobs=4)
        assert serial.runs == parallel.runs
        assert [str(c) for c in serial.counterexamples] == [
            str(c) for c in parallel.counterexamples
        ]

    def test_holds_verdict_matches(self):
        serial = verify_consistency("majorcan", m=5, n_nodes=3, max_flips=1, jobs=1)
        parallel = verify_consistency("majorcan", m=5, n_nodes=3, max_flips=1, jobs=2)
        assert serial.holds and parallel.holds
        assert serial.runs == parallel.runs


class TestCampaignEquivalence:
    def test_rows_and_omission_rounds_identical(self):
        spec = CampaignSpec(
            protocol="can",
            rounds=20,
            attack_probability=0.4,
            noise_ber_star=5e-4,
            seed=9,
        )
        serial = run_campaign(spec, jobs=1)
        parallel = run_campaign(spec, jobs=4)
        assert serial.as_row() == parallel.as_row()
        assert serial.omission_rounds == parallel.omission_rounds

    def test_attack_schedule_protocol_independent(self):
        schedules = set()
        for protocol in ("can", "minorcan", "majorcan"):
            spec = CampaignSpec(
                protocol=protocol, rounds=12, attack_probability=0.5, seed=21
            )
            schedules.add(run_campaign(spec, jobs=2).attacked_rounds)
        assert len(schedules) == 1


class TestSweepAndReliabilityParallel:
    def test_m_ablation_jobs_equivalence(self):
        serial = m_ablation(m_values=(3, 5), tail_flips=1, check_f1=False, jobs=1)
        parallel = m_ablation(m_values=(3, 5), tail_flips=1, check_f1=False, jobs=2)
        assert serial == parallel
        assert [row.m for row in parallel] == [3, 5]

    def test_reliability_sweep_matches_pointwise(self):
        sweep = reliability_sweep([1e-4, 1e-6], jobs=2)
        assert list(sweep) == [1e-4, 1e-6]
        for ber, rows in sweep.items():
            assert rows == reliability_comparison(ber)


class TestEngineFastPath:
    def _outcome_pair(self, builder):
        """Run the same scripted scenario with and without recording."""
        results = []
        for record_bits in (True, False):
            nodes = [
                make_controller("can", name, m=5) for name in ("tx", "x", "y")
            ]
            eof_last = nodes[0].geometry.eof_length - 1
            faults = [
                ViewFault("x", Trigger(field=EOF, index=eof_last - 1), force=None)
            ]
            outcome = run_single_frame_scenario(
                "fastpath",
                nodes,
                ScriptedInjector(view_faults=faults),
                record_bits=record_bits,
            )
            results.append(outcome)
        return results

    def test_same_outcome_without_recording(self):
        recorded, fast = self._outcome_pair(None)
        assert recorded.deliveries == fast.deliveries
        assert recorded.consistent == fast.consistent
        assert recorded.attempts == fast.attempts
        assert recorded.errors_injected == fast.errors_injected

    def test_fast_path_records_no_bits_but_full_bus_history(self):
        node = CanController("solo")
        engine = SimulationEngine([node], record_bits=False)
        engine.run(25)
        assert engine.trace.bits == []
        assert engine.bus.time == 25

    def test_canonical_scenarios_keep_their_verdicts(self):
        assert fig1b("can").double_reception
        assert fig3("can").inconsistent_omission

    def test_node_lookup_uses_index_and_detects_external_mutation(self):
        a, b = CanController("a"), CanController("b")
        engine = SimulationEngine([a])
        engine.nodes.append(b)  # bypass attach() on purpose
        assert engine.node("b") is b
        with pytest.raises(SimulationError):
            engine.node("missing")

    def test_attach_duplicate_still_rejected(self):
        engine = SimulationEngine([CanController("a")])
        with pytest.raises(SimulationError):
            engine.attach(CanController("a"))


class TestAdaptiveChunking:
    """Adaptive chunk sizing (PR 7 satellite).

    ``adaptive_chunk`` scales the house chunk constants by a per-item
    cost estimate, and the resolved value is recorded on the result so
    an experiment's identity includes its partition.
    """

    def test_scales_inversely_with_cost(self):
        assert adaptive_chunk(32, 1.0) == 32
        assert adaptive_chunk(32, 2.0) == 16
        assert adaptive_chunk(64, 0.5) == 128

    def test_clamps_to_floor_and_cap(self):
        assert adaptive_chunk(32, 1000.0) == 8
        assert adaptive_chunk(64, 1e-9) == 4096
        assert adaptive_chunk(32, 100.0, floor=2) == 2
        assert adaptive_chunk(64, 0.01, cap=512) == 512

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            adaptive_chunk(0, 1.0)
        with pytest.raises(ValueError):
            adaptive_chunk(32, 0.0)
        with pytest.raises(ValueError):
            adaptive_chunk(32, 1.0, floor=0)
        with pytest.raises(ValueError):
            adaptive_chunk(32, 1.0, floor=16, cap=8)

    def test_montecarlo_records_resolved_chunk(self):
        result = monte_carlo_tail(protocol="can", m=5, trials=40, seed=3, jobs=1)
        # Three nodes is the baseline network, so the default resolves
        # to the historical CHUNK_TRIALS and pinned results stand.
        assert result.chunk_trials == 32

    def test_montecarlo_explicit_chunk_still_honoured(self):
        implicit = monte_carlo_tail(protocol="can", m=5, trials=40, seed=3, jobs=1)
        explicit = monte_carlo_tail(
            protocol="can", m=5, trials=40, seed=3, jobs=1, chunk_trials=32
        )
        assert explicit.chunk_trials == 32
        assert explicit.inconsistent == implicit.inconsistent
        assert explicit.imo == implicit.imo
        assert explicit.double_reception == implicit.double_reception

    def test_verification_records_backend_scaled_chunk(self):
        engine = verify_consistency(
            protocol="can", m=5, max_flips=1, jobs=1, backend="engine"
        )
        batch = verify_consistency(
            protocol="can", m=5, max_flips=1, jobs=1, backend="batch"
        )
        assert engine.chunk_placements == 64
        # Batch placements are ~16x cheaper per item, so the default
        # chunk grows by the same factor.
        assert batch.chunk_placements == 1024
        assert engine.counterexamples == batch.counterexamples
        assert engine.runs == batch.runs
