"""Differential tests: the frame-granular traffic batch backend.

The contract under test is strict equality of the *entire observable
surface*: a ``run_traffic(backend="batch")`` run must serialize to the
same schema-v2 records — schedule, spliced bus trace, event stream,
per-frame verdicts, aggregate verdict — as the per-bit engine, for any
worker count and fallback mix.
"""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.metrics.export import json_line
from repro.traffic import (
    BurstSpec,
    TrafficSpec,
    build_schedule,
    run_traffic,
    run_window,
    traffic_records,
)


def _lines(outcome):
    return [json_line(record) for record in traffic_records(outcome)]


def _corpus_specs():
    from repro.tracestore.corpus import GOLDEN_TRAFFIC_ENTRIES, _traffic_spec

    return [_traffic_spec(name) for name in GOLDEN_TRAFFIC_ENTRIES]


#: Seeded specs beyond the corpus: contention, protocol variants,
#: Poisson arrivals and overload backlog.
_SEEDED_SPECS = (
    TrafficSpec(
        name="contended-majorcan",
        protocol="majorcan",
        m=5,
        n_nodes=4,
        windows=3,
        window_bits=800,
        load=0.9,
        seed=23,
    ),
    TrafficSpec(
        name="periodic-can",
        protocol="can",
        n_nodes=3,
        windows=2,
        window_bits=700,
        load=0.8,
        seed=5,
    ),
    TrafficSpec(
        name="periodic-minorcan",
        protocol="minorcan",
        n_nodes=3,
        windows=2,
        window_bits=900,
        load=0.7,
        seed=9,
    ),
    TrafficSpec(
        name="poisson-majorcan",
        protocol="majorcan",
        m=3,
        n_nodes=4,
        windows=2,
        window_bits=900,
        source="poisson",
        rate_per_bit=0.002,
        load=0.9,
        seed=41,
    ),
    TrafficSpec(
        name="overload-can",
        protocol="can",
        n_nodes=4,
        windows=2,
        window_bits=600,
        load=1.8,
        seed=3,
    ),
    # Noisy at a low BER: most windows scan clean, the odd flipped one
    # resumes the engine from the cut.
    TrafficSpec(
        name="invariance-noisy-low-ber",
        protocol="majorcan",
        m=3,
        n_nodes=4,
        windows=4,
        window_bits=900,
        load=0.55,
        seed=11,
        noise_ber=2e-5,
    ),
)


class TestBackendEquivalence:
    @pytest.mark.parametrize("spec", _SEEDED_SPECS, ids=lambda s: s.name)
    def test_seeded_specs_bit_identical_across_backend_and_jobs(self, spec):
        reference = _lines(run_traffic(spec, jobs=1))
        assert _lines(run_traffic(spec, jobs=1, backend="batch")) == reference
        assert _lines(run_traffic(spec, jobs=2, backend="batch")) == reference
        assert _lines(run_traffic(spec, jobs=2)) == reference

    def test_traffic_corpus_specs_bit_identical(self):
        for spec in _corpus_specs():
            engine = run_traffic(spec, jobs=1)
            batch = run_traffic(spec, jobs=1, backend="batch")
            assert _lines(batch) == _lines(engine), spec.name

    def test_cache_warm_run_bit_identical_to_cold(self):
        # Warm shape caches (wire programs, bus images) must not change
        # a single record.
        spec = _SEEDED_SPECS[0]
        cold = run_traffic(spec, jobs=1, backend="batch")
        warm = run_traffic(spec, jobs=1, backend="batch")
        assert _lines(warm) == _lines(cold)

    def test_drain_overflow_error_matches_engine(self):
        spec = TrafficSpec(
            name="overflow",
            protocol="can",
            n_nodes=3,
            windows=1,
            window_bits=64,
            max_window_bits=65,
            load=2.0,
            seed=1,
        )
        with pytest.raises(SimulationError) as engine_err:
            run_traffic(spec, jobs=1)
        with pytest.raises(SimulationError) as batch_err:
            run_traffic(spec, jobs=1, backend="batch")
        assert str(batch_err.value) == str(engine_err.value)

    def test_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError):
            run_traffic(TrafficSpec(), backend="vectorised")


class TestFallbackAccounting:
    def test_clean_spec_is_all_batch(self):
        spec = _SEEDED_SPECS[0]
        outcome = run_traffic(spec, jobs=1, backend="batch")
        assert outcome.backend_stats == {"batch": spec.windows}

    def test_engine_backend_reports_no_stats(self):
        outcome = run_traffic(_SEEDED_SPECS[1], jobs=1)
        assert outcome.backend_stats is None

    def test_burst_window_resumes_from_the_cut(self):
        spec = TrafficSpec(
            name="burst-split",
            protocol="majorcan",
            m=5,
            n_nodes=3,
            windows=3,
            window_bits=800,
            load=0.7,
            seed=13,
            bursts=(BurstSpec(node="n1", window=1, start=120, length=6),),
        )
        batch = run_traffic(spec, jobs=1, backend="batch")
        assert batch.backend_stats == {"batch": 2, "resume": 1}
        assert _lines(batch) == _lines(run_traffic(spec, jobs=1))

    def test_fault_before_the_first_frame_runs_the_window_on_the_engine(self):
        # A burst at tick 0 leaves nothing to commit (cut 0): the window
        # starts on the engine and must carry the engine's label.
        spec = TrafficSpec(
            name="burst-at-zero",
            protocol="majorcan",
            m=5,
            n_nodes=3,
            windows=2,
            window_bits=800,
            load=0.7,
            seed=13,
            bursts=(BurstSpec(node="n1", window=1, start=0, length=6),),
        )
        batch = run_traffic(spec, jobs=1, backend="batch")
        assert batch.backend_stats == {"batch": 1, "engine": 1}
        assert _lines(batch) == _lines(run_traffic(spec, jobs=1))
        submissions = tuple(
            sub for sub in build_schedule(spec) if sub.window == 1
        )
        assert run_window(spec, 1, submissions, backend="batch") == run_window(
            spec, 1, submissions
        )

    def test_resumed_backlog_samples_on_the_window_clock(self, monkeypatch):
        # The engine samples queue depth at window ticks that are
        # multiples of the stride, not at segment ticks.  Here the cut is
        # off the stride and the deepest queue (2) is held between two
        # segment-clock sample ticks, so a phase slip would report 1.
        from repro.traffic.window import _BACKLOG_STRIDE, _EngineWindow

        spec = TrafficSpec(
            name="backlog-phase",
            protocol="can",
            n_nodes=2,
            windows=1,
            window_bits=500,
            source="poisson",
            rate_per_bit=0.004,
            load=0.9,
            seed=2,
            bursts=(BurstSpec(node="n1", window=0, start=150, length=2),),
        )
        cuts = []
        run_segment = _EngineWindow.run_segment

        def spy(self, cut, *args):
            cuts.append(cut)
            return run_segment(self, cut, *args)

        monkeypatch.setattr(_EngineWindow, "run_segment", spy)
        batch = run_traffic(spec, jobs=1, backend="batch")
        assert batch.backend_stats == {"resume": 1}
        assert len(cuts) == 1 and cuts[0] % _BACKLOG_STRIDE
        engine = run_traffic(spec, jobs=1)
        assert batch.stats.max_backlog == engine.stats.max_backlog == 2
        assert _lines(batch) == _lines(engine)

    def test_noisy_windows_route_to_the_noise_evaluator(self):
        spec = TrafficSpec(
            name="noisy", n_nodes=3, windows=2, window_bits=600,
            load=0.5, seed=2, noise_ber=0.001,
        )
        outcome = run_traffic(spec, jobs=1, backend="batch")
        assert outcome.backend_stats is not None
        assert set(outcome.backend_stats) <= {"batch", "resume", "engine"}
        assert sum(outcome.backend_stats.values()) == spec.windows
        assert _lines(outcome) == _lines(run_traffic(spec, jobs=1))

    def test_hlp_windows_still_classify_to_engine(self):
        spec = TrafficSpec(
            name="hlp", n_nodes=3, windows=2, window_bits=900,
            load=0.3, seed=2, hlp="edcan",
        )
        outcome = run_traffic(spec, jobs=1, backend="batch")
        assert outcome.backend_stats == {"engine": spec.windows}



class TestHandBack:
    def test_carried_state_equals_an_uninterrupted_engine_at_each_boundary(
        self, monkeypatch
    ):
        # Every boundary an engine segment hands back — the first one and
        # those after closed-form segments have settled TEC/REC — must
        # carry exactly the state a single engine run from tick 0 has at
        # that tick: error counters, queues with their attempt counters,
        # and the noise generator's position in the scalar draw order.
        from repro.faults.bit_errors import RandomViewErrorInjector
        from repro.faults.scenarios import make_controller
        from repro.parallel.seeds import rng_from
        from repro.simulation.engine import SimulationEngine
        from repro.traffic.batch import run_window_batch
        from repro.traffic.window import (
            _controller_config,
            _EngineWindow,
            _submission_frame,
        )

        spec = TrafficSpec(
            name="carry",
            protocol="majorcan",
            m=5,
            n_nodes=4,
            windows=1,
            window_bits=3000,
            load=0.9,
            seed=2,
            noise_ber=2e-3,
            record_events=False,
        )
        noise_seed = 2

        def _state(controllers, noise, tick):
            noise.settle(tick)
            return (
                [(c.counters.tec, c.counters.rec) for c in controllers],
                [[(job.frame, job.attempts) for job in c.tx_queue] for c in controllers],
                noise.rng.bit_generator.state,
            )

        carried = []
        run_segment = _EngineWindow.run_segment

        def spy(self, cut, *args):
            result, boundary = run_segment(self, cut, *args)
            if boundary is not None:
                state = _state(self.controllers, self.injectors[0], boundary.tick)
                assert boundary.attempts == tuple(
                    queue[0][1] if queue else 0 for queue in state[1]
                )
                carried.append((boundary.tick, state))
            return result, boundary

        monkeypatch.setattr(_EngineWindow, "run_segment", spy)
        submissions = tuple(build_schedule(spec))
        run_window_batch(spec, 0, submissions, noise_seed)
        assert len(carried) >= 5
        assert any(state[0] != [(0, 0)] * spec.n_nodes for _, state in carried)
        assert any(attempts for _, state in carried for queue in state[1]
                   for _, attempts in queue[:1])

        config = _controller_config(spec)
        controllers = [
            make_controller(spec.protocol, name, m=spec.m, config=config)
            for name in spec.node_names
        ]
        noise = RandomViewErrorInjector(spec.noise_ber, seed=rng_from(noise_seed))
        engine = SimulationEngine(controllers, injector=noise, record_bits=False)
        by_tick = {}
        for sub in submissions:
            by_tick.setdefault(sub.time, []).append(sub)

        def submit(now):
            for sub in by_tick.get(now, ()):
                controllers[sub.node_index].submit(_submission_frame(sub))

        engine.add_tick_hook(submit)
        for tick, state in carried:
            engine.run(tick - engine.time)
            assert _state(controllers, noise, tick) == state, tick


class TestPeriodicScheduleIsTdma:
    @pytest.mark.parametrize(
        "n_nodes, load, frame_bits",
        [(3, 0.5, 110), (8, 0.9, 110), (32, 0.9, 110), (32, 1.0, 110), (32, 0.9, 67)],
    )
    def test_no_faults_and_load_at_most_one_never_arbitrates(
        self, n_nodes, load, frame_bits
    ):
        # Node i's phase is (i * period) // n, so without faults nodes
        # submit frame_bits / load bit times apart.  The 2-byte frames
        # take ~67 bits plus 3 of intermission, so at load <= 1 that is
        # at least one frame slot (at 67 bits, load 0.9 still is): the
        # periodic workload is a TDMA schedule.  Its clean runs, the
        # paper profile among them, never reach the arbitration paths
        # nor put AB5's total order under contention.
        spec = TrafficSpec(
            name="tdma",
            protocol="majorcan",
            m=5,
            n_nodes=n_nodes,
            windows=2,
            window_bits=4000,
            load=load,
            frame_bits=frame_bits,
            seed=2026,
            record_events=False,
        )
        for backend in ("engine", "batch"):
            outcome = run_traffic(spec, jobs=1, backend=backend)
            assert outcome.stats.frames_submitted > 0
            assert outcome.stats.arbitration_lost == 0, backend
