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
        # is all engine suffix and must carry the engine's label.
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
        # The engine suffix samples queue depth at window ticks that are
        # multiples of the stride, not at suffix ticks.  Here the cut is
        # off the stride and the deepest queue (2) is held between two
        # suffix-clock sample ticks, so a phase slip would report 1.
        import repro.traffic.batch as traffic_batch
        from repro.traffic.window import _BACKLOG_STRIDE

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
        suffix = traffic_batch._run_engine_suffix

        def spy(spec, window, pending, rng, cut, attempts):
            cuts.append(cut)
            return suffix(spec, window, pending, rng, cut, attempts)

        monkeypatch.setattr(traffic_batch, "_run_engine_suffix", spy)
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

