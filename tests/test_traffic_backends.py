"""Differential tests: the frame-granular traffic batch backend.

The contract under test is strict equality of the *entire observable
surface*: a ``run_traffic(backend="batch")`` run must serialize to the
same schema-v2 records — schedule, spliced bus trace, event stream,
per-frame verdicts, aggregate verdict — as the per-bit engine, for any
worker count, cache temperature and fallback mix.
"""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.metrics.export import json_line
from repro.traffic import (
    BurstSpec,
    TrafficSpec,
    clear_window_cache,
    run_traffic,
    traffic_records,
    window_backend,
    window_cache_stats,
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
        clear_window_cache()
        assert _lines(run_traffic(spec, jobs=1, backend="batch")) == reference
        assert _lines(run_traffic(spec, jobs=2, backend="batch")) == reference
        assert _lines(run_traffic(spec, jobs=2)) == reference

    def test_traffic_corpus_specs_bit_identical(self):
        for spec in _corpus_specs():
            clear_window_cache()
            engine = run_traffic(spec, jobs=1)
            batch = run_traffic(spec, jobs=1, backend="batch")
            assert _lines(batch) == _lines(engine), spec.name

    def test_cache_warm_run_bit_identical_to_cold(self):
        spec = _SEEDED_SPECS[0]
        clear_window_cache()
        cold = run_traffic(spec, jobs=1, backend="batch")
        stats = window_cache_stats()
        assert stats["misses"] == spec.windows and stats["hits"] == 0
        warm = run_traffic(spec, jobs=1, backend="batch")
        assert window_cache_stats()["hits"] == spec.windows
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
        clear_window_cache()
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
        assert window_backend(spec, 0) == "batch"
        assert window_backend(spec, 1) == "noise"
        assert window_backend(spec, 2) == "batch"
        clear_window_cache()
        batch = run_traffic(spec, jobs=1, backend="batch")
        assert batch.backend_stats == {"batch": 2, "resume": 1}
        assert _lines(batch) == _lines(run_traffic(spec, jobs=1))

    def test_noisy_windows_route_to_the_noise_evaluator(self):
        spec = TrafficSpec(
            name="noisy", n_nodes=3, windows=2, window_bits=600,
            load=0.5, seed=2, noise_ber=0.001,
        )
        assert all(
            window_backend(spec, window) == "noise"
            for window in range(spec.windows)
        )
        clear_window_cache()
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
        assert all(
            window_backend(spec, window) == "engine"
            for window in range(spec.windows)
        )
        outcome = run_traffic(spec, jobs=1, backend="batch")
        assert outcome.backend_stats == {"engine": spec.windows}


class TestWindowCache:
    def test_hits_are_deterministic_copies(self):
        spec = TrafficSpec(
            name="cache", protocol="can", n_nodes=3, windows=1,
            window_bits=600, load=0.8, seed=5,
        )
        clear_window_cache()
        first = run_traffic(spec, jobs=1, backend="batch")
        second = run_traffic(spec, jobs=1, backend="batch")
        assert window_cache_stats() == {"entries": 1, "hits": 1, "misses": 1}
        assert _lines(first) == _lines(second)
        # A hit returns an independent copy, not the cached object.
        first.stats  # touch to make the intent explicit
        assert first is not second

    def test_clear_resets_counters(self):
        clear_window_cache()
        assert window_cache_stats() == {"entries": 0, "hits": 0, "misses": 0}
