"""The vectorised noise layer: flip scans and noisy differentials.

Two contracts from the noise-vectorisation work are pinned here, plus
the rejection of compressed recordings:

* :meth:`RandomViewErrorInjector.next_flip` preserves the engine's
  draw order exactly — a scan finds the flip the scalar per-node loop
  finds, and leaves the stream where that loop would be once settled;
* noisy traffic runs are *bit-identical* across backend, worker count
  and cache temperature, including the degenerate (BER 0) and extreme
  (bus never idles) boundaries;
* a recording whose manifest names a compression is refused, since
  recordings are written uncompressed.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.can.controller import CanController
from repro.errors import SimulationError, TraceStoreError
from repro.faults.bit_errors import RandomViewErrorInjector
from repro.metrics.export import json_line
from repro.simulation.engine import SimulationEngine
from repro.traffic import (
    BurstSpec,
    TrafficSpec,
    run_traffic,
    traffic_records,
)


def _lines(outcome):
    return [json_line(record) for record in traffic_records(outcome)]


# ---------------------------------------------------------------------------
# The injector's flip scan
# ---------------------------------------------------------------------------

_NAMES = tuple("n%d" % index for index in range(8))


def _scalar_next_flip(seed, width, ber, origin, start, end):
    """The engine's draw loop, verbatim: one uniform per eligible node
    per tick from tick ``origin`` (``ScalarViewNoise``'s order),
    reporting the first flipping tick in ``start..end-1``."""
    rng = np.random.default_rng(seed)
    for tick in range(origin, end):
        for _ in range(width):
            if rng.random() < ber and tick >= start:
                return tick
    return None


class TestNextFlip:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_nodes=st.integers(1, 8),
        ber=st.sampled_from([0.0, 1e-4, 2e-3, 0.03]),
        ran=st.integers(0, 1500),
        gap=st.integers(0, 2500),
        span=st.integers(0, 3000),
        data=st.data(),
    )
    def test_scan_matches_the_scalar_draw_order(
        self, seed, n_nodes, ber, ran, gap, span, data
    ):
        # An engine runs the injector for ``ran`` ticks from tick 0, then
        # the scan starts ``gap`` ticks later, inside or past the
        # lookahead.  Without a run the scan comes before any engine
        # binds the injector, and the stream starts at the scan.
        names = _NAMES[:n_nodes]
        only_nodes = data.draw(
            st.none() | st.lists(st.sampled_from(names), min_size=1, unique=True)
        )
        width = n_nodes if only_nodes is None else len(only_nodes)
        noise = RandomViewErrorInjector(
            ber, seed=seed, only_nodes=only_nodes, names=names
        )
        if ran:
            engine = SimulationEngine(
                [CanController(name) for name in names],
                injector=noise,
                record_bits=False,
            )
            engine.run(ran)
        start = ran + gap
        end = start + span
        origin = 0 if ran else start
        assert noise.next_flip(start, end) == _scalar_next_flip(
            seed, width, ber, origin, start, end
        )
        settled = start + data.draw(st.integers(0, span))
        noise.settle(settled)
        reference = np.random.default_rng(seed)
        reference.random((settled - origin) * width)
        assert noise.rng.bit_generator.state == reference.bit_generator.state

    def test_engine_goes_on_from_the_scanned_lookahead(self):
        # The scan's draws are the engine's: a run after a scan flips
        # exactly where a run on a fresh injector does, and leaves the
        # stream at the same place.
        names = _NAMES[:4]

        def run(scan):
            noise = RandomViewErrorInjector(2e-3, seed=17, names=names)
            flip = noise.next_flip(0, 5000) if scan else None
            engine = SimulationEngine(
                [CanController(name) for name in names],
                injector=noise,
                record_bits=False,
            )
            engine.run(5000)
            return flip, noise.injections, noise.rng.bit_generator.state

        flip, scanned, scanned_state = run(scan=True)
        _, fresh, fresh_state = run(scan=False)
        assert scanned == fresh and flip == scanned[0][0]
        assert scanned_state == fresh_state

    def test_ber_change_redraws_the_lookahead(self):
        # A new BER thresholds the same uniforms afresh: the scan after
        # the change rewinds within the lookahead and finds the flip the
        # scalar loop finds at the new BER.
        names = _NAMES[:3]
        noise = RandomViewErrorInjector(1e-4, seed=23, names=names)
        noise.next_flip(0, 4000)
        noise.ber_star = 0.01
        assert noise.next_flip(700, 4000) == _scalar_next_flip(
            23, 3, 0.01, 0, 700, 4000
        )

    def test_empty_range_is_none(self):
        noise = RandomViewErrorInjector(0.9, seed=9, names=_NAMES[:2])
        assert noise.next_flip(40, 40) is None
        assert noise.next_flip(40, 12) is None

    def test_scan_before_an_engine_needs_names(self):
        with pytest.raises(SimulationError):
            RandomViewErrorInjector(0.1).next_flip(0, 100)

    def test_scan_refuses_to_rewind_past_its_lookahead(self):
        noise = RandomViewErrorInjector(0.01, seed=2, names=_NAMES[:3])
        noise.next_flip(3000, 9000)
        with pytest.raises(SimulationError):
            noise.next_flip(10, 20)


class TestRngGoldenVector:
    """Bit-identity of vectorised noise rests on numpy's PCG64 stream.

    The traffic noise of window 0 comes from the first window child of
    the spec's seed tree; these values pin that stream, so a numpy
    release that changes ``SeedSequence.spawn`` or ``Generator.random``
    fails here first, naming the numpy version.
    """

    SPEC = TrafficSpec(name="rng-golden", n_nodes=3, windows=2, seed=2026)
    FIRST_UNIFORMS = [
        0.3223799807680582,
        0.8916957773727002,
        0.8162703914510337,
        0.6623775591615595,
        0.8740972441220959,
        0.8421771270584298,
        0.765804479762523,
        0.5556921645495566,
    ]

    def _window_seed(self):
        from repro.traffic import traffic_seed_tree

        return traffic_seed_tree(self.SPEC)[1][0]

    def test_first_uniforms_of_the_window_noise_stream(self):
        from repro.parallel.seeds import rng_from

        drawn = rng_from(self._window_seed()).random(8).tolist()
        assert drawn == self.FIRST_UNIFORMS, (
            "PCG64 stream changed under numpy %s" % np.__version__
        )

    def test_first_flip_tick(self):
        from repro.traffic.window import window_noise

        noise = window_noise(replace(self.SPEC, noise_ber=1e-3), self._window_seed())
        # The first uniform below 1e-3 is draw 1066: tick 1066 // 3.
        assert noise.next_flip(0, 100_000) == 355, (
            "PCG64 stream changed under numpy %s" % np.__version__
        )


# ---------------------------------------------------------------------------
# Noisy traffic differentials
# ---------------------------------------------------------------------------

#: The invariance-check noisy spec: per-bit noise plus a deterministic
#: burst, so the scan, the resume cut and the burst shift all fire.
_NOISY_SPEC = TrafficSpec(
    name="noise-batch-noisy",
    protocol="can",
    n_nodes=3,
    windows=3,
    window_bits=700,
    load=0.6,
    seed=29,
    noise_ber=0.002,
    bursts=(BurstSpec(node="n1", window=1, start=200, length=16),),
)


class TestNoisyTrafficDifferential:
    def test_bit_identical_across_backend_jobs_and_cache_temperature(self):
        reference = _lines(run_traffic(_NOISY_SPEC, jobs=1))
        cold = run_traffic(_NOISY_SPEC, jobs=1, backend="batch")
        assert _lines(cold) == reference
        # Warm shape caches: every wire program and bus image is cached.
        warm = run_traffic(_NOISY_SPEC, jobs=1, backend="batch")
        assert _lines(warm) == reference
        assert _lines(run_traffic(_NOISY_SPEC, jobs=2, backend="batch")) == reference
        assert _lines(run_traffic(_NOISY_SPEC, jobs=2)) == reference

    def test_record_events_off_stays_identical(self):
        spec = TrafficSpec(
            name="noise-batch-fast",
            protocol="majorcan",
            m=3,
            n_nodes=4,
            windows=2,
            window_bits=900,
            load=0.55,
            seed=11,
            noise_ber=2e-5,
            record_events=False,
        )
        batch = run_traffic(spec, jobs=1, backend="batch")
        assert _lines(batch) == _lines(run_traffic(spec, jobs=1))

    def test_degenerate_ber_zero_routes_to_the_plain_batch(self):
        spec = TrafficSpec(
            name="noise-batch-zero", n_nodes=3, windows=2,
            window_bits=600, load=0.5, seed=2, noise_ber=0.0,
        )
        outcome = run_traffic(spec, jobs=1, backend="batch")
        assert outcome.backend_stats == {"batch": spec.windows}
        assert _lines(outcome) == _lines(run_traffic(spec, jobs=1))

    def test_extreme_ber_overflow_raises_identically(self):
        # At BER 0.4 error cascades keep the bus busy past the drain
        # budget; both backends must fail with the engine's message.
        spec = TrafficSpec(
            name="noise-batch-extreme", n_nodes=3, windows=1,
            window_bits=900, max_window_bits=3000, load=0.5, seed=8,
            noise_ber=0.4,
        )
        with pytest.raises(SimulationError) as engine_err:
            run_traffic(spec, jobs=1)
        with pytest.raises(SimulationError) as batch_err:
            run_traffic(spec, jobs=1, backend="batch")
        assert str(batch_err.value) == str(engine_err.value)

    def test_moderate_ber_mixed_split_stays_identical(self):
        spec = TrafficSpec(
            name="noise-batch-moderate", protocol="majorcan", m=3,
            n_nodes=3, windows=6, window_bits=700, load=0.5, seed=19,
            noise_ber=0.01,
        )
        batch = run_traffic(spec, jobs=1, backend="batch")
        assert sum(batch.backend_stats.values()) == spec.windows
        assert _lines(batch) == _lines(run_traffic(spec, jobs=1))


# ---------------------------------------------------------------------------
# Trace compression
# ---------------------------------------------------------------------------


class TestCompressionRejected:
    def test_unknown_compression_rejected_on_read(self):
        from repro.tracestore.corpus import GOLDEN_BUILDERS
        from repro.tracestore.recorder import outcome_records
        from repro.tracestore.schema import require_valid, validate_records

        records = list(outcome_records(GOLDEN_BUILDERS["eof-extended-flag-majorcan"]()))
        manifest = dict(records[0])
        manifest["compression"] = "zstd"
        problems = validate_records([manifest] + records[1:])
        assert any("zstd" in problem for problem in problems)
        with pytest.raises(TraceStoreError, match="zstd"):
            require_valid([manifest] + records[1:])
