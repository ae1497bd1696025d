"""The vectorised noise layer: flip scans, noisy differentials, RLE.

Three contracts from the noise-vectorisation work are pinned here:

* :mod:`repro.analysis.noisebatch` preserves the engine's draw order
  exactly — a vector scan consumes the same stream prefix as the
  scalar injector loop, and snapshots rewind it bit-for-bit;
* noisy traffic runs are *bit-identical* across backend, worker count
  and cache temperature, including the degenerate (BER 0) and extreme
  (bus never idles) boundaries;
* RLE-compressed recordings round-trip exactly and replay identically
  to their uncompressed twins.
"""

import numpy as np
import pytest

from repro.analysis.noisebatch import (
    advance,
    first_flip,
    generator_state,
    restore_state,
)
from repro.errors import SimulationError, TraceStoreError
from repro.metrics.export import json_line
from repro.traffic import (
    BurstSpec,
    TrafficSpec,
    run_traffic,
    traffic_records,
)


def _lines(outcome):
    return [json_line(record) for record in traffic_records(outcome)]


# ---------------------------------------------------------------------------
# noisebatch primitives
# ---------------------------------------------------------------------------


def _scalar_scan(rng, total, ber):
    """The engine's draw loop, verbatim: one uniform per draw slot."""
    for index in range(total):
        if rng.random() < ber:
            return index
    return None


class TestFirstFlip:
    @pytest.mark.parametrize("seed,total,ber", [
        (99, 5000, 0.01),
        (3, 200_000, 1e-5),
        (7, 131_072, 0.0005),
    ])
    def test_vector_scan_matches_scalar_draw_order(self, seed, total, ber):
        expected = _scalar_scan(np.random.default_rng(seed), total, ber)
        assert first_flip(np.random.default_rng(seed), total, ber) == expected

    def test_clean_scan_leaves_stream_exactly_total_ahead(self):
        scanned = np.random.default_rng(5)
        assert first_flip(scanned, 3000, 0.0) is None
        mirror = np.random.default_rng(5)
        advance(mirror, 3000)
        assert scanned.random() == mirror.random()

    def test_nonpositive_total_is_none_and_draws_nothing(self):
        rng = np.random.default_rng(9)
        state = generator_state(rng)
        assert first_flip(rng, 0, 0.9) is None
        assert first_flip(rng, -4, 0.9) is None
        assert rng.bit_generator.state == state

    def test_restore_state_rewinds_in_place(self):
        rng = np.random.default_rng(11)
        state = generator_state(rng)
        burned = [rng.random() for _ in range(17)]
        restore_state(rng, state)
        assert [rng.random() for _ in range(17)] == burned

    def test_advance_matches_discarded_scalar_draws(self):
        fast = np.random.default_rng(21)
        advance(fast, 70_001, chunk=4096)
        slow = np.random.default_rng(21)
        for _ in range(70_001):
            slow.random()
        assert fast.random() == slow.random()


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

    def _window_rng(self):
        from repro.parallel.seeds import rng_from
        from repro.traffic import traffic_seed_tree

        return rng_from(traffic_seed_tree(self.SPEC)[1][0])

    def test_first_uniforms_of_the_window_noise_stream(self):
        drawn = self._window_rng().random(8).tolist()
        assert drawn == self.FIRST_UNIFORMS, (
            "PCG64 stream changed under numpy %s" % np.__version__
        )

    def test_first_flip_index(self):
        flip = first_flip(self._window_rng(), 100_000, 1e-3)
        assert flip == 1066, "PCG64 stream changed under numpy %s" % np.__version__


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
# RLE trace compression
# ---------------------------------------------------------------------------


def _bit_recorded_outcome():
    from repro.tracestore.corpus import GOLDEN_BUILDERS

    return GOLDEN_BUILDERS["eof-extended-flag-majorcan"]()


class TestRleRoundTrip:
    def test_compress_expand_is_exact_for_every_golden_builder(self):
        from repro.tracestore import compress_records, expand_records
        from repro.tracestore.corpus import GOLDEN_BUILDERS
        from repro.tracestore.recorder import outcome_records

        for name, builder in sorted(GOLDEN_BUILDERS.items()):
            records = list(outcome_records(builder()))
            compressed = compress_records(records)
            expanded = expand_records(compressed)
            assert [json_line(r) for r in expanded] == [
                json_line(r) for r in records
            ], name

    def test_compressed_recording_is_smaller_and_loads_transparently(self, tmp_path):
        from repro.tracestore.recorder import record_outcome
        from repro.tracestore.replay import load_trace

        outcome = _bit_recorded_outcome()
        plain = record_outcome(str(tmp_path / "plain.jsonl"), outcome)
        packed = record_outcome(
            str(tmp_path / "packed.jsonl"), outcome, compression="rle"
        )
        plain_size = len(open(plain).read())
        packed_size = len(open(packed).read())
        assert packed_size < plain_size
        recorded = load_trace(packed)
        assert recorded.manifest["compression"] == "rle"
        # Expansion happened on load: every bit record is full again.
        assert recorded.bits
        for record in recorded.bits:
            assert set(record) >= {"bus", "drives", "views", "pos", "state"}
        assert [json_line(b) for b in recorded.bits] == [
            json_line(b) for b in load_trace(plain).bits
        ]

    def test_compressed_recording_replays_bit_identical(self, tmp_path):
        from repro.tracestore.recorder import record_outcome
        from repro.tracestore.replay import replay_trace

        outcome = _bit_recorded_outcome()
        path = record_outcome(
            str(tmp_path / "packed.jsonl"), outcome, compression="rle"
        )
        assert replay_trace(path).bit_identical

    def test_unknown_compression_rejected_at_write_and_read(self):
        from repro.tracestore.recorder import outcome_records
        from repro.tracestore.schema import validate_records

        outcome = _bit_recorded_outcome()
        with pytest.raises(TraceStoreError):
            list(outcome_records(outcome, compression="zstd"))
        records = list(outcome_records(outcome))
        manifest = dict(records[0])
        manifest["compression"] = "zstd"
        problems = validate_records([manifest] + records[1:])
        assert any("zstd" in problem for problem in problems)

    def test_expand_rejects_omission_before_any_run(self):
        from repro.tracestore import expand_bit_records

        with pytest.raises(TraceStoreError):
            expand_bit_records([{"type": "bit", "t": 0, "bus": "d"}])
