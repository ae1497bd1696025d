"""Traffic workloads at scale.

``test_traffic.py`` checks the submission schedule against a per-tick
reference; these check whole runs through :mod:`repro.traffic` —
sustained multi-window runs, seed handoff across the worker pool, the
load arithmetic against :class:`NetworkProfile`, and queue behaviour
when submissions outpace what arbitration can serve.
"""

import pytest

from repro.errors import ConfigurationError
from repro.metrics.export import json_line
from repro.traffic import TrafficSpec, run_traffic, traffic_records
from repro.workload.profiles import NetworkProfile


def _lines(outcome):
    return [json_line(record) for record in traffic_records(outcome)]


class TestPoissonDeterminism:
    def test_poisson_schedule_invariant_under_jobs(self):
        """The seeded Bernoulli draws never depend on the worker count."""
        spec = TrafficSpec(
            name="poisson-jobs",
            n_nodes=3,
            windows=2,
            window_bits=700,
            source="poisson",
            rate_per_bit=0.003,
            seed=17,
        )
        serial = run_traffic(spec, jobs=1)
        parallel = run_traffic(spec, jobs=2)
        assert _lines(serial) == _lines(parallel)

    def test_poisson_reruns_are_bit_identical(self):
        spec = TrafficSpec(
            n_nodes=3,
            windows=1,
            window_bits=900,
            source="poisson",
            rate_per_bit=0.004,
            seed=9,
        )
        assert _lines(run_traffic(spec, jobs=1)) == _lines(
            run_traffic(spec, jobs=1)
        )

    def test_poisson_seed_changes_schedule(self):
        def schedule(seed):
            spec = TrafficSpec(
                n_nodes=3,
                windows=1,
                window_bits=900,
                source="poisson",
                rate_per_bit=0.004,
                seed=seed,
            )
            return [
                (s.time, s.node) for s in run_traffic(spec, jobs=1).schedule
            ]

        assert schedule(1) != schedule(2)


class TestLoadArithmetic:
    def test_submission_rate_matches_profile(self):
        """The periodic schedule realises ``frames_per_second``.

        The spec's period arithmetic is the profile's; over a long
        window the submission count must match the profile's frame
        rate applied to the active simulated time.
        """
        profile = NetworkProfile(
            bit_rate=1_000_000.0, n_nodes=4, load=0.5, frame_bits=110
        )
        spec = TrafficSpec(
            n_nodes=4, windows=1, window_bits=20_000, load=0.5, seed=1
        )
        assert spec.period_bits == int(
            round(profile.n_nodes * profile.frame_bits / profile.load)
        )
        outcome = run_traffic(spec, jobs=1)
        active_seconds = spec.total_active_bits / profile.bit_rate
        expected = profile.frames_per_second * active_seconds
        frames = outcome.stats.frames_submitted
        assert abs(frames - expected) / expected < 0.05

    def test_measured_load_tracks_frames_per_second(self):
        """Doubling the profile's frame rate doubles the measured load.

        The absolute measured load sits below the nominal target — the
        ``frame_bits=110`` planning constant is the paper's payload-8
        frame, while the generated 2-byte frames occupy fewer wire bits
        — but the measurement must scale linearly with the realised
        frame rate for it to mean anything.
        """

        def measured(load):
            spec = TrafficSpec(
                n_nodes=3,
                windows=1,
                window_bits=30_000,
                load=load,
                seed=4,
            )
            return run_traffic(spec, jobs=1).stats.bus_load

        low = measured(0.2)
        high = measured(0.4)
        assert low > 0.05
        assert high / low == pytest.approx(2.0, rel=0.2)


class TestOverloadBacklog:
    def test_backlog_builds_when_submissions_outpace_arbitration(self):
        """Overload queues frames; the drain still delivers all of them."""
        spec = TrafficSpec(
            name="overload",
            n_nodes=3,
            windows=1,
            window_bits=4000,
            load=3.0,
            seed=6,
        )
        outcome = run_traffic(spec, jobs=1)
        stats = outcome.stats
        assert stats.max_backlog >= 2
        assert stats.bus_load > 0.85
        assert stats.frames_submitted > 50
        assert stats.delivered == stats.frames_submitted
        assert stats.omitted == 0 and stats.lost == 0
        assert outcome.atomic

    def test_overload_beyond_cap_rejected(self):
        with pytest.raises(ConfigurationError):
            TrafficSpec(load=4.5)
