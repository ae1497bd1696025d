"""Batch-vs-engine identity for the campaign and reliability workloads.

PR 6 adds ``backend="batch"`` paths to :mod:`repro.faults.campaigns`
and :mod:`repro.analysis.reliability`.  The contract is the one every
other batch surface honours: *identical rows* for any ``backend`` and
any ``jobs``, with the batch provenance counters reporting (near) zero
engine runs on noise-free workloads.
"""

import pytest

from repro.analysis.reliability import reliability_comparison, reliability_sweep
from repro.errors import AnalysisError, ConfigurationError
from repro.faults.campaigns import CampaignSpec, run_campaign


def campaign_surface(outcome):
    """Everything a campaign backend must reproduce exactly."""
    return (
        outcome.as_row(),
        outcome.omission_rounds,
        outcome.rounds,
        outcome.attacked_rounds,
        outcome.errors_injected,
    )


def reliability_surface(rows):
    return [
        (
            row.protocol,
            row.ber,
            row.imo_rate_per_hour,
            row.mttf_hours,
            row.mission_survival,
        )
        for row in rows
    ]


class TestCampaignBackend:
    @pytest.mark.parametrize(
        "protocol,m", [("can", 5), ("minorcan", 5), ("majorcan", 3), ("majorcan", 5)]
    )
    def test_batch_rows_identical_to_engine(self, protocol, m):
        spec = CampaignSpec(
            protocol=protocol,
            m=m,
            n_nodes=4,
            rounds=64,
            attack_probability=0.5,
            seed=17,
        )
        engine = run_campaign(spec, backend="engine")
        batch = run_campaign(spec, backend="batch")
        assert campaign_surface(batch) == campaign_surface(engine)
        assert engine.backend_stats == {}
        assert batch.backend_stats["engine"] == 0
        assert sum(batch.backend_stats.values()) == 64

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("backend", ["engine", "batch"])
    def test_rows_independent_of_backend_and_jobs(self, backend, jobs):
        spec = CampaignSpec(
            protocol="can", rounds=20, attack_probability=0.4, seed=23
        )
        reference = run_campaign(spec, jobs=1, backend="engine")
        outcome = run_campaign(spec, jobs=jobs, backend=backend)
        assert campaign_surface(outcome) == campaign_surface(reference)

    def test_noisy_campaign_scans_rounds_and_resumes_flipped_ones(self):
        """A noisy round is classified by a vectorised scan of its
        noise-mask prefix: zero-flip rounds resolve through the tail
        replay, flipped rounds rerun on the engine from the rewound
        generator — same rows either way, engine count only for the
        rounds whose mask actually fired."""
        spec = CampaignSpec(
            protocol="can",
            rounds=6,
            attack_probability=0.5,
            noise_ber_star=1e-3,
            seed=5,
        )
        engine = run_campaign(spec, backend="engine")
        batch = run_campaign(spec, backend="batch")
        assert campaign_surface(batch) == campaign_surface(engine)
        classified = sum(
            batch.backend_stats.get(key, 0)
            for key in ("batch", "scalar", "header", "engine")
        )
        assert classified == 6
        assert batch.backend_stats.get("engine", 0) < 6

    def test_noisy_campaign_low_ber_rarely_needs_the_engine(self):
        spec = CampaignSpec(
            protocol="majorcan",
            m=5,
            rounds=20,
            attack_probability=0.4,
            noise_ber_star=1e-5,
            seed=12,
        )
        engine = run_campaign(spec, backend="engine")
        batch = run_campaign(spec, jobs=2, backend="batch")
        assert campaign_surface(batch) == campaign_surface(engine)
        assert batch.backend_stats.get("engine", 0) <= 2

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            run_campaign(CampaignSpec(rounds=1), backend="gpu")


class TestReliabilityBackend:
    def test_engine_and_batch_rates_identical(self):
        engine = reliability_comparison(1e-5, backend="engine")
        batch = reliability_comparison(1e-5, backend="batch")
        assert reliability_surface(batch) == reliability_surface(engine)
        assert engine[0].backend_stats is None
        for row in batch:
            assert row.backend_stats is not None
            assert row.backend_stats["engine"] == 0

    def test_empirical_rates_order_protocols_like_the_paper(self):
        """The measured tail-window rates keep MajorCAN at zero."""
        rows = reliability_comparison(1e-6, backend="batch")
        by_protocol = {row.protocol: row.imo_rate_per_hour for row in rows}
        assert by_protocol["MajorCAN"] == 0.0
        assert by_protocol["CAN"] > 0.0

    def test_analytic_default_untouched(self):
        rows = reliability_comparison(1e-4, mission_hours=(1.0,))
        assert rows[0].backend_stats is None
        assert rows[0].mttf_hours == pytest.approx(113, rel=0.02)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("backend", [None, "engine", "batch"])
    def test_sweep_independent_of_backend_plumbing_and_jobs(self, backend, jobs):
        reference = reliability_sweep([1e-6, 1e-5], jobs=1, backend=backend)
        sweep = reliability_sweep([1e-6, 1e-5], jobs=jobs, backend=backend)
        assert list(sweep) == list(reference)
        for ber in sweep:
            assert reliability_surface(sweep[ber]) == reliability_surface(
                reference[ber]
            )

    def test_unknown_backend_rejected(self):
        with pytest.raises(AnalysisError):
            reliability_comparison(1e-5, backend="gpu")
