"""Tests for the Monte-Carlo validation (experiment E-MC)."""

import pytest

from repro.analysis.enumeration import enumerate_tail_patterns
from repro.analysis.montecarlo import (
    monte_carlo_full,
    monte_carlo_tail,
    wilson_interval,
)
from repro.errors import AnalysisError


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        low, high = wilson_interval(10, 100)
        assert low < 0.1 < high

    def test_zero_successes(self):
        low, high = wilson_interval(0, 50)
        assert low == 0.0
        assert high > 0.0

    def test_all_successes(self):
        low, high = wilson_interval(50, 50)
        assert high == 1.0
        assert low < 1.0

    def test_narrows_with_trials(self):
        narrow = wilson_interval(100, 1000)
        wide = wilson_interval(10, 100)
        assert (narrow[1] - narrow[0]) < (wide[1] - wide[0])

    def test_no_trials_rejected(self):
        with pytest.raises(AnalysisError):
            wilson_interval(0, 0)


class TestTailMonteCarlo:
    def test_estimate_brackets_exact_value(self):
        """The stochastic estimate must agree with the exhaustive
        enumeration over the identical fault universe."""
        ber = 0.08
        mc = monte_carlo_tail("can", n_nodes=3, ber_star=ber, trials=600, seed=11)
        exact = enumerate_tail_patterns(
            "can", n_nodes=3, window=2, ber_star=ber, tau_data=2
        )
        low, high = mc.imo_confidence_interval(z=2.6)
        assert low <= exact.p_inconsistent_omission <= high

    def test_majorcan_never_inconsistent(self):
        mc = monte_carlo_tail("majorcan", n_nodes=3, ber_star=0.2, trials=150, seed=5)
        assert mc.inconsistent == 0

    def test_determinism_with_seed(self):
        a = monte_carlo_tail("can", ber_star=0.1, trials=100, seed=42)
        b = monte_carlo_tail("can", ber_star=0.1, trials=100, seed=42)
        assert (a.imo, a.flips_total) == (b.imo, b.flips_total)

    def test_zero_rate_never_flips(self):
        mc = monte_carlo_tail("can", ber_star=0.0, trials=20, seed=1)
        assert mc.flips_total == 0
        assert mc.no_fault_trials == 20

    def test_validation(self):
        with pytest.raises(AnalysisError):
            monte_carlo_tail("can", n_nodes=1)

    def test_full_validation(self):
        with pytest.raises(AnalysisError, match="two nodes"):
            monte_carlo_full("can", n_nodes=1, trials=2, seed=1)


class TestFullMonteCarlo:
    def test_runs_and_counts(self):
        mc = monte_carlo_full("can", n_nodes=3, ber_star=3e-3, trials=40, seed=3)
        assert mc.trials == 40
        assert mc.flips_total > 0
        assert 0 <= mc.imo <= mc.trials

    @pytest.mark.parametrize(
        "protocol, seed, expected",
        [
            ("can", 3, (0, 1, 1, 82)),
            ("majorcan", 3, (5, 0, 5, 84)),
            ("can", 11, (0, 2, 2, 70)),
            ("majorcan", 11, (4, 0, 4, 69)),
        ],
    )
    def test_counts_pinned(self, protocol, seed, expected):
        """Golden counts; 20-trial chunks share one generator, so each
        trial starts where the previous one left the stream."""
        mc = monte_carlo_full(
            protocol, n_nodes=4, ber_star=3e-3, trials=60, seed=seed, chunk_trials=20
        )
        counts = (mc.imo, mc.double_reception, mc.inconsistent, mc.flips_total)
        assert counts == expected

    def test_majorcan_consistent_at_moderate_noise(self):
        mc = monte_carlo_full("majorcan", n_nodes=3, ber_star=1e-3, trials=40, seed=9)
        assert mc.imo == 0
