"""Tests for the MajorCAN residual-rate model."""

import math
from fractions import Fraction

import pytest

from repro.analysis.residual import (
    _binom_sf,
    p_more_than_m_errors,
    residual_rate_tail_bound,
    residual_rate_upper_bound,
    residual_table,
    smallest_m_meeting_target,
)
from repro.errors import AnalysisError
from repro.faults.models import ber_star
from repro.workload.profiles import PAPER_PROFILE


def _exact_sf(m, n, p):
    """P(X > m) for X ~ Binomial(n, p), as an exact rational."""
    q = Fraction(p)
    cdf = sum(math.comb(n, k) * q**k * (1 - q) ** (n - k) for k in range(m + 1))
    return 1 - cdf


class TestProbability:
    def test_zero_ber_zero_residual(self):
        assert p_more_than_m_errors(0.0, 5, 32, 130) == 0.0

    def test_monotone_decreasing_in_m(self):
        values = [p_more_than_m_errors(1e-4, m, 32, 130) for m in range(3, 9)]
        assert values == sorted(values, reverse=True)

    def test_monotone_increasing_in_ber(self):
        assert p_more_than_m_errors(1e-4, 5, 32, 130) > p_more_than_m_errors(
            1e-5, 5, 32, 130
        )

    def test_validation(self):
        with pytest.raises(AnalysisError):
            p_more_than_m_errors(1e-4, -1, 32, 130)
        with pytest.raises(AnalysisError):
            p_more_than_m_errors(1e-4, 5, 32, 0)


class TestBinomialTail:
    @pytest.mark.parametrize("ber,m,exposed", [
        (1e-4, 5, PAPER_PROFILE.frame_bits + 20),  # upper bound, paper m
        (1e-4, 5, 20),  # tail-window bound, paper m
        (1e-5, 3, PAPER_PROFILE.frame_bits + 14),
        (1e-6, 7, 36),
        (0.3, 2, 4),  # mode past m: the sum runs to n
    ])
    def test_matches_exact_rational_sum(self, ber, m, exposed):
        n = PAPER_PROFILE.n_nodes * exposed
        p = ber_star(ber, PAPER_PROFILE.n_nodes)
        assert _binom_sf(m, n, p) == pytest.approx(
            float(_exact_sf(m, n, p)), rel=1e-12
        )

    def test_degenerate_probabilities(self):
        assert _binom_sf(5, 100, 0.0) == 0.0
        assert _binom_sf(5, 100, 1.0) == 1.0
        assert _binom_sf(100, 100, 1.0) == 0.0


class TestBounds:
    def test_tail_bound_below_upper_bound(self):
        for ber in (1e-4, 1e-5):
            assert residual_rate_tail_bound(ber, 5) < residual_rate_upper_bound(
                ber, 5
            )

    def test_m5_meets_target_at_1e5_but_not_1e4(self):
        """The honest deployment statement: the paper's m = 5 meets the
        1e-9/hour target (even on the pessimistic bound) for
        ber <= 1e-5, but not at the aggressive ber = 1e-4."""
        assert residual_rate_upper_bound(1e-5, 5) < 1e-9
        assert residual_rate_upper_bound(1e-4, 5) > 1e-9

    def test_residual_far_below_unfixed_can(self):
        """Even where m = 5 misses the strict target, its residual is
        four orders below standard CAN's IMO rate."""
        from repro.analysis.probability import p_new_scenario_per_frame
        from repro.analysis.rates import incidents_per_hour
        from repro.workload.profiles import PAPER_PROFILE

        can_rate = incidents_per_hour(
            p_new_scenario_per_frame(1e-4, 32, 110), PAPER_PROFILE
        )
        assert residual_rate_upper_bound(1e-4, 5) < can_rate / 1e4


class TestDesignRule:
    def test_smallest_m_by_environment(self):
        """Section 5's remark made computable: the required m grows
        with the error rate — and the aggressive environment demands
        m = 6, which also closes the finding-F1 channel."""
        assert smallest_m_meeting_target(1e-4) == 6
        assert smallest_m_meeting_target(1e-5) <= 5
        assert smallest_m_meeting_target(1e-6) == 3

    def test_unreachable_target_raises(self):
        with pytest.raises(AnalysisError):
            smallest_m_meeting_target(0.3, target=1e-30, max_m=4)


class TestTable:
    def test_grid_shape_and_flags(self):
        rows = residual_table(ber_values=(1e-5,), m_values=(3, 5))
        assert len(rows) == 2
        by_m = {row.m: row for row in rows}
        assert not by_m[3].meets_target_upper
        assert by_m[5].meets_target_upper
