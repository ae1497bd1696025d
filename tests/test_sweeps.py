"""Tests for parameter sweeps and the m-choice ablation."""

import pytest

from repro.analysis.sweeps import (
    imo_rate_sweep,
    m_ablation,
    omission_degree_revision,
)
from repro.errors import AnalysisError


class TestImoRateSweep:
    def test_grid_size(self):
        points = imo_rate_sweep(
            ber_values=(1e-5, 1e-4), node_counts=(8, 32), frame_lengths=(60, 110)
        )
        assert len(points) == 8

    def test_rates_increase_with_ber(self):
        points = imo_rate_sweep(ber_values=(1e-6, 1e-5, 1e-4))
        rates = [point.imo_new_per_hour for point in points]
        assert rates == sorted(rates)

    def test_new_scenario_rate_decreases_with_nodes(self):
        """ber* = ber/N, and the new scenario needs two *effective*
        errors, so spreading errors over more nodes helps."""
        points = imo_rate_sweep(ber_values=(1e-4,), node_counts=(8, 16, 32, 64))
        rates = [point.imo_new_per_hour for point in points]
        assert rates[0] > rates[1] > rates[2] > rates[3]

    def test_ratio_property(self):
        point = imo_rate_sweep(ber_values=(1e-4,))[0]
        assert point.ratio == pytest.approx(
            point.imo_new_per_hour / point.imo_star_per_hour
        )


class TestOmissionDegreeRevision:
    def test_j_prime_exceeds_j(self):
        """The paper's CAN6' statement: j' is larger than j."""
        revision = omission_degree_revision(1e-4)
        assert revision.j_prime_with_new > revision.j_old_scenarios

    def test_inflation_is_three_orders_at_high_ber(self):
        revision = omission_degree_revision(1e-4)
        assert revision.inflation > 1000

    def test_scales_with_interval(self):
        one_hour = omission_degree_revision(1e-4, t_rd_hours=1.0)
        two_hours = omission_degree_revision(1e-4, t_rd_hours=2.0)
        assert two_hours.j_prime_with_new == pytest.approx(
            2 * one_hour.j_prime_with_new
        )

    def test_interval_validated(self):
        with pytest.raises(AnalysisError):
            omission_degree_revision(1e-4, t_rd_hours=0)


class TestMAblation:
    @pytest.fixture(scope="class")
    def rows(self):
        return m_ablation(m_values=(3, 4, 5, 6, 7), tail_flips=1)

    def test_overhead_columns(self, rows):
        by_m = {row.m: row for row in rows}
        assert by_m[5].best_case_bits == 3
        assert by_m[5].worst_case_bits == 11
        assert by_m[3].best_case_bits == -1

    def test_tail_consistency_for_all_m(self, rows):
        for row in rows:
            assert row.tail_consistent, row

    def test_f1_boundary_at_m6(self, rows):
        by_m = {row.m: row for row in rows}
        assert by_m[3].f1_channel_closed is False
        assert by_m[4].f1_channel_closed is False
        assert by_m[5].f1_channel_closed is False
        assert by_m[6].f1_channel_closed is True
        assert by_m[7].f1_channel_closed is True

    def test_f1_check_can_be_skipped(self):
        rows = m_ablation(m_values=(5,), tail_flips=1, check_f1=False)
        assert rows[0].f1_channel_closed is None
