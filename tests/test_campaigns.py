"""Tests for the structured fault-injection campaign module."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.faults import campaigns
from repro.faults.bit_errors import RandomViewErrorInjector
from repro.faults.campaigns import CampaignSpec, compare_protocols, run_campaign
from repro.simulation.engine import SimulationEngine


class TestSpecValidation:
    def test_minimum_nodes(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(n_nodes=2)

    def test_probability_range(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(attack_probability=1.5)

    def test_round_count(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(rounds=0)


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        spec = CampaignSpec(protocol="can", rounds=8, attack_probability=0.5, seed=9)
        first = run_campaign(spec)
        second = run_campaign(spec)
        assert first.as_row() == second.as_row()
        assert first.omission_rounds == second.omission_rounds


class TestAttackSemantics:
    def test_every_attack_breaks_can(self):
        outcome = run_campaign(
            CampaignSpec(protocol="can", rounds=10, attack_probability=1.0, seed=3)
        )
        assert outcome.attacked_rounds == 10
        assert outcome.omissions == 10
        assert outcome.omission_rate == 1.0

    def test_no_attack_no_inconsistency(self):
        outcome = run_campaign(
            CampaignSpec(protocol="can", rounds=6, attack_probability=0.0, seed=3)
        )
        assert outcome.omissions == 0
        assert outcome.consistent == 6

    def test_majorcan_resists_every_attack(self):
        outcome = run_campaign(
            CampaignSpec(
                protocol="majorcan", rounds=10, attack_probability=1.0, seed=3
            )
        )
        assert outcome.omissions == 0
        assert outcome.consistent == 10

    def test_two_errors_injected_per_attack(self):
        outcome = run_campaign(
            CampaignSpec(protocol="can", rounds=5, attack_probability=1.0, seed=1)
        )
        assert outcome.errors_injected == 10


class TestNoiseAndBackground:
    def test_noise_errors_counted(self):
        outcome = run_campaign(
            CampaignSpec(
                protocol="majorcan",
                rounds=3,
                attack_probability=0.0,
                noise_ber_star=1e-3,
                seed=4,
            )
        )
        assert outcome.errors_injected > 0

    def test_background_traffic_volume(self):
        spec = CampaignSpec(
            protocol="can",
            rounds=2,
            attack_probability=0.0,
            background_frames=3,
            seed=2,
        )
        outcome = run_campaign(spec)
        assert outcome.consistent == 2


class TestComparison:
    def test_same_seed_across_protocols(self):
        outcomes = compare_protocols(rounds=6, attack_probability=0.5, seed=11)
        attacked = {outcome.attacked_rounds for outcome in outcomes}
        assert len(attacked) == 1  # identical attack schedule
        by_protocol = {outcome.spec.protocol: outcome for outcome in outcomes}
        assert by_protocol["majorcan"].omissions == 0
        assert by_protocol["can"].omissions == by_protocol["can"].attacked_rounds


class TestRoundDrain:
    """A round tolerates only its drain budget running out."""

    NODES = ("critical", "bg1", "bg2")

    def _patch_drain(self, monkeypatch, error):
        def run_until_idle(engine, max_bits=100000, settle_bits=12):
            engine.run(50)
            raise error

        monkeypatch.setattr(SimulationEngine, "run_until_idle", run_until_idle)
        monkeypatch.setattr(campaigns, "_ROUND_REFERENCE", {})

    def _round(self):
        return campaigns.run_round(
            "can", 5, self.NODES, 0, True, "bg1", RandomViewErrorInjector(0.01, seed=3)
        )

    def _reference(self):
        return campaigns.round_reference_bits("can", 5, self.NODES, 0, True, "bg1")

    def test_exhausted_budget_is_classified(self, monkeypatch):
        self._patch_drain(
            monkeypatch, SimulationError("bus did not become idle within 9 bits")
        )
        counts, _ = self._round()
        assert len(counts) == 3
        assert self._reference() == 50

    @pytest.mark.parametrize(
        "error",
        [RuntimeError("boom"), SimulationError("no drive handler for state 'x'")],
        ids=["runtime", "other-simulation-error"],
    )
    def test_other_errors_propagate(self, monkeypatch, error):
        self._patch_drain(monkeypatch, error)
        with pytest.raises(type(error), match=str(error.args[0])):
            self._round()
        with pytest.raises(type(error), match=str(error.args[0])):
            self._reference()
