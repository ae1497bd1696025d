"""Tests for workload generation: the network profile
(:mod:`repro.workload.profiles`) and the traffic schedule built from a
:class:`~repro.traffic.TrafficSpec`."""

import pytest

from repro.can.bits import BUSY_RECESSIVE_BITS, count_busy_bits
from repro.errors import ConfigurationError
from repro.traffic import TrafficSpec, build_schedule, run_traffic
from repro.workload.profiles import PAPER_PROFILE, NetworkProfile


def _times(schedule, node):
    return [sub.time for sub in schedule if sub.node == node]


class TestProfileValidation:
    def test_rejects_bad_load(self):
        with pytest.raises(ConfigurationError):
            NetworkProfile(1e6, 4, 0.0, 110)
        with pytest.raises(ConfigurationError):
            NetworkProfile(1e6, 4, 1.5, 110)

    def test_rejects_single_node(self):
        with pytest.raises(ConfigurationError):
            NetworkProfile(1e6, 1, 0.5, 110)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ConfigurationError):
            NetworkProfile(0, 4, 0.5, 110)


class TestPeriodicSource:
    def _spec(self, window_bits, messages_per_node=None, frame_bits=50):
        # Two nodes at load 1: period = 2 * frame_bits.
        return TrafficSpec(
            n_nodes=2,
            window_bits=window_bits,
            load=1.0,
            frame_bits=frame_bits,
            messages_per_node=messages_per_node,
        )

    def test_submits_on_period(self):
        spec = self._spec(window_bits=301)
        assert spec.period_bits == 100
        schedule = build_schedule(spec)
        assert _times(schedule, "n0") == [0, 100, 200, 300]
        assert _times(schedule, "n1") == [50, 150, 250]

    def test_max_messages_caps(self):
        schedule = build_schedule(self._spec(window_bits=500, messages_per_node=2, frame_bits=25))
        assert _times(schedule, "n0") == [0, 50]
        assert _times(schedule, "n1") == [25, 75]

    def test_message_ids_are_unique(self):
        schedule = build_schedule(self._spec(window_bits=301))
        tags = [sub.message_id for sub in schedule]
        assert len(set(tags)) == len(tags)
        assert len({sub.key for sub in schedule}) == len(tags)

    def test_period_validated(self):
        with pytest.raises(ConfigurationError):
            TrafficSpec(frame_bits=0)
        # Loads that would round the period to zero still submit once
        # per bit at most.
        assert TrafficSpec(n_nodes=2, frame_bits=1, load=4.0).period_bits == 1


class TestPoissonSource:
    def test_rate_validated(self):
        with pytest.raises(ConfigurationError):
            TrafficSpec(source="poisson", rate_per_bit=2.0)
        with pytest.raises(ConfigurationError):
            TrafficSpec(source="poisson", rate_per_bit=-0.1)

    def test_seeded_rate_approximation(self):
        spec = TrafficSpec(
            n_nodes=2, window_bits=5000, source="poisson", rate_per_bit=0.01, seed=42
        )
        schedule = build_schedule(spec)
        for node in spec.node_names:
            assert 20 <= len(_times(schedule, node)) <= 80  # ~50 expected


class TestProfileSources:
    def _spec(self, messages_per_node, window_bits):
        profile = PAPER_PROFILE.scaled(n_nodes=4)
        return TrafficSpec(
            n_nodes=profile.n_nodes,
            window_bits=window_bits,
            load=profile.load,
            frame_bits=profile.frame_bits,
            messages_per_node=messages_per_node,
        )

    def test_sources_for_paper_profile(self):
        spec = self._spec(messages_per_node=3, window_bits=2000)
        schedule = build_schedule(spec)
        assert len(schedule) == 12
        gaps = set()
        for node in spec.node_names:
            times = _times(schedule, node)
            assert len(times) == 3
            gaps.update(b - a for a, b in zip(times, times[1:]))
        assert gaps == {spec.period_bits}
        assert len({sub.identifier for sub in schedule}) == 4

    def test_empty_controllers_rejected(self):
        with pytest.raises(ConfigurationError):
            TrafficSpec(n_nodes=0)

    def test_generated_load_is_high(self):
        """Four nodes at the paper's 90% profile keep the bus busy."""
        stats = run_traffic(self._spec(messages_per_node=20, window_bits=8000), jobs=1).stats
        assert stats.bus_load > 0.5

    def test_all_messages_delivered_under_load(self):
        outcome = run_traffic(self._spec(messages_per_node=5, window_bits=3000), jobs=1)
        # Every node delivered every node's 5 messages exactly once.
        assert len(outcome.verdicts) == 20
        assert {verdict.status for verdict in outcome.verdicts} == {"delivered"}
        assert outcome.stats.delivered == 20


class TestMeasuredLoad:
    def test_empty_history(self):
        assert count_busy_bits("") == 0

    def test_idle_bus_is_zero_load(self):
        """Not exactly zero: the load counts the first 12 bits of every
        recessive run, the leading one included."""
        assert count_busy_bits("r" * 100) == BUSY_RECESSIVE_BITS
        spec = TrafficSpec(n_nodes=2, window_bits=500, messages_per_node=0)
        stats = run_traffic(spec, jobs=1).stats
        assert stats.frames_submitted == 0
        assert stats.bus_load < 0.05
