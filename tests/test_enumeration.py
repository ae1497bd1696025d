"""Tests for the exact tail-pattern enumeration (experiment E-MC)."""

import dataclasses
import inspect
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import batchreplay
from repro.analysis.batchreplay import clear_caches
from repro.analysis.enumeration import (
    enumerate_tail_patterns,
    equation4_tail_prediction,
    tail_verdicts,
)
from repro.errors import AnalysisError


@pytest.fixture(scope="module")
def can_result():
    return enumerate_tail_patterns("can", n_nodes=3, window=2, ber_star=1e-4)


@pytest.fixture(scope="module")
def majorcan_result():
    return enumerate_tail_patterns("majorcan", n_nodes=3, window=2, ber_star=1e-4)


class TestStandardCan:
    def test_pattern_count(self, can_result):
        # 3 nodes x 2 window bits = 6 sites -> 64 subsets.
        assert len(can_result.outcomes) == 64

    def test_enumeration_matches_equation4(self, can_result):
        predicted = equation4_tail_prediction(1e-4, 3, 110)
        assert can_result.p_inconsistent_omission == pytest.approx(
            predicted, rel=0.001
        )

    def test_equation4_prediction_is_the_pre_refactor_expression(self):
        """The shared receiver split reproduces, bit for bit, the loop
        the prediction used to carry itself (kept here as the oracle)."""

        def oracle(b, n_nodes, tau_data):
            total = 0.0
            affected = ((1 - b) ** (tau_data - 2)) * b
            clean = (1 - b) ** (tau_data - 1)
            for i in range(1, n_nodes - 1):
                total += math.comb(n_nodes - 1, i) * affected**i * clean ** (n_nodes - 1 - i)
            return total * ((1 - b) ** (tau_data - 1)) * b

        bers = (1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.3)
        taus = (3, 4, 10, 47, 64, 100, 110, 131, 160)
        points = [
            (b, n, tau) for b in bers for n in range(2, 40) for tau in taus
        ]
        assert len(points) == 3078
        for point in points:
            assert equation4_tail_prediction(*point) == oracle(*point), point

    def test_minimal_imo_patterns_match_fig3a(self, can_result):
        """Every 2-flip IMO pattern is transmitter@last-bit plus one
        receiver@last-but-one — exactly the Fig. 3a structure."""
        two_flip = [p for p in can_result.imo_patterns() if len(p) == 2]
        assert two_flip
        for pattern in two_flip:
            sites = dict(pattern)
            assert sites.get(0) == 6  # transmitter at the last EOF bit
            receiver_sites = [idx for node, idx in pattern if node != 0]
            assert receiver_sites == [5]

    def test_double_reception_needs_one_flip(self, can_result):
        singles = [
            o for o in can_result.outcomes
            if len(o.pattern) == 1 and o.double_reception
        ]
        assert singles  # Fig. 1b

    def test_empty_pattern_is_consistent(self, can_result):
        empty = [o for o in can_result.outcomes if not o.pattern]
        assert len(empty) == 1
        assert empty[0].consistent


class TestMajorCan:
    def test_no_inconsistent_tail_pattern(self, majorcan_result):
        """Exhaustive check over the 2-bit tail window: MajorCAN_5 is
        consistent for every one of the 64 patterns."""
        assert majorcan_result.p_inconsistent == 0.0
        assert majorcan_result.imo_patterns() == []

    def test_probabilities_sum_to_at_most_one(self, majorcan_result):
        total = sum(
            majorcan_result._probability_of(len(o.pattern))
            for o in majorcan_result.outcomes
        )
        assert total <= 1.0


class TestMinorCan:
    def test_single_flip_patterns_all_consistent(self):
        result = enumerate_tail_patterns(
            "minorcan", n_nodes=3, window=2, ber_star=1e-4, max_flips=1
        )
        assert all(o.consistent for o in result.outcomes)


class TestParameters:
    def test_max_flips_truncates(self):
        result = enumerate_tail_patterns("can", n_nodes=3, window=2, max_flips=1)
        assert len(result.outcomes) == 1 + 6

    def test_window_validation(self):
        with pytest.raises(AnalysisError):
            enumerate_tail_patterns("can", n_nodes=3, window=99)

    def test_node_count_validation(self):
        with pytest.raises(AnalysisError):
            enumerate_tail_patterns("can", n_nodes=1)

    def test_probability_selector(self, can_result):
        p_all = can_result.probability(lambda o: True)
        p_none = can_result.probability(lambda o: False)
        assert p_none == 0.0
        assert 0.0 < p_all <= 1.0


class TestVerdictCache:
    """The batch verdict step is memoised per universe; the weights are not."""

    BASE = dict(
        protocol="can", n_nodes=3, window=1, m=5, max_flips=1,
        payload=b"\x55", backend="batch",
    )

    def setup_method(self):
        clear_caches()

    def test_cache_key_is_the_universe(self):
        """Every enumeration parameter but the two weights is a verdict-step
        argument, so a new parameter cannot be left out of the key."""
        weights = {"ber_star", "tau_data"}
        universe = set(inspect.signature(enumerate_tail_patterns).parameters)
        assert set(inspect.signature(tail_verdicts).parameters) == universe - weights

    @pytest.mark.parametrize(
        "change",
        [
            {"protocol": "majorcan"},
            {"n_nodes": 2},
            {"window": 2},
            {"m": 3},
            {"max_flips": 2},
            {"payload": b"\x55\x55"},
        ],
    )
    def test_any_universe_argument_misses(self, change):
        enumerate_tail_patterns(**self.BASE)
        before = tail_verdicts.cache_info()
        enumerate_tail_patterns(**dict(self.BASE, **change))
        after = tail_verdicts.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 0)

    @pytest.mark.parametrize("change", [{"ber_star": 3e-3}, {"tau_data": 64}])
    def test_weights_hit(self, change):
        first = enumerate_tail_patterns(**self.BASE)
        before = tail_verdicts.cache_info()
        again = enumerate_tail_patterns(**dict(self.BASE, **change))
        after = tail_verdicts.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (0, 1)
        assert again.outcomes == first.outcomes
        engine = enumerate_tail_patterns(**dict(self.BASE, backend="engine", **change))
        assert _probabilities(again) == _probabilities(engine)
        assert _probabilities(again) != _probabilities(first)

    def test_clear_caches_empties_it(self):
        enumerate_tail_patterns(**self.BASE)
        assert tail_verdicts.cache_info().currsize == 1
        clear_caches()
        assert tail_verdicts.cache_info().currsize == 0

    def test_engine_simulates_on_every_call(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return simulate(*args, **kwargs)

        simulate = batchreplay.run_placement
        monkeypatch.setattr(batchreplay, "run_placement", counted)
        engine = dict(self.BASE, backend="engine")
        first = enumerate_tail_patterns(**engine)
        second = enumerate_tail_patterns(**engine)
        assert len(calls) == len(first.outcomes) + len(second.outcomes) == 8
        assert tail_verdicts.cache_info().currsize == 0
        assert first.backend_stats is None

    def test_mutating_a_result_does_not_leak(self):
        first = enumerate_tail_patterns(**self.BASE)
        outcomes = list(first.outcomes)
        stats = dict(first.backend_stats)
        first.outcomes.pop()
        first.outcomes.reverse()
        first.backend_stats["engine"] = 99
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.outcomes[0].consistent = False
        second = enumerate_tail_patterns(**self.BASE)
        assert tail_verdicts.cache_info().hits == 1
        assert second.outcomes == outcomes
        assert second.backend_stats == stats
        assert second.outcomes is not first.outcomes

    @settings(max_examples=100, deadline=None)
    @given(
        protocol=st.sampled_from(["can", "minorcan", "majorcan"]),
        m=st.sampled_from([3, 5, 7]),
        n_nodes=st.integers(2, 4),
        window=st.integers(1, 2),
        max_flips=st.integers(0, 2),
        payload=st.sampled_from([b"", b"\x55", b"\xff\x00" * 4]),
        warm_ber=st.floats(1e-9, 0.2),
        ber_star=st.floats(1e-9, 0.2),
    )
    def test_memoised_probabilities_are_exact(
        self, protocol, m, n_nodes, window, max_flips, payload, warm_ber, ber_star
    ):
        args = dict(
            protocol=protocol, n_nodes=n_nodes, window=window, m=m,
            max_flips=max_flips, payload=payload,
        )
        enumerate_tail_patterns(backend="batch", ber_star=warm_ber, **args)
        result = enumerate_tail_patterns(backend="batch", ber_star=ber_star, **args)
        memoised = _probabilities(result)
        clear_caches()
        cold = enumerate_tail_patterns(backend="batch", ber_star=ber_star, **args)
        engine = enumerate_tail_patterns(backend="engine", ber_star=ber_star, **args)
        assert memoised == _probabilities(cold) == _probabilities(engine)
        assert memoised == _per_pattern_probabilities(result)


def _probabilities(result):
    return (
        result.p_inconsistent_omission,
        result.p_double_reception,
        result.p_inconsistent,
    )


def _per_pattern_probabilities(result):
    """The weighting step as one weight computation per pattern."""

    def probability(selector):
        return sum(
            result._probability_of(len(outcome.pattern))
            for outcome in result.outcomes
            if selector(outcome)
        )

    return (
        probability(lambda o: o.inconsistent_omission),
        probability(lambda o: o.double_reception),
        probability(lambda o: not o.consistent),
    )


def _bits(value):
    """A probability's exact identity: its type and every bit."""
    return type(value), value.hex() if isinstance(value, float) else value


class TestCachedWeighting:
    """The ``p_*`` properties sum the verdict step's cached flip counts;
    they equal ``probability(selector)`` to the bit."""

    SELECTORS = {
        "p_inconsistent_omission": lambda o: o.inconsistent_omission,
        "p_double_reception": lambda o: o.double_reception,
        "p_inconsistent": lambda o: not o.consistent,
    }

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_properties_equal_the_selector_sums(self, data):
        n_nodes = data.draw(st.integers(2, 4), label="n_nodes")
        window = data.draw(st.integers(1, 3), label="window")
        sites = n_nodes * window
        # The engine simulates every pattern; keep its universes small.
        backends = ["batch", "engine"] if sites <= 6 else ["batch"]
        result = enumerate_tail_patterns(
            protocol=data.draw(st.sampled_from(["can", "minorcan", "majorcan"])),
            n_nodes=n_nodes,
            window=window,
            m=data.draw(st.integers(3, 7), label="m"),
            max_flips=data.draw(st.one_of(st.none(), st.integers(0, sites))),
            ber_star=data.draw(st.sampled_from([1e-9, 1e-6, 3.2e-5, 1e-3, 0.1, 0.5])),
            tau_data=data.draw(st.integers(60, 160), label="tau_data"),
            backend=data.draw(st.sampled_from(backends), label="backend"),
        )
        for name, selector in self.SELECTORS.items():
            assert _bits(getattr(result, name)) == _bits(result.probability(selector))

    @pytest.mark.parametrize("protocol", ["can", "minorcan", "majorcan"])
    def test_every_flip_bound_on_both_backends(self, protocol):
        for max_flips in [None, *range(7)]:
            for backend in ("batch", "engine"):
                result = enumerate_tail_patterns(
                    protocol, n_nodes=3, window=2, m=5, max_flips=max_flips,
                    ber_star=1e-3, backend=backend,
                )
                for name, selector in self.SELECTORS.items():
                    assert _bits(getattr(result, name)) == _bits(
                        result.probability(selector)
                    )

    def test_weights_follow_the_weighting_inputs(self):
        result = enumerate_tail_patterns("can", n_nodes=3, window=2, ber_star=1e-4)
        first = result.p_inconsistent
        result.ber_star = 1e-3
        assert result.p_inconsistent != first
        assert _bits(result.p_inconsistent) == _bits(
            result.probability(lambda o: not o.consistent)
        )
