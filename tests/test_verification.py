"""Tests for the bounded exhaustive verification harness.

This is the reproduction's answer to the paper's planned formal
verification: every placement of up to k view errors over the paper's
error universe is explored by simulation.
"""

import pytest

from repro.analysis.verification import (
    header_sites,
    tail_sites,
    verify_consistency,
)
from repro.can.geometry import frame_end
from repro.errors import AnalysisError


@pytest.fixture(scope="module")
def majorcan_two_flips():
    return verify_consistency("majorcan", m=5, n_nodes=3, max_flips=2)


@pytest.fixture(scope="module")
def can_two_flips():
    return verify_consistency("can", m=5, n_nodes=3, max_flips=2)


class TestSiteUniverses:
    def test_tail_sites_cover_delimiters_and_eof(self):
        sites = tail_sites(["a"], frame_end("can"))
        fields = {field for _, field, _ in sites}
        assert fields == {"CRC_DELIM", "ACK_SLOT", "ACK_DELIM", "EOF"}
        assert len([s for s in sites if s[1] == "EOF"]) == 7

    def test_tail_sites_with_window(self):
        sites = tail_sites(["a"], frame_end("majorcan", 5))
        window = [s for s in sites if s[1] == "SAMPLING"]
        assert len(window) == 9
        assert [s[2] for s in window] == list(range(12, 21))

    def test_header_sites(self):
        sites = header_sites(["a", "b"], data_bits=8)
        assert len(sites) == 2 * (4 + 8)


class TestMajorCanVerified:
    def test_no_counterexample_with_two_flips(self, majorcan_two_flips):
        result = majorcan_two_flips
        assert result.holds, [str(c) for c in result.counterexamples[:3]]
        assert result.runs > 2000

    def test_summary_mentions_verdict(self, majorcan_two_flips):
        assert "no counterexample" in majorcan_two_flips.summary()

    def test_four_nodes_single_flip(self):
        result = verify_consistency("majorcan", m=5, n_nodes=4, max_flips=1)
        assert result.holds

    def test_m3_single_flip(self):
        result = verify_consistency("majorcan", m=3, n_nodes=3, max_flips=1)
        assert result.holds

    def test_m3_three_flip_census(self):
        """Every placement of up to three view errors over MajorCAN_3's
        tail and sampling window: the paper's guarantee for m = 3,
        explored exhaustively (the batch replay is held equal to the
        engine by ``tests/test_batchreplay.py``)."""
        result = verify_consistency(
            "majorcan", m=3, n_nodes=3, max_flips=3, backend="batch"
        )
        assert result.holds, [str(c) for c in result.counterexamples[:3]]
        assert result.runs == 12383


class TestStandardCanCounterexamples:
    def test_census_size(self, can_two_flips):
        """465 placements; 111 counterexamples, 109 of them double
        receptions (the Fig. 1b family) and the two Fig. 3a IMOs."""
        kinds = [c.kind for c in can_two_flips.counterexamples]
        assert can_two_flips.runs == 465
        assert (len(kinds), kinds.count("double"), kinds.count("imo")) == (111, 109, 2)

    def test_exactly_the_fig3a_imo_patterns(self, can_two_flips):
        imos = [c for c in can_two_flips.counterexamples if c.kind == "imo"]
        assert len(imos) == 2
        for counterexample in imos:
            fields = sorted(
                (name, field, index) for name, field, index in counterexample.sites
            )
            assert ("tx", "EOF", 6) in fields
            receiver_site = [s for s in fields if s[0] != "tx"][0]
            assert receiver_site[1:] == ("EOF", 5)

    def test_single_flip_double_receptions_exist(self, can_two_flips):
        singles = [
            c
            for c in can_two_flips.counterexamples
            if c.kind == "double" and len(c.sites) == 1
        ]
        assert singles  # the Fig. 1b family

    def test_no_single_flip_imo(self, can_two_flips):
        assert not [
            c
            for c in can_two_flips.counterexamples
            if c.kind == "imo" and len(c.sites) == 1
        ]


class TestMinorCanVerified:
    def test_single_flip_clean(self):
        result = verify_consistency("minorcan", m=5, n_nodes=3, max_flips=1)
        assert result.holds


class TestHeaderUniverseFindsF1:
    def test_dlc_flips_break_majorcan5(self):
        result = verify_consistency(
            "majorcan",
            m=5,
            n_nodes=3,
            max_flips=1,
            extra_sites=header_sites(["tx", "r1", "r2"]),
        )
        assert not result.holds
        dlc_hits = [
            c
            for c in result.counterexamples
            if all(field == "DLC" for _, field, _ in c.sites)
        ]
        assert dlc_hits
        # Only receivers can desynchronise; the transmitter knows its frame.
        for counterexample in dlc_hits:
            assert all(name != "tx" for name, _, _ in counterexample.sites)


class TestValidation:
    def test_node_count(self):
        with pytest.raises(AnalysisError):
            verify_consistency(n_nodes=1)

    def test_flip_count(self):
        with pytest.raises(AnalysisError):
            verify_consistency(max_flips=0)
