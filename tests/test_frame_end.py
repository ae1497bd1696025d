"""Every reader of the frame-end geometry agrees with its one declaration.

:mod:`repro.can.geometry` declares the tail table and the per-protocol
geometry record.  These tests pin each reader to them for CAN, MinorCAN
and MajorCAN_m with m = 3..13: the encoder's tail columns, both
parsers' ``upcoming`` positions over the tail, the verification site
universe and its batch-replay keys, and what a constructed controller
reports.  Protocol names are taken in any letter case.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.batchreplay import _site_key, clear_caches, transition_table
from repro.analysis.verification import tail_sites, verify_consistency
from repro.can.encoding import OP_ACK, OP_EOF, OP_MATCH, encode_frame
from repro.can.fields import ACK_SLOT, EOF
from repro.can.frame import Frame
from repro.can.geometry import PROTOCOL_NAMES, frame_end, tail_positions
from repro.can.identifiers import CanId
from repro.can.parser import FastFrameParser, FrameParser
from repro.errors import ConfigurationError
from repro.faults.scenarios import make_controller

CONFIGS = [(protocol, m) for protocol in PROTOCOL_NAMES for m in range(3, 14)]


@st.composite
def frames(draw):
    """Standard, extended and remote frames with DLC 0-8."""
    extended = draw(st.booleans())
    identifier = draw(st.integers(0, 0x1FFFFFFF if extended else 0x7FF))
    dlc = draw(st.integers(0, 8))
    can_id = CanId(identifier, extended)
    if draw(st.booleans()):
        return Frame(can_id=can_id, remote=True, dlc=dlc)
    return Frame(can_id=can_id, data=draw(st.binary(min_size=dlc, max_size=dlc)))


def announced(parser, levels):
    """The ``(field, index)`` the parser announces before each bit."""
    positions = []
    for level in levels:
        positions.append(parser.upcoming[:2])
        parser.feed(level)
    return positions


@settings(max_examples=200, deadline=None)
@given(config=st.sampled_from(CONFIGS), frame=frames())
def test_encoder_and_parsers_follow_the_tail_table(config, frame):
    geometry = frame_end(*config)
    table = tail_positions(geometry.eof_length)
    wire = encode_frame(frame, geometry.eof_length)
    tail = slice(wire.tail_start, None)
    assert wire.positions[tail] == table
    ops = {EOF: OP_EOF, ACK_SLOT: OP_ACK}
    assert wire.ops[tail] == tuple(ops.get(field, OP_MATCH) for field, _ in table)
    assert set(wire.bit_values[tail]) == {1}
    assert not any(wire.is_stuff[tail]) and not any(wire.in_arbitration[tail])
    reference = announced(FrameParser(geometry.eof_length), wire.levels)
    fast = announced(FastFrameParser(geometry.eof_length), wire.levels)
    assert reference == fast
    assert tuple(reference[tail]) == table


@pytest.mark.parametrize("protocol,m", CONFIGS)
def test_tail_sites_key_the_replay_in_order(protocol, m):
    geometry = frame_end(protocol, m)
    sites = tail_sites(["n"], geometry)
    keys = [_site_key(geometry, field, index) for _, field, index in sites]
    assert keys == list(range(len(geometry.sites)))
    # The compiled micro-model announces every key, and nothing else
    # (``key_count`` marks a node that announces nothing).
    table = transition_table(geometry)
    assert table.key_count == len(keys)
    assert set(table.key.tolist()) == set(range(len(keys) + 1))


@pytest.mark.parametrize("protocol,m", CONFIGS)
def test_record_equals_the_constructed_controller(protocol, m):
    geometry = frame_end(protocol, m)
    node = make_controller(protocol, "n", m=m)
    assert node.config.eof_length == geometry.eof_length
    assert node.config.delimiter_length == geometry.delimiter_length
    if protocol == "majorcan":
        assert (node.window_start, node.window_end, node.majority) == (
            geometry.window_start,
            geometry.window_end,
            geometry.majority,
        )
    else:
        assert not geometry.majority
        assert geometry.window_start > geometry.window_end


class TestProtocolNames:
    def test_any_letter_case_names_one_geometry(self):
        for protocol in PROTOCOL_NAMES:
            assert frame_end(protocol.upper(), 5) == frame_end(protocol, 5)
        assert frame_end("MajorCAN", 5).protocol == "majorcan"
        assert type(make_controller("MinorCAN", "n")) is type(make_controller("minorcan", "n"))

    def test_unknown_names_fail_alike(self):
        with pytest.raises(ConfigurationError) as by_record:
            frame_end("ttcan")
        with pytest.raises(ConfigurationError) as by_factory:
            make_controller("ttcan", "n")
        assert str(by_record.value) == str(by_factory.value)
        assert "choose from ['can', 'majorcan', 'minorcan']" in str(by_record.value)

    def test_majorcan_needs_m_of_at_least_3(self):
        with pytest.raises(ConfigurationError, match="m >= 3"):
            frame_end("majorcan", 2)
        # m is MajorCAN's alone.
        assert frame_end("can", 2) == frame_end("can", 9)

    @pytest.mark.parametrize("name", ("MinorCAN", "MAJORCAN", "Can"))
    def test_mixed_case_verdicts_and_routes_equal_lowercase(self, name):
        runs = []
        for protocol in (name, name.lower()):
            clear_caches()
            runs.append(verify_consistency(protocol, 5, 3, 1, backend="batch"))
        clear_caches()
        mixed, lower = runs
        assert mixed.counterexamples == lower.counterexamples
        assert mixed.runs == lower.runs == 3 * len(frame_end(name, 5).sites)
        assert mixed.backend_stats == lower.backend_stats
        assert mixed.backend_stats["engine"] == 0
