"""Unit tests for the bus-level primitives."""

import pytest

from repro.can.bits import (
    DOMINANT,
    RECESSIVE,
    Level,
    bits_from_int,
    bits_from_levels,
    int_from_bits,
    levels_from_bits,
    levels_from_string,
    levels_to_string,
    wired_and,
)


class TestLevel:
    def test_dominant_is_logical_zero(self):
        assert int(Level.DOMINANT) == 0

    def test_recessive_is_logical_one(self):
        assert int(Level.RECESSIVE) == 1

    def test_symbols(self):
        assert Level.DOMINANT.symbol == "d"
        assert Level.RECESSIVE.symbol == "r"

    def test_flipped_is_involutive(self):
        for level in Level:
            assert level.flipped().flipped() is level

    def test_flipped_changes_value(self):
        assert Level.DOMINANT.flipped() is Level.RECESSIVE
        assert Level.RECESSIVE.flipped() is Level.DOMINANT

    def test_module_aliases(self):
        assert DOMINANT is Level.DOMINANT
        assert RECESSIVE is Level.RECESSIVE


class TestWiredAnd:
    def test_empty_bus_floats_recessive(self):
        assert wired_and([]) is Level.RECESSIVE

    def test_single_dominant_wins(self):
        assert wired_and([RECESSIVE, RECESSIVE, DOMINANT]) is DOMINANT

    def test_all_recessive_stays_recessive(self):
        assert wired_and([RECESSIVE] * 5) is RECESSIVE

    def test_all_dominant(self):
        assert wired_and([DOMINANT, DOMINANT]) is DOMINANT


class TestBitConversions:
    def test_bits_from_int_msb_first(self):
        assert bits_from_int(0b1011, 4) == [1, 0, 1, 1]

    def test_bits_from_int_pads_leading_zeros(self):
        assert bits_from_int(1, 4) == [0, 0, 0, 1]

    def test_bits_from_int_rejects_negative(self):
        with pytest.raises(ValueError):
            bits_from_int(-1, 4)

    def test_bits_from_int_rejects_overflow(self):
        with pytest.raises(ValueError):
            bits_from_int(16, 4)

    def test_int_from_bits_roundtrip(self):
        for value in (0, 1, 0x555, 0x7FF):
            assert int_from_bits(bits_from_int(value, 11)) == value

    def test_int_from_bits_rejects_non_bits(self):
        with pytest.raises(ValueError):
            int_from_bits([0, 2, 1])

    def test_levels_from_bits(self):
        assert levels_from_bits([0, 1]) == [DOMINANT, RECESSIVE]

    def test_bits_from_levels_roundtrip(self):
        bits = [0, 1, 1, 0, 1]
        assert bits_from_levels(levels_from_bits(bits)) == bits


class TestLevelStrings:
    def test_render_error_flag(self):
        assert levels_to_string([DOMINANT] * 6) == "dddddd"

    def test_render_bit_values_from_an_iterator(self):
        # Wire encodings render their 0/1 bit values with the same table.
        assert levels_to_string(iter([0, 1, RECESSIVE, DOMINANT])) == "drrd"
        assert levels_to_string([]) == ""

    def test_parse_simple(self):
        assert levels_from_string("drd") == [DOMINANT, RECESSIVE, DOMINANT]

    def test_parse_ignores_separators(self):
        assert levels_from_string("d r_d|r") == [
            DOMINANT,
            RECESSIVE,
            DOMINANT,
            RECESSIVE,
        ]

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            levels_from_string("dxr")

    def test_roundtrip(self):
        text = "ddrrdrdr"
        assert levels_to_string(levels_from_string(text)) == text
