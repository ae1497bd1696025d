"""Bus-level primitives: the dominant/recessive bit values of CAN.

A CAN bus is a wired-AND medium.  The *dominant* level (logical ``0``)
overwrites the *recessive* level (logical ``1``): if any node drives a
dominant bit, every node observes a dominant bus.  This single physical
property underlies arbitration, acknowledgement, and error signalling.
"""

from __future__ import annotations

import enum
import re
from typing import Iterable, List, Sequence


class Level(enum.IntEnum):
    """A CAN bus level.

    The integer values follow the CAN convention: ``DOMINANT`` is the
    logical ``0`` and ``RECESSIVE`` the logical ``1``, so a sequence of
    :class:`Level` values can be used directly as a sequence of bits.
    """

    DOMINANT = 0
    RECESSIVE = 1

    @property
    def symbol(self) -> str:
        """One-character symbol used in textual traces: ``d`` or ``r``."""
        return "d" if self is Level.DOMINANT else "r"

    def flipped(self) -> "Level":
        """Return the opposite bus level."""
        return Level.RECESSIVE if self is Level.DOMINANT else Level.DOMINANT


#: Convenient module-level aliases.
DOMINANT = Level.DOMINANT
RECESSIVE = Level.RECESSIVE


def wired_and(levels: Iterable[Level]) -> Level:
    """Combine the levels driven by all nodes into the resulting bus level.

    An idle (empty) bus floats recessive; any dominant driver wins.
    """
    for level in levels:
        if level is Level.DOMINANT:
            return Level.DOMINANT
    return Level.RECESSIVE


def bits_from_int(value: int, width: int) -> List[int]:
    """Return ``value`` as a list of ``width`` bits, most significant first.

    >>> bits_from_int(0b101, 4)
    [0, 1, 0, 1]
    """
    if value < 0:
        raise ValueError("value must be non-negative, got %r" % value)
    if value >= (1 << width):
        raise ValueError(
            "value %d does not fit in %d bits" % (value, width)
        )
    return [(value >> shift) & 1 for shift in range(width - 1, -1, -1)]


def int_from_bits(bits: Sequence[int]) -> int:
    """Inverse of :func:`bits_from_int`: interpret bits MSB-first.

    >>> int_from_bits([0, 1, 0, 1])
    5
    """
    value = 0
    for bit in bits:
        if bit not in (0, 1):
            raise ValueError("bits must be 0 or 1, got %r" % (bit,))
        value = (value << 1) | bit
    return value


def levels_from_bits(bits: Iterable[int]) -> List[Level]:
    """Map logical bits (0/1) to bus levels (dominant/recessive)."""
    return [Level(bit) for bit in bits]


def bits_from_levels(levels: Iterable[Level]) -> List[int]:
    """Map bus levels back to logical bits (dominant=0, recessive=1)."""
    return [int(level) for level in levels]


#: Bit value -> trace symbol, for ``bytes.translate``.
_SYMBOLS = bytes.maketrans(b"\x00\x01", b"dr")


def levels_to_string(levels: Iterable[int]) -> str:
    """Render a level (or 0/1 bit) sequence as a compact ``d``/``r`` string.

    This matches the notation of the figures in the paper, e.g. the
    active error flag renders as ``"dddddd"``.  One table lookup over
    the bytes of the sequence renders the whole of it.
    """
    return bytes(levels).translate(_SYMBOLS).decode()


#: Recessive bits after traffic that still count as busy bus time
#: (delimiters, end of frame and intermission), when measuring load.
BUSY_RECESSIVE_BITS = 12

_IDLE_RUN = re.compile("r{%d,}" % (BUSY_RECESSIVE_BITS + 1))


def count_busy_bits(symbols: str) -> int:
    """Busy bits of a ``d``/``r`` trace: every dominant bit and the
    first :data:`BUSY_RECESSIVE_BITS` bits of every recessive run."""
    return len(symbols) - sum(
        match.end() - match.start() - BUSY_RECESSIVE_BITS
        for match in _IDLE_RUN.finditer(symbols)
    )


def levels_from_string(text: str) -> List[Level]:
    """Parse a ``d``/``r`` string (as used in the paper's figures)."""
    levels = []
    for char in text:
        if char == "d":
            levels.append(Level.DOMINANT)
        elif char == "r":
            levels.append(Level.RECESSIVE)
        elif char in " _|":
            continue
        else:
            raise ValueError("unexpected level character %r" % char)
    return levels
