"""The frame-end geometry, declared once.

MajorCAN changes only the end of a CAN frame (Section 5 of the paper):
the EOF becomes ``2m`` recessive bits, the error and overload delimiter
``2m + 1`` (the ACK delimiter plus the EOF, so nodes can always
resynchronise), and a node that first sees an error in the first EOF
sub-field samples EOF-relative bits ``m + 7`` through ``3m + 5`` —
where any extended error flag also ends — and accepts on a majority of
``m`` dominant samples.  Standard CAN and MinorCAN keep the 7-bit EOF
and the 8-bit delimiter and never sample.

Two things are declared here, and every reader takes them from here:

* :func:`tail_positions`, the fixed-form tail every frame ends in: the
  CRC delimiter, the ACK slot, the ACK delimiter, then the EOF bits, as
  the ``(field, index)`` positions the transmitter publishes.  The tail
  is never stuffed, and the transmitter drives all of it recessive
  (receivers overwrite the ACK slot with dominant);
* :func:`frame_end`, the per-protocol :class:`FrameEnd` record: EOF
  and delimiter lengths, the sampling window and the majority.

The encoder and the fast parser build their tails from the table; the
controller configurations, the batch tail replay, the placement
drivers and the figure scripts read the record.
:func:`repro.analysis.geometry.derive_geometry` restates the MajorCAN
constants independently, from the paper's error budgets, and checks
this record against them.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Tuple

from repro.can.fields import (
    ACK_DELIM,
    ACK_SLOT,
    CRC_DELIM,
    EOF,
    SAMPLING,
    STANDARD_DELIMITER_LENGTH,
    STANDARD_EOF_LENGTH,
)
from repro.errors import ConfigurationError

#: The tail before the EOF, one position per bit.
TAIL_PREFIX = ((CRC_DELIM, 0), (ACK_SLOT, 0), (ACK_DELIM, 0))
#: Offsets into the tail of the ACK slot and of the first EOF bit.
ACK_SLOT_OFFSET = TAIL_PREFIX.index((ACK_SLOT, 0))
EOF_OFFSET = len(TAIL_PREFIX)

#: The protocol variants, by the lower-case names every entry point takes.
PROTOCOL_NAMES = ("can", "minorcan", "majorcan")

#: The paper's proposed MajorCAN tolerance (matching the CRC-15 strength).
DEFAULT_M = 5


@lru_cache(maxsize=64)
def tail_positions(eof_length: int = STANDARD_EOF_LENGTH) -> Tuple[Tuple[str, int], ...]:
    """The fixed-form tail of a frame with ``eof_length`` EOF bits."""
    return TAIL_PREFIX + tuple((EOF, index) for index in range(eof_length))


class FrameEnd(NamedTuple):
    """The frame-end geometry of one protocol variant.

    ``window_start`` .. ``window_end`` are the EOF-relative (1-based)
    bits a sampling node votes on, and ``majority`` the dominant votes
    that accept.  A protocol that never samples has the empty window
    ``1 .. 0`` and majority 0.
    """

    protocol: str
    eof_length: int
    delimiter_length: int
    window_start: int
    window_end: int
    majority: int

    @property
    def sites(self) -> Tuple[Tuple[str, int], ...]:
        """Every position of the tail and of the sampling window, in
        frame order: the tail table, then one SAMPLING position per
        window bit (quiet MajorCAN nodes announce these)."""
        return tail_positions(self.eof_length) + tuple(
            (SAMPLING, clock) for clock in range(self.window_start, self.window_end + 1)
        )


@lru_cache(maxsize=256)
def frame_end(protocol: str, m: int = DEFAULT_M) -> FrameEnd:
    """The :class:`FrameEnd` of ``protocol`` (any letter case).

    ``m`` matters to MajorCAN_m only.  Raises :class:`ConfigurationError`
    for an unknown protocol and for MajorCAN with ``m < 3``.
    """
    key = protocol.lower()
    if key not in PROTOCOL_NAMES:
        raise ConfigurationError(
            "unknown protocol %r (choose from %s)" % (protocol, sorted(PROTOCOL_NAMES))
        )
    if key != "majorcan":
        return FrameEnd(key, STANDARD_EOF_LENGTH, STANDARD_DELIMITER_LENGTH, 1, 0, 0)
    if m < 3:
        raise ConfigurationError(
            "MajorCAN requires m >= 3 (with m <= 2 the scenario leading to "
            "property CAN2' can still happen), got m=%d" % m
        )
    return FrameEnd(key, 2 * m, 2 * m + 1, m + 7, 3 * m + 5, m)
