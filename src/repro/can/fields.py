"""Frame field layout.

This module is the single source of truth for the order and content of
the fields of a CAN frame, shared by the transmitter-side encoder
(:mod:`repro.can.encoding`) and the receiver-side parser
(:mod:`repro.can.parser`), so the two can never disagree.

Classical base-format data frame (CAN 2.0A)::

    SOF | ID(11) RTR | IDE r0 DLC(4) | DATA(0-64) | CRC(15) | CRC_DELIM
        | ACK_SLOT ACK_DELIM | EOF(7)

Extended-format (CAN 2.0B) replaces the arbitration/control prefix::

    SOF | ID_A(11) SRR IDE ID_B(18) RTR | r1 r0 DLC(4) | ...

Bit stuffing covers SOF through the CRC sequence.  The tail (CRC
delimiter, ACK field, EOF) has fixed form and is never stuffed; its
layout and the EOF length of each protocol variant are declared in
:mod:`repro.can.geometry`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.can.bits import bits_from_int
from repro.can.crc import crc15_bits
from repro.can.frame import Frame

# ---------------------------------------------------------------------------
# Field name constants.  These strings appear in traces, parser positions
# and fault-injection triggers, so they are part of the public API.
# ---------------------------------------------------------------------------

SOF = "SOF"
ID_A = "ID_A"
SRR = "SRR"
IDE = "IDE"
ID_B = "ID_B"
RTR = "RTR"
R1 = "R1"
R0 = "R0"
DLC = "DLC"
DATA = "DATA"
CRC = "CRC"
CRC_DELIM = "CRC_DELIM"
ACK_SLOT = "ACK_SLOT"
ACK_DELIM = "ACK_DELIM"
EOF = "EOF"

#: Fields (in on-the-wire order) whose bits participate in arbitration:
#: a transmitter observing dominant while driving recessive in these
#: fields has lost arbitration rather than suffered a bit error.
ARBITRATION_FIELDS = frozenset({ID_A, SRR, IDE, ID_B, RTR})

#: Non-frame positions announced by controllers (used in traces and
#: fault-injection triggers).
INTERMISSION = "INTERMISSION"
ERROR_FLAG = "ERROR_FLAG"
ERROR_WAIT = "ERROR_WAIT"
ERROR_DELIM = "ERROR_DELIM"
OVERLOAD_FLAG = "OVERLOAD_FLAG"
OVERLOAD_WAIT = "OVERLOAD_WAIT"
OVERLOAD_DELIM = "OVERLOAD_DELIM"
EXTENDED_FLAG = "EXTENDED_FLAG"
SAMPLING = "SAMPLING"
SUSPEND = "SUSPEND"
IDLE = "IDLE"
BUS_OFF_POSITION = "BUS_OFF"

#: Standard CAN EOF length (7 recessive bits).
STANDARD_EOF_LENGTH = 7
#: Standard CAN error/overload delimiter length (8 recessive bits,
#: including the first detected recessive bit).
STANDARD_DELIMITER_LENGTH = 8
#: Length of an active error flag / overload flag (6 dominant bits).
FLAG_LENGTH = 6
#: Length of the intermission between frames (3 recessive bits).
INTERMISSION_LENGTH = 3
#: Length of the suspend-transmission window of error-passive nodes.
SUSPEND_LENGTH = 8


@dataclass(frozen=True)
class FieldSegment:
    """One named, contiguous run of unstuffed frame bits."""

    name: str
    bits: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.bits)


def header_segments(frame: Frame) -> List[FieldSegment]:
    """The stuffed-region segments (SOF through CRC) for ``frame``.

    The CRC segment is computed over the concatenation of all previous
    segments, matching the CAN specification.
    """
    segments: List[FieldSegment] = [FieldSegment(SOF, (0,))]
    if frame.can_id.extended:
        segments.append(FieldSegment(ID_A, tuple(frame.can_id.base_part())))
        segments.append(FieldSegment(SRR, (1,)))
        segments.append(FieldSegment(IDE, (1,)))
        segments.append(FieldSegment(ID_B, tuple(frame.can_id.extension_part())))
        segments.append(FieldSegment(RTR, (1 if frame.remote else 0,)))
        segments.append(FieldSegment(R1, (0,)))
        segments.append(FieldSegment(R0, (0,)))
    else:
        segments.append(FieldSegment(ID_A, tuple(frame.can_id.id_bits())))
        segments.append(FieldSegment(RTR, (1 if frame.remote else 0,)))
        segments.append(FieldSegment(IDE, (0,)))
        segments.append(FieldSegment(R0, (0,)))
    segments.append(FieldSegment(DLC, tuple(bits_from_int(frame.dlc, 4))))
    if not frame.remote and frame.effective_data_length:
        data_bits: List[int] = []
        for byte in frame.data:
            data_bits.extend(bits_from_int(byte, 8))
        segments.append(FieldSegment(DATA, tuple(data_bits)))
    covered: List[int] = []
    for segment in segments:
        covered.extend(segment.bits)
    segments.append(FieldSegment(CRC, tuple(crc15_bits(covered))))
    return segments
