"""Frame field layout.

This module holds the field names and the transmitter's field order
(:func:`header_segments`, read by :mod:`repro.can.encoding`).  The
receiver-side parsers (:mod:`repro.can.parser`) walk their own field
order; ``tests/test_frame_end.py`` keeps them in step with the encoder
and pins the two cases where a receiver names a wire bit differently
(the extended SRR bit, and a stuff bit after a field's last bit).

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


def header_segments(frame: Frame) -> List[Tuple[str, Tuple[int, ...]]]:
    """The stuffed-region ``(field, bits)`` pairs, SOF through CRC, of
    ``frame``, in wire order and unstuffed.

    The CRC bits are computed over the concatenation of all previous
    bits, matching the CAN specification.
    """
    can_id = frame.can_id
    rtr = (1,) if frame.remote else (0,)
    if can_id.extended:
        segments = [
            (SOF, (0,)),
            (ID_A, tuple(can_id.base_part())),
            (SRR, (1,)),
            (IDE, (1,)),
            (ID_B, tuple(can_id.extension_part())),
            (RTR, rtr),
            (R1, (0,)),
            (R0, (0,)),
        ]
    else:
        segments = [
            (SOF, (0,)),
            (ID_A, tuple(can_id.id_bits())),
            (RTR, rtr),
            (IDE, (0,)),
            (R0, (0,)),
        ]
    segments.append((DLC, tuple(bits_from_int(frame.dlc, 4))))
    if not frame.remote and frame.effective_data_length:
        segments.append(
            (DATA, tuple([bit for byte in frame.data for bit in bits_from_int(byte, 8)]))
        )
    covered = [bit for _, bits in segments for bit in bits]
    segments.append((CRC, tuple(crc15_bits(covered))))
    return segments
