"""Receiver-side incremental frame parser.

The :class:`FrameParser` consumes one observed bus level per bit time
and tracks the position inside the frame (field name + index), removes
stuff bits, computes the CRC incrementally, validates the fixed-form
delimiter bits and reconstructs the transmitted
:class:`~repro.can.frame.Frame`.

The parser deliberately does *not* decide what an error means: stuff
violations, form violations and CRC mismatches are reported as fields
of the returned :class:`ParserStep`, and the controller maps them to
the protocol's error-signalling behaviour (which is exactly where
standard CAN, MinorCAN and MajorCAN differ).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from typing import List, Optional, Tuple

from repro.can.bits import Level, int_from_bits
from repro.can.crc import CRC_WIDTH, Crc15Register
from repro.can.fields import (
    ACK_DELIM,
    ACK_SLOT,
    CRC,
    CRC_DELIM,
    DATA,
    DLC,
    EOF,
    ID_A,
    ID_B,
    IDE,
    R0,
    R1,
    RTR,
    SOF,
    SRR,
    STANDARD_EOF_LENGTH,
)
from repro.can.frame import Frame
from repro.can.geometry import tail_positions
from repro.can.identifiers import CanId
from repro.can.stuffing import STUFF_WIDTH, Destuffer, StuffResult
from repro.errors import DecodingError


@dataclass(frozen=True)
class ParserStep:
    """Outcome of feeding one bit to the parser."""

    field: str
    index: int
    level: Level
    is_stuff: bool = False
    stuff_violation: bool = False
    form_violation: bool = False
    #: Set once the CRC sequence (and trailing stuff bit, if any) has
    #: been consumed; from then on :attr:`FrameParser.crc_ok` is valid.
    header_complete: bool = False
    #: Set when the final EOF bit has been consumed.
    frame_complete: bool = False


@dataclass
class _FieldCursor:
    """Internal cursor over the dynamically discovered field sequence."""

    name: str
    length: int
    consumed: int = 0
    bits: List[int] = dataclass_field(default_factory=list)

    @property
    def done(self) -> bool:
        return self.consumed >= self.length


class FrameParser:
    """Parse a CAN frame bit by bit from observed bus levels.

    Parameters
    ----------
    eof_length:
        Length of the end-of-frame field; 7 for standard CAN and
        MinorCAN, ``2 * m`` for MajorCAN_m.
    """

    #: Fields covered by bit stuffing (SOF through CRC).
    _STUFFED_FIELDS = frozenset(
        {SOF, ID_A, SRR, IDE, ID_B, RTR, R1, R0, DLC, DATA, CRC}
    )

    def __init__(self, eof_length: int = STANDARD_EOF_LENGTH) -> None:
        if eof_length < 2:
            raise DecodingError("EOF must be at least 2 bits long")
        self.eof_length = eof_length
        self._destuffer = Destuffer()
        self._crc = Crc15Register()
        self._fields: dict = {}
        self._cursor = _FieldCursor(SOF, 1)
        self._extended: Optional[bool] = None
        self._remote: Optional[bool] = None
        self._crc_ok: Optional[bool] = None
        self._header_complete = False
        self._complete = False
        self._failed = False
        self._pending_header_complete = False

    # ------------------------------------------------------------------
    # Public state
    # ------------------------------------------------------------------

    @property
    def crc_ok(self) -> Optional[bool]:
        """CRC verdict; ``None`` until the CRC sequence has arrived."""
        return self._crc_ok

    @property
    def header_complete(self) -> bool:
        """Whether everything up to (and including) the CRC was consumed."""
        return self._header_complete

    @property
    def complete(self) -> bool:
        """Whether the entire frame, including EOF, was consumed."""
        return self._complete

    @property
    def upcoming(self) -> Tuple[str, int, bool]:
        """``(field, index, is_stuff)`` of the *next* bit to be fed.

        Controllers use this to know, one bit ahead, that the ACK slot
        is about to arrive (so they can drive a dominant acknowledgement)
        and to announce their current position to the fault injector.
        """
        if self._complete or self._failed:
            return (EOF, self.eof_length - 1, False)
        if self._in_stuffed_region() and self._destuffer.next_is_stuff:
            if self._cursor.name == CRC_DELIM:
                return (CRC, CRC_WIDTH - 1, True)
            return (self._cursor.name, max(self._cursor.consumed - 1, 0), True)
        return (self._cursor.name, self._cursor.consumed, False)

    def frame(self) -> Frame:
        """Reconstruct the received frame (valid once the header is in)."""
        if not self._header_complete:
            raise DecodingError("frame not yet fully received")
        identifier = self._identifier()
        remote = bool(self._remote)
        dlc = int_from_bits(self._fields[DLC])
        data = bytes(
            int_from_bits(self._fields.get(DATA, [])[position : position + 8])
            for position in range(0, len(self._fields.get(DATA, [])), 8)
        )
        return Frame(can_id=identifier, data=data, remote=remote, dlc=dlc)

    # ------------------------------------------------------------------
    # Bit consumption
    # ------------------------------------------------------------------

    def feed(self, level: Level) -> ParserStep:
        """Consume one observed bus level and report what it was."""
        if self._complete:
            raise DecodingError("parser fed past the end of the frame")
        if self._failed:
            raise DecodingError("parser fed after an unrecoverable violation")
        bit = int(level)
        field_name = self._cursor.name
        index = self._cursor.consumed
        if self._in_stuffed_region():
            result = self._destuffer.feed(bit)
            if result == StuffResult.VIOLATION:
                self._failed = True
                return ParserStep(
                    field=field_name,
                    index=max(index - 1, 0),
                    level=level,
                    is_stuff=True,
                    stuff_violation=True,
                )
            if result == StuffResult.STUFF:
                if field_name == CRC_DELIM:
                    # Trailing stuff bit after the final CRC bit: it
                    # belongs to the CRC sequence, not the delimiter.
                    field_name, index = CRC, CRC_WIDTH
                return ParserStep(
                    field=field_name,
                    index=max(index - 1, 0),
                    level=level,
                    is_stuff=True,
                    header_complete=self._maybe_finish_header(),
                )
            self._consume_data_bit(bit)
            return ParserStep(
                field=field_name,
                index=index,
                level=level,
                header_complete=self._maybe_finish_header(),
            )
        # Fixed-form region: CRC delimiter, ACK field, EOF.
        return self._consume_tail_bit(field_name, index, level)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _in_stuffed_region(self) -> bool:
        if self._cursor.name in self._STUFFED_FIELDS:
            return True
        # A trailing stuff bit may be pending right after the last CRC bit.
        return self._cursor.name == CRC_DELIM and self._destuffer.next_is_stuff

    def _consume_data_bit(self, bit: int) -> None:
        cursor = self._cursor
        cursor.bits.append(bit)
        cursor.consumed += 1
        if cursor.name != CRC:
            self._crc.feed(bit)
        if cursor.done:
            self._fields[cursor.name] = list(cursor.bits)
            self._advance_after(cursor.name)

    def _maybe_finish_header(self) -> bool:
        """Mark the header complete once CRC plus pending stuff is in."""
        if self._pending_header_complete and not self._destuffer.next_is_stuff:
            self._pending_header_complete = False
            self._header_complete = True
            received = int_from_bits(self._fields[CRC])
            self._crc_ok = received == self._crc.value
            return True
        return False

    def _advance_after(self, finished: str) -> None:
        if finished == SOF:
            self._cursor = _FieldCursor(ID_A, 11)
        elif finished == ID_A:
            # The next bit is RTR (base) or SRR (extended); we cannot
            # know which until the IDE bit arrives, so parse it under
            # the provisional name RTR and fix it up if IDE is recessive.
            self._cursor = _FieldCursor(RTR, 1)
        elif finished == RTR and self._extended is None:
            self._cursor = _FieldCursor(IDE, 1)
        elif finished == IDE:
            ide_bit = self._fields[IDE][0]
            if ide_bit == 1:
                # Extended format: the bit parsed as RTR was really SRR.
                self._extended = True
                self._fields[SRR] = self._fields.pop(RTR)
                self._cursor = _FieldCursor(ID_B, 18)
            else:
                self._extended = False
                self._remote = self._fields[RTR][0] == 1
                self._cursor = _FieldCursor(R0, 1)
        elif finished == ID_B:
            self._cursor = _FieldCursor(RTR, 1)
            self._extended = True
        elif finished == RTR and self._extended:
            self._remote = self._fields[RTR][0] == 1
            self._cursor = _FieldCursor(R1, 1)
        elif finished == R1:
            self._cursor = _FieldCursor(R0, 1)
        elif finished == R0:
            self._cursor = _FieldCursor(DLC, 4)
        elif finished == DLC:
            dlc = int_from_bits(self._fields[DLC])
            data_bits = 0 if self._remote else 8 * min(dlc, 8)
            if data_bits:
                self._cursor = _FieldCursor(DATA, data_bits)
            else:
                self._cursor = _FieldCursor(CRC, CRC_WIDTH)
        elif finished == DATA:
            self._cursor = _FieldCursor(CRC, CRC_WIDTH)
        elif finished == CRC:
            self._cursor = _FieldCursor(CRC_DELIM, 1)
            self._pending_header_complete = True
        elif finished == CRC_DELIM:
            self._cursor = _FieldCursor(ACK_SLOT, 1)
        elif finished == ACK_SLOT:
            self._cursor = _FieldCursor(ACK_DELIM, 1)
        elif finished == ACK_DELIM:
            self._cursor = _FieldCursor(EOF, self.eof_length)
        elif finished == EOF:
            self._complete = True
        else:  # pragma: no cover - defensive
            raise DecodingError("parser reached unknown field %r" % finished)

    def _consume_tail_bit(self, field_name: str, index: int, level: Level) -> ParserStep:
        cursor = self._cursor
        cursor.bits.append(int(level))
        cursor.consumed += 1
        header_complete = False
        if field_name == CRC_DELIM and not self._header_complete:
            # No trailing stuff bit was pending; the header finished with
            # the last CRC data bit, so finalise the CRC verdict now.
            self._pending_header_complete = False
            self._header_complete = True
            received = int_from_bits(self._fields[CRC])
            self._crc_ok = received == self._crc.value
            header_complete = True
        form_violation = False
        if field_name in (CRC_DELIM, ACK_DELIM) and level is Level.DOMINANT:
            form_violation = True
        if cursor.done:
            self._fields[field_name] = list(cursor.bits)
            self._advance_after(field_name)
        return ParserStep(
            field=field_name,
            index=index,
            level=level,
            form_violation=form_violation,
            header_complete=header_complete,
            frame_complete=self._complete,
        )

    def _identifier(self) -> CanId:
        base = int_from_bits(self._fields[ID_A])
        if self._extended:
            extension = int_from_bits(self._fields[ID_B])
            return CanId((base << 18) | extension, extended=True)
        return CanId(base, extended=False)


# ---------------------------------------------------------------------------
# Table-driven fast parser (the controller fast path)
# ---------------------------------------------------------------------------

#: Integer step codes returned by :meth:`FastFrameParser.feed_code`.
#: They carry exactly the information the controller's receive handler
#: branches on, replacing the per-bit :class:`ParserStep` allocation.
STEP_OK = 0  #: nothing to decide; keep receiving
STEP_STUFF_VIOLATION = 1  #: six identical bits in the stuffed region
STEP_FORM_VIOLATION = 2  #: dominant level at a fixed-form delimiter bit
STEP_ACK_DELIM = 3  #: ACK delimiter consumed; check ``crc_ok`` now
STEP_EOF = 4  #: an EOF bit (its index is in :attr:`FastFrameParser.last_index`)

#: CRC-15 constants inlined into the fast feed loop.
_CRC_POLY = 0x4599
_CRC_TOP_SHIFT = CRC_WIDTH - 1
_CRC_MASK = 0x7FFF


@lru_cache(maxsize=8)
def _tail_positions(eof_length: int) -> Tuple[Tuple[str, int], ...]:
    """The tail table (:func:`repro.can.geometry.tail_positions`)
    indexed by the number of tail bits already consumed, with a final
    sentinel repeating the last EOF position (what ``upcoming`` reports
    once the frame is complete).  Shared by every frame of the same
    ``eof_length``, so steady-state tail bits allocate no tuples.
    """
    table = tail_positions(eof_length)
    return table + table[-1:]


class FastFrameParser:
    """Allocation-free equivalent of :class:`FrameParser`.

    Consumes the same observed bus levels and reaches the same verdicts
    (positions, stuff/form violations, CRC verdict, reconstructed
    frame), but reports each bit as an integer :data:`STEP_OK`-family
    code instead of a :class:`ParserStep`, keeps the destuffer and the
    CRC-15 register inlined as plain ints, and walks the field sequence
    with a single cursor over interned field names.  The fixed-form
    tail steps through the precompiled :func:`_tail_positions` table.

    The controller-facing surface mirrors the reference parser:
    ``crc_ok``, ``header_complete``, ``complete``, ``upcoming`` and
    ``frame()`` behave identically, which is what keeps the MinorCAN
    and MajorCAN extension points working unchanged on the fast path.
    ``tests/test_controller_fastpath.py`` enforces the equivalence
    bit-for-bit against the reference implementation.
    """

    __slots__ = (
        "eof_length",
        "complete",
        "header_complete",
        "crc_ok",
        "failed",
        "last_index",
        "next_field",
        "next_index",
        "next_is_stuff",
        "next_position",
        "_field",
        "_length",
        "_consumed",
        "_acc",
        "_run_value",
        "_run_length",
        "_expect_stuff",
        "_stuffed",
        "_crc",
        "_pending_header",
        "_crc_received",
        "_id_a",
        "_id_b",
        "_rtr_bit",
        "_extended",
        "_remote",
        "_dlc",
        "_data_int",
        "_data_bits",
        "_tail_consumed",
        "_tail_table",
    )

    def __init__(self, eof_length: int = STANDARD_EOF_LENGTH) -> None:
        if eof_length < 2:
            raise DecodingError("EOF must be at least 2 bits long")
        self.eof_length = eof_length
        self.complete = False
        self.header_complete = False
        self.crc_ok: Optional[bool] = None
        self.failed = False
        self.last_index = 0
        self.next_field = SOF
        self.next_index = 0
        self.next_is_stuff = False
        self.next_position: Tuple[str, int] = (SOF, 0)
        self._field = SOF
        self._length = 1
        self._consumed = 0
        self._acc = 0
        self._run_value = -1
        self._run_length = 0
        self._expect_stuff = False
        self._stuffed = True
        self._crc = 0
        self._pending_header = False
        self._crc_received = 0
        self._id_a = 0
        self._id_b = 0
        self._rtr_bit = 0
        self._extended: Optional[bool] = None
        self._remote: Optional[bool] = None
        self._dlc = 0
        self._data_int = 0
        self._data_bits = 0
        self._tail_consumed = 0
        self._tail_table = _tail_positions(eof_length)

    # ------------------------------------------------------------------
    # Reference-parser API surface
    # ------------------------------------------------------------------

    @property
    def upcoming(self) -> Tuple[str, int, bool]:
        """``(field, index, is_stuff)`` of the next bit, as the reference."""
        return (self.next_field, self.next_index, self.next_is_stuff)

    def frame(self) -> Frame:
        """Reconstruct the received frame (valid once the header is in)."""
        if not self.header_complete:
            raise DecodingError("frame not yet fully received")
        if self._extended:
            identifier = CanId((self._id_a << 18) | self._id_b, extended=True)
        else:
            identifier = CanId(self._id_a, extended=False)
        nbytes = self._data_bits >> 3
        data = self._data_int.to_bytes(nbytes, "big") if nbytes else b""
        return Frame(
            can_id=identifier, data=data, remote=bool(self._remote), dlc=self._dlc
        )

    def feed(self, level: Level) -> int:
        """Alias of :meth:`feed_code` (for drop-in replay loops)."""
        return self.feed_code(level)

    # ------------------------------------------------------------------
    # Bit consumption
    # ------------------------------------------------------------------

    def feed_code(self, level: Level) -> int:
        """Consume one observed level; return a ``STEP_*`` code."""
        if self.complete:
            raise DecodingError("parser fed past the end of the frame")
        if self.failed:
            raise DecodingError("parser fed after an unrecoverable violation")
        bit = 1 if level else 0
        if self._stuffed or self._expect_stuff:
            if self._expect_stuff:
                self._expect_stuff = False
                if bit == self._run_value:
                    self.failed = True
                    self.next_field = EOF
                    self.next_index = self.eof_length - 1
                    self.next_is_stuff = False
                    self.next_position = self._tail_table[-1]
                    return STEP_STUFF_VIOLATION
                self._run_value = bit
                self._run_length = 1
                if self._pending_header:
                    self._finish_header()
                self._set_next()
                return STEP_OK
            if bit == self._run_value:
                self._run_length += 1
                if self._run_length == STUFF_WIDTH:
                    self._expect_stuff = True
            else:
                self._run_value = bit
                self._run_length = 1
            field = self._field
            if field is not CRC:
                register = self._crc
                if bit ^ (register >> _CRC_TOP_SHIFT):
                    self._crc = ((register << 1) ^ _CRC_POLY) & _CRC_MASK
                else:
                    self._crc = (register << 1) & _CRC_MASK
            self._acc = (self._acc << 1) | bit
            self._consumed += 1
            if self._consumed == self._length:
                self._advance_after(field)
            if self._pending_header and not self._expect_stuff:
                self._finish_header()
            self._set_next()
            return STEP_OK
        # Fixed-form tail: CRC delimiter, ACK field, EOF, by the table.
        consumed = self._tail_consumed
        field, index = self._tail_table[consumed]
        self._tail_consumed = consumed = consumed + 1
        code = STEP_OK
        if field is EOF:
            self.last_index = index
            code = STEP_EOF
            if index == self.eof_length - 1:
                self.complete = True
        elif field is ACK_DELIM:
            code = STEP_FORM_VIOLATION if bit == 0 else STEP_ACK_DELIM
        elif field is CRC_DELIM:
            if not self.header_complete:  # pragma: no cover - defensive parity
                self._finish_header()
            if bit == 0:
                code = STEP_FORM_VIOLATION
        position = self._tail_table[consumed]
        self.next_field = position[0]
        self.next_index = position[1]
        self.next_is_stuff = False
        self.next_position = position
        return code

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _finish_header(self) -> None:
        self._pending_header = False
        self.header_complete = True
        self.crc_ok = self._crc_received == self._crc

    def _set_next(self) -> None:
        """Publish the reference parser's ``upcoming`` for the next bit."""
        field = self._field
        if self._expect_stuff:
            if field is CRC_DELIM:
                self.next_field = CRC
                self.next_index = CRC_WIDTH - 1
            else:
                self.next_field = field
                consumed = self._consumed
                self.next_index = consumed - 1 if consumed > 0 else 0
            self.next_is_stuff = True
        else:
            self.next_field = field
            self.next_index = self._consumed
            self.next_is_stuff = False
        self.next_position = (self.next_field, self.next_index)

    def _advance_after(self, finished: str) -> None:
        """Field-walk transitions of the stuffed region (see reference)."""
        acc = self._acc
        self._acc = 0
        self._consumed = 0
        if finished is SOF:
            self._field = ID_A
            self._length = 11
        elif finished is ID_A:
            self._id_a = acc
            self._field = RTR
            self._length = 1
        elif finished is RTR:
            if self._extended:
                self._remote = bool(acc)
                self._field = R1
            else:
                # Provisional slot: RTR (base) or SRR (extended); the IDE
                # bit decides.
                self._rtr_bit = acc
                self._field = IDE
            self._length = 1
        elif finished is IDE:
            if acc:
                self._extended = True
                self._field = ID_B
                self._length = 18
            else:
                self._extended = False
                self._remote = bool(self._rtr_bit)
                self._field = R0
                self._length = 1
        elif finished is ID_B:
            self._id_b = acc
            self._field = RTR
            self._length = 1
        elif finished is R1:
            self._field = R0
            self._length = 1
        elif finished is R0:
            self._field = DLC
            self._length = 4
        elif finished is DLC:
            self._dlc = acc
            data_bits = 0 if self._remote else 8 * min(acc, 8)
            self._data_bits = data_bits
            if data_bits:
                self._field = DATA
                self._length = data_bits
            else:
                self._field = CRC
                self._length = CRC_WIDTH
        elif finished is DATA:
            self._data_int = acc
            self._field = CRC
            self._length = CRC_WIDTH
        else:  # CRC: the stuffed region ends here
            self._crc_received = acc
            self._pending_header = True
            self._stuffed = False
            self._field = CRC_DELIM
            self._length = 1
