"""Transmitter-side frame serialisation.

:func:`encode_frame` turns a :class:`~repro.can.frame.Frame` into a
:class:`WireFrame`: the exact sequence of bus levels a transmitter
drives, each annotated with its field name, its index within the field,
whether it is a stuff bit, and whether it belongs to the arbitration
region (where observing dominant while driving recessive means a lost
arbitration instead of a bit error).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.can.bits import Level
from repro.can.fields import (
    ACK_SLOT,
    ARBITRATION_FIELDS,
    CRC,
    CRC_DELIM,
    DATA,
    DLC,
    EOF,
    ERROR_DELIM,
    ERROR_FLAG,
    ERROR_WAIT,
    EXTENDED_FLAG,
    FLAG_LENGTH,
    ID_A,
    ID_B,
    IDE,
    INTERMISSION,
    INTERMISSION_LENGTH,
    OVERLOAD_DELIM,
    OVERLOAD_FLAG,
    OVERLOAD_WAIT,
    R0,
    R1,
    RTR,
    SAMPLING,
    SOF,
    SRR,
    STANDARD_EOF_LENGTH,
    SUSPEND,
    SUSPEND_LENGTH,
    header_segments,
    tail_segments,
)
from repro.can.frame import Frame
from repro.can.stuffing import STUFF_WIDTH


@dataclass(frozen=True)
class WireBit:
    """One bit of a serialised frame, as driven by the transmitter.

    ``entry`` is the bit's row of a compiled :class:`WireProgram`: the
    ``(level, value, position, op)`` tuple :func:`compile_wire` reads.
    It is derived from the five fields and is not a field itself, so
    equality, hashing and ``repr`` are those of the five fields.
    :func:`encode_frame` interns its bits, so each distinct bit is
    built, and its entry derived, once per process.
    """

    level: Level
    field: str
    index: int
    is_stuff: bool
    in_arbitration: bool

    def __post_init__(self) -> None:
        if self.field == EOF:
            op = OP_EOF
        elif self.field == ACK_SLOT:
            op = OP_ACK
        elif (
            self.in_arbitration
            and self.level is Level.RECESSIVE
            and not self.is_stuff
        ):
            op = OP_ARB
        else:
            op = OP_MATCH
        object.__setattr__(
            self,
            "entry",
            (self.level, int(self.level), (self.field, self.index), op),
        )


@dataclass(frozen=True)
class WireFrame:
    """A fully serialised frame ready for bit-by-bit transmission."""

    frame: Frame
    bits: Tuple[WireBit, ...]
    eof_length: int

    def __len__(self) -> int:
        return len(self.bits)

    # Every frame ends in the same unstuffed tail: CRC delimiter, ACK
    # slot, ACK delimiter, then ``eof_length`` EOF bits.

    @property
    def ack_slot_position(self) -> int:
        """Index of the ACK slot within :attr:`bits`."""
        return len(self.bits) - self.eof_length - 2

    @property
    def eof_start(self) -> int:
        """Index of the first EOF bit within :attr:`bits`."""
        return len(self.bits) - self.eof_length

    def field_positions(self, field: str) -> List[int]:
        """All stream positions whose field name equals ``field``."""
        return [
            position
            for position, wire_bit in enumerate(self.bits)
            if wire_bit.field == field
        ]

    def levels(self) -> List[Level]:
        """The raw level sequence (useful for tests and traces)."""
        return [wire_bit.level for wire_bit in self.bits]


#: Interned :class:`WireBit` values by ``(value, field, index, is_stuff,
#: in_arbitration)``; bounded by the frame layout (a few hundred keys).
_WIRE_BITS: Dict[Tuple[int, str, int, bool, bool], WireBit] = {}

_LEVELS = (Level.DOMINANT, Level.RECESSIVE)


def _intern(key: Tuple[int, str, int, bool, bool]) -> WireBit:
    """The one :class:`WireBit` for ``key``, built on first use."""
    wire_bit = _WIRE_BITS.get(key)
    if wire_bit is None:
        value, field, index, is_stuff, in_arbitration = key
        wire_bit = _WIRE_BITS[key] = WireBit(
            _LEVELS[value], field, index, is_stuff, in_arbitration
        )
    return wire_bit


@lru_cache(maxsize=64)
def _tail_bits(eof_length: int) -> Tuple[WireBit, ...]:
    """The unstuffed tail every frame shares, CRC delimiter through EOF."""
    return tuple(
        _intern((bit, segment.name, index, False, False))
        for segment in tail_segments(eof_length)
        for index, bit in enumerate(segment.bits)
    )


def encode_frame(frame: Frame, eof_length: int = STANDARD_EOF_LENGTH) -> WireFrame:
    """Serialise ``frame`` into the bit sequence driven on the bus.

    Stuffing covers SOF through the CRC sequence, including a trailing
    stuff bit when the final five CRC bits form a run (the encoder and
    the parser agree on this convention; see DESIGN.md).
    """
    interned = _WIRE_BITS.get
    wire_bits: List[WireBit] = []
    append = wire_bits.append
    run_value: Optional[int] = None
    run_length = 0
    for segment in header_segments(frame):
        name = segment.name
        in_arbitration = name in ARBITRATION_FIELDS
        for index, bit in enumerate(segment.bits):
            key = (bit, name, index, False, in_arbitration)
            append(interned(key) or _intern(key))
            if bit == run_value:
                run_length += 1
            else:
                run_value = bit
                run_length = 1
            if run_length == STUFF_WIDTH:
                stuff_bit = 1 - bit
                key = (stuff_bit, name, index, True, in_arbitration)
                append(interned(key) or _intern(key))
                run_value = stuff_bit
                run_length = 1
    wire_bits.extend(_tail_bits(eof_length))
    return WireFrame(frame=frame, bits=tuple(wire_bits), eof_length=eof_length)


# ---------------------------------------------------------------------------
# Precompiled transmit programs (the controller fast path)
# ---------------------------------------------------------------------------

#: Per-bit opcodes of a :class:`WireProgram`.  The transmitter's steady
#: state reduces to "compare the observed level against the precompiled
#: one and advance"; the opcode tells the controller which *exception*
#: rule applies on this bit, so the hot loop never inspects field names.
OP_MATCH = 0  #: mismatch is a bit error
OP_ARB = 1  #: recessive non-stuff arbitration bit: mismatch is a lost arbitration
OP_ACK = 2  #: ACK slot: a recessive bus is an ACK error
OP_EOF = 3  #: EOF bit: delegate to the protocol's ``_tx_eof_bit`` policy


@dataclass(frozen=True)
class WireProgram:
    """A :class:`WireFrame` flattened for index-driven transmission.

    ``levels``, ``positions`` and ``ops`` are parallel tuples, one entry
    per on-the-wire bit: the driven :class:`Level`, the prebuilt
    ``(field, index)`` position tuple the controller publishes, and the
    :data:`OP_MATCH`-family opcode consumed by the transmit bit handler.
    ``bit_values`` carries the same levels as plain ints for the lazy
    receive-parser replay after a lost arbitration.
    """

    wire: WireFrame
    levels: Tuple[Level, ...]
    bit_values: Tuple[int, ...]
    positions: Tuple[Tuple[str, int], ...]
    ops: Tuple[int, ...]
    length: int


def compile_wire(wire: WireFrame) -> WireProgram:
    """Flatten ``wire`` into the parallel arrays of a :class:`WireProgram`."""
    levels, bit_values, positions, ops = zip(
        *[wire_bit.entry for wire_bit in wire.bits]
    )
    return WireProgram(
        wire=wire,
        levels=levels,
        bit_values=bit_values,
        positions=positions,
        ops=ops,
        length=len(wire.bits),
    )


@dataclass(frozen=True)
class SignalTable:
    """Error-signalling positions as indexable tuples, per config.

    Error and overload flags, delimiters, the intermission and the
    suspend field are fixed runs whose lengths depend only on the
    configuration, never on the frame.  The controller's signalling
    drive handlers publish one ``(field, index)`` position per bit by
    indexing these tuples with the state's own run counter — the
    signalling counterpart of :class:`WireProgram`'s per-bit
    ``positions`` array.  All entries are tuples shared by every
    controller of the same configuration.

    ``sampling`` and ``extended_flag`` cover MajorCAN_m's agreement
    window, indexed by the EOF-relative clock (positions ``0 ..
    extended_flag_end + 1``); they are two-entry stubs for protocols
    without a window.
    """

    error_flag: Tuple[Tuple[str, int], ...]
    overload_flag: Tuple[Tuple[str, int], ...]
    error_wait: Tuple[str, int]
    overload_wait: Tuple[str, int]
    error_delim: Tuple[Tuple[str, int], ...]
    overload_delim: Tuple[Tuple[str, int], ...]
    intermission: Tuple[Tuple[str, int], ...]
    suspend: Tuple[Tuple[str, int], ...]
    sampling: Tuple[Tuple[str, int], ...]
    extended_flag: Tuple[Tuple[str, int], ...]


@lru_cache(maxsize=64)
def signal_table(delimiter_length: int, extended_flag_end: int = 0) -> SignalTable:
    """Expand (and cache) the signalling position tables for one config."""
    window_span = extended_flag_end + 2
    return SignalTable(
        error_flag=tuple((ERROR_FLAG, i) for i in range(FLAG_LENGTH)),
        overload_flag=tuple((OVERLOAD_FLAG, i) for i in range(FLAG_LENGTH)),
        error_wait=(ERROR_WAIT, 0),
        overload_wait=(OVERLOAD_WAIT, 0),
        error_delim=tuple((ERROR_DELIM, i) for i in range(delimiter_length)),
        overload_delim=tuple(
            (OVERLOAD_DELIM, i) for i in range(delimiter_length)
        ),
        intermission=tuple((INTERMISSION, i) for i in range(INTERMISSION_LENGTH)),
        suspend=tuple((SUSPEND, i) for i in range(SUSPEND_LENGTH)),
        sampling=tuple((SAMPLING, i) for i in range(window_span)),
        extended_flag=tuple((EXTENDED_FLAG, i) for i in range(window_span)),
    )


# ---------------------------------------------------------------------------
# Stuff-aware header site expansion (the batch backend's header view)
# ---------------------------------------------------------------------------

#: Field names whose bits belong to the stuffed frame header (SOF through
#: the CRC sequence).  Error placements on these sites are the F1 desync
#: universe: a single flip can add or remove a stuff condition and shift
#: every receiver's parse of the remaining stream.
HEADER_SITE_FIELDS = frozenset(
    {SOF, ID_A, SRR, IDE, ID_B, RTR, R1, R0, DLC, DATA, CRC}
)

#: Replay verdict kinds for :class:`HeaderSiteRow.kind`.  These are the
#: protocol-independent stop points of a receive parse: all three
#: protocol variants stop consuming the nominal stream at the same bit,
#: they only differ in how they *signal* afterwards.
HEADER_KIND_ACCEPT = "accept"
HEADER_KIND_STUFF = "stuff_violation"
HEADER_KIND_FORM = "form_violation"
HEADER_KIND_CRC = "crc_error"
HEADER_KIND_OVERRUN = "overrun"


@dataclass(frozen=True)
class HeaderSiteRow:
    """One header bit-site of a frame, expanded under a single flip.

    The row holds what a nominal in-sync receiver makes of the
    transmitted stream with this one bit inverted: the verdict ``kind``
    at the first protocol-independent stop point, and the restuffed
    parse trajectory (``signature``) that identifies equivalent sites.
    """

    kind: str
    signature: Tuple[object, ...]


@dataclass(frozen=True)
class HeaderShape:
    """Per-frame expansion of every announced header bit-site.

    ``announced`` is the set of ``(field, index)`` positions a trigger
    can actually fire on (header sites absent from it are inert: the
    fault never fires and the run is clean); ``by_site`` holds one
    :class:`HeaderSiteRow` per announced header site.
    """

    announced: frozenset
    by_site: Dict[Tuple[str, int], HeaderSiteRow]


def _replay_flipped(bit_values: Tuple[int, ...], flip: int, eof_length: int):
    """Replay a receive parse of ``bit_values`` with one bit inverted.

    Returns ``(kind, signature)``: the verdict at the first stop point
    and the parse signature — the verdict, the CRC and completion
    flags, the parsed frame (or ``None``) and the per-bit ``(field,
    index, is_stuff, code)`` trajectory (pre-feed upcoming plus the
    step code).
    """
    # Local import: repro.can.parser deliberately does not import this
    # module, so the replay can live next to the encoder it inverts.
    from repro.can.parser import (
        STEP_ACK_DELIM,
        STEP_FORM_VIOLATION,
        STEP_STUFF_VIOLATION,
        FastFrameParser,
    )

    parser = FastFrameParser(eof_length=eof_length)
    records: List[Tuple[str, int, bool, int]] = []
    kind = HEADER_KIND_OVERRUN
    for position, bit in enumerate(bit_values):
        if position == flip:
            bit ^= 1
        pre_field = parser.next_field
        pre_index = parser.next_index
        pre_stuff = parser.next_is_stuff
        code = parser.feed_code(Level(bit))
        records.append((pre_field, pre_index, pre_stuff, code))
        if code == STEP_STUFF_VIOLATION:
            kind = HEADER_KIND_STUFF
            break
        if code == STEP_FORM_VIOLATION:
            kind = HEADER_KIND_FORM
            break
        if code == STEP_ACK_DELIM and parser.crc_ok is False:
            kind = HEADER_KIND_CRC
            break
        if parser.complete:
            kind = HEADER_KIND_ACCEPT
            break
    reconstructed = parser.frame() if parser.header_complete else None
    signature = (kind, parser.crc_ok, parser.complete, reconstructed, tuple(records))
    return kind, signature


@lru_cache(maxsize=256)
def header_shape(frame: Frame, eof_length: int = STANDARD_EOF_LENGTH) -> HeaderShape:
    """Expand every announced header bit-site of ``frame`` under a flip.

    For each ``(field, index)`` the transmitter announces before the CRC
    delimiter, the shape replays a full receive parse of the stream with
    that one wire bit inverted (the stuffed region restuffs itself: the
    replay consumes the *transmitted* levels, so an added or removed
    stuff condition shifts the parse exactly as it would on the bus) and
    records the verdict kind and the complete trajectory signature used
    by the batch backend to share classification work between
    equivalent sites.
    """
    program = wire_program(frame, eof_length=eof_length)
    tail_offset = program.positions.index((CRC_DELIM, 0))
    by_site: Dict[Tuple[str, int], HeaderSiteRow] = {}
    for position in range(tail_offset):
        site = program.positions[position]
        if site in by_site or site[0] not in HEADER_SITE_FIELDS:
            continue
        kind, signature = _replay_flipped(program.bit_values, position, eof_length)
        by_site[site] = HeaderSiteRow(kind=kind, signature=signature)
    return HeaderShape(
        announced=frozenset(program.positions[:tail_offset]), by_site=by_site
    )


@dataclass(frozen=True)
class BusImage:
    """The bus-level waveform of an uncontested, acknowledged frame.

    ``symbols`` is the wired-AND bus trace over the frame's span as the
    one-character trace alphabet (``d``/``r``): the transmitter's driven
    levels with the ACK slot forced dominant, because any online
    receiver with a complete, CRC-clean header acknowledges.  On a bus
    free of injected faults this *is* the observed trace even under
    contention — an arbitration loser's dominant prefix coincides with
    the winner's (identical stuffed prefixes up to the first divergent
    identifier bit, where the loser observes dominant and withdraws) —
    which is what lets the traffic batch backend synthesize a window's
    bus history by concatenating images instead of stepping the engine.
    """

    program: WireProgram
    symbols: str
    length: int


@lru_cache(maxsize=512)
def bus_image(frame: Frame, eof_length: int = STANDARD_EOF_LENGTH) -> BusImage:
    """The cached :class:`BusImage` of ``frame`` (see the class docs)."""
    program = wire_program(frame, eof_length=eof_length)
    ack = program.wire.ack_slot_position
    driven = "".join(map("dr".__getitem__, program.bit_values))
    symbols = driven[:ack] + "d" + driven[ack + 1 :]
    return BusImage(program=program, symbols=symbols, length=program.length)


@lru_cache(maxsize=512)
def wire_program(frame: Frame, eof_length: int = STANDARD_EOF_LENGTH) -> WireProgram:
    """Encode ``frame`` and compile it, caching by frame identity.

    Retransmissions re-enter :meth:`CanController._start_transmission`
    once per attempt; the cache makes every attempt after the first —
    and every identical frame in a workload — reuse one encoded and
    compiled program.  :class:`Frame` is frozen and hashable, and the
    compiled arrays are immutable, so sharing across controllers (and
    protocol variants with equal ``eof_length``) is safe.
    """
    return compile_wire(encode_frame(frame, eof_length=eof_length))
