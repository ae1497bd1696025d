"""Transmitter-side frame serialisation.

:func:`encode_frame` turns a :class:`~repro.can.frame.Frame` into a
:class:`WireFrame`: the exact sequence of bus levels a transmitter
drives, each annotated with its field name, its index within the field,
whether it is a stuff bit, and whether it belongs to the arbitration
region (where observing dominant while driving recessive means a lost
arbitration instead of a bit error).  :class:`WireFrame` is the one
encoding every reader shares — both controllers, the batch tail and
header replays, the traffic renderer and the sweep — and
:func:`wire_program` its one cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.can.bits import Level, levels_to_string
from repro.can.fields import (
    ACK_SLOT,
    ARBITRATION_FIELDS,
    CRC,
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
)
from repro.can.frame import Frame
from repro.can.geometry import ACK_SLOT_OFFSET, EOF_OFFSET, tail_positions
from repro.can.stuffing import STUFF_WIDTH


#: Per-bit transmit opcodes (:attr:`WireFrame.ops`).  The transmitter's
#: steady state reduces to "compare the observed level against the
#: encoded one and advance"; the opcode tells the controller which
#: *exception* rule applies on this bit, so the hot loop never inspects
#: field names.
OP_MATCH = 0  #: mismatch is a bit error
OP_ARB = 1  #: recessive non-stuff arbitration bit: mismatch is a lost arbitration
OP_ACK = 2  #: ACK slot: a recessive bus is an ACK error
OP_EOF = 3  #: EOF bit: delegate to the protocol's ``_tx_eof_bit`` policy

#: The tail fields whose opcode is not :data:`OP_MATCH`.
_TAIL_OPS = {ACK_SLOT: OP_ACK, EOF: OP_EOF}

_LEVELS = (Level.DOMINANT, Level.RECESSIVE)


@dataclass(frozen=True)
class WireFrame:
    """A fully serialised frame: the one on-the-wire encoding.

    Every column is a tuple with one entry per on-the-wire bit, in
    transmission order:

    - ``levels`` / ``bit_values``: the driven :class:`Level`, and the
      same level as a plain int;
    - ``positions``: the ``(field, index)`` position the transmitter
      publishes (a stuff bit shares the position of the bit it
      follows);
    - ``is_stuff`` / ``in_arbitration``: whether the bit is a stuff bit,
      and whether it lies in the arbitration region (where observing
      dominant while driving recessive means a lost arbitration instead
      of a bit error);
    - ``ops``: the :data:`OP_MATCH`-family transmit opcode.

    ``symbols`` is the bus trace of the frame uncontested and
    acknowledged, in the one-character trace alphabet (``d``/``r``):
    the driven levels with the ACK slot forced dominant, because any
    online receiver with a complete, CRC-clean header acknowledges.
    On a bus free of injected faults this *is* the observed trace even
    under contention — an arbitration loser's dominant prefix coincides
    with the winner's up to the first divergent identifier bit, where
    the loser withdraws — which is what lets the traffic batch backend
    synthesize a window's bus history by concatenating frames' symbols
    instead of stepping the engine.
    """

    frame: Frame
    eof_length: int
    levels: Tuple[Level, ...]
    bit_values: Tuple[int, ...]
    positions: Tuple[Tuple[str, int], ...]
    is_stuff: Tuple[bool, ...]
    in_arbitration: Tuple[bool, ...]
    ops: Tuple[int, ...]
    length: int
    symbols: str

    def __len__(self) -> int:
        return self.length

    # Every frame ends in the same unstuffed tail (repro.can.geometry).

    @property
    def tail_start(self) -> int:
        """Stream index of the first tail bit, the CRC delimiter."""
        return self.length - self.eof_length - EOF_OFFSET

    @property
    def ack_slot_position(self) -> int:
        """Stream index of the ACK slot."""
        return self.tail_start + ACK_SLOT_OFFSET

    @property
    def eof_start(self) -> int:
        """Stream index of the first EOF bit."""
        return self.tail_start + EOF_OFFSET

    def field_positions(self, field: str) -> List[int]:
        """All stream positions whose field name equals ``field``."""
        return [
            stream_index
            for stream_index, (name, _) in enumerate(self.positions)
            if name == field
        ]


def encode_frame(frame: Frame, eof_length: int = STANDARD_EOF_LENGTH) -> WireFrame:
    """Serialise ``frame`` into the bit sequence driven on the bus.

    Stuffing covers SOF through the CRC sequence, including a trailing
    stuff bit when the final five CRC bits form a run (the encoder and
    the parser agree on this convention; see DESIGN.md).
    """
    values: List[int] = []
    positions: List[Tuple[str, int]] = []
    is_stuff: List[bool] = []
    in_arbitration: List[bool] = []
    ops: List[int] = []
    run_value: Optional[int] = None
    run_length = 0
    for segment in header_segments(frame):
        name = segment.name
        arbitration = name in ARBITRATION_FIELDS
        for index, bit in enumerate(segment.bits):
            position = (name, index)
            values.append(bit)
            positions.append(position)
            is_stuff.append(False)
            in_arbitration.append(arbitration)
            ops.append(OP_ARB if arbitration and bit else OP_MATCH)
            if bit == run_value:
                run_length += 1
            else:
                run_value = bit
                run_length = 1
            if run_length == STUFF_WIDTH:
                run_value = 1 - bit
                run_length = 1
                values.append(run_value)
                positions.append(position)
                is_stuff.append(True)
                in_arbitration.append(arbitration)
                ops.append(OP_MATCH)
    # The transmitter drives the whole tail recessive, the ACK slot too.
    tail = tail_positions(eof_length)
    ack = len(values) + ACK_SLOT_OFFSET
    values += [1] * len(tail)
    positions += tail
    is_stuff += [False] * len(tail)
    in_arbitration += [False] * len(tail)
    ops += [_TAIL_OPS.get(name, OP_MATCH) for name, _ in tail]
    length = len(values)
    driven = levels_to_string(values)
    return WireFrame(
        frame=frame,
        eof_length=eof_length,
        levels=tuple([_LEVELS[value] for value in values]),
        bit_values=tuple(values),
        positions=tuple(positions),
        is_stuff=tuple(is_stuff),
        in_arbitration=tuple(in_arbitration),
        ops=tuple(ops),
        length=length,
        symbols=driven[:ack] + "d" + driven[ack + 1 :],
    )


@lru_cache(maxsize=512)
def wire_program(frame: Frame, eof_length: int = STANDARD_EOF_LENGTH) -> WireFrame:
    """The cached :func:`encode_frame` of ``frame``: the one frame cache.

    Retransmissions re-enter :meth:`CanController._start_transmission`
    once per attempt; the cache makes every attempt after the first —
    and every identical frame in a workload — reuse one encoding.
    :class:`Frame` is frozen and hashable, and the encoding is
    immutable, so sharing it across controllers, the traffic renderer,
    the batch replay and protocol variants with equal ``eof_length`` is
    safe.
    """
    return encode_frame(frame, eof_length=eof_length)


@dataclass(frozen=True)
class SignalTable:
    """Error-signalling positions as indexable tuples, per config.

    Error and overload flags, delimiters, the intermission and the
    suspend field are fixed runs whose lengths depend only on the
    configuration, never on the frame.  The controller's signalling
    drive handlers publish one ``(field, index)`` position per bit by
    indexing these tuples with the state's own run counter — the
    signalling counterpart of :attr:`WireFrame.positions`.  All entries
    are tuples shared by every controller of the same configuration.

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
    wire = wire_program(frame, eof_length=eof_length)
    tail_offset = wire.tail_start
    by_site: Dict[Tuple[str, int], HeaderSiteRow] = {}
    for position in range(tail_offset):
        site = wire.positions[position]
        if site in by_site or site[0] not in HEADER_SITE_FIELDS:
            continue
        kind, signature = _replay_flipped(wire.bit_values, position, eof_length)
        by_site[site] = HeaderSiteRow(kind=kind, signature=signature)
    return HeaderShape(
        announced=frozenset(wire.positions[:tail_offset]), by_site=by_site
    )
