"""The standard CAN controller state machine.

:class:`CanController` implements the medium access control sublayer of
ISO 11898 as a bit-synchronous finite-state machine: arbitration,
transmission and reception with on-line destuffing, the five error
detection mechanisms (bit, stuff, CRC, ACK, form), active and passive
error signalling, overload frames, fault confinement, automatic
retransmission — and, crucially for this reproduction, the special
behaviour for errors detected in the **last bit of the end-of-frame
field** that is the root cause of the inconsistencies the paper
studies.

The controller interacts with the simulation engine through a strict
two-phase per-bit protocol:

1. :meth:`drive` — return the level this node puts on the bus for the
   current bit time, and publish :attr:`position` (the frame-relative
   position of that bit) for the fault injector and the trace;
2. :meth:`on_bit` — consume the level this node *observes* on the bus
   (after wired-AND resolution and per-node view faults) and advance
   the state machine.

Protocol variants (MinorCAN, MajorCAN) subclass this machine and
override the dedicated extension points, primarily
:meth:`_rx_eof_bit` / :meth:`_tx_eof_bit` and the error-flag epilogue.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Deque, Dict, List, Optional, Union

from repro.can.bits import DOMINANT, RECESSIVE, Level
from repro.can.controller_config import ControllerConfig
from repro.can.encoding import (
    OP_ACK,
    OP_EOF,
    OP_MATCH,
    SignalTable,
    WireFrame,
    encode_frame,
    signal_table,
    wire_program,
)
from repro.can.error_counters import ConfinementState, ErrorCounters
from repro.can.events import Delivery, ErrorReason, Event, EventKind
from repro.can.fields import (
    ACK_DELIM,
    ACK_SLOT,
    BUS_OFF_POSITION,
    EOF,
    FLAG_LENGTH,
    IDLE,
    INTERMISSION_LENGTH,
    SUSPEND_LENGTH,
)
from repro.can.frame import Frame
from repro.can.identifiers import CanId
from repro.can.parser import (
    STEP_ACK_DELIM,
    STEP_EOF,
    STEP_FORM_VIOLATION,
    STEP_OK,
    STEP_STUFF_VIOLATION,
    FastFrameParser,
    FrameParser,
)
from repro.errors import SimulationError

# ---------------------------------------------------------------------------
# MAC states.  Plain strings so protocol subclasses can add their own.
# ---------------------------------------------------------------------------

STATE_IDLE = "idle"
STATE_RECEIVING = "receiving"
STATE_TRANSMITTING = "transmitting"
STATE_ERROR_FLAG = "error_flag"
STATE_PASSIVE_ERROR_FLAG = "passive_error_flag"
STATE_ERROR_WAIT = "error_wait"
STATE_ERROR_DELIM = "error_delim"
STATE_OVERLOAD_FLAG = "overload_flag"
STATE_OVERLOAD_WAIT = "overload_wait"
STATE_OVERLOAD_DELIM = "overload_delim"
STATE_INTERMISSION = "intermission"
STATE_SUSPEND = "suspend"
STATE_BUS_OFF = "bus_off"

#: The positions an offline node publishes: bus-off, or idle after a
#: crash or disconnection in any other state.
_BUS_OFF_AT = (BUS_OFF_POSITION, 0)
_IDLE_AT = (IDLE, 0)


@dataclass
class TxJob:
    """A queued frame with its retransmission bookkeeping."""

    frame: Frame
    attempts: int = 0


@dataclass
class _DeferredDecision:
    """Context of a postponed accept/reject decision (MinorCAN-style)."""

    was_transmitter: bool
    frame: Optional[Frame]


class CanController:
    """A bit-accurate standard CAN controller attached to one bus node.

    Parameters
    ----------
    name:
        Node name, used in events, traces and delivery ledgers.
    config:
        Static configuration (see :class:`ControllerConfig`).
    """

    #: Human-readable protocol label (overridden by subclasses).
    protocol_name = "CAN"

    def __init__(self, name: str, config: Optional[ControllerConfig] = None) -> None:
        self.name = name
        self.config = config or ControllerConfig()
        self.counters = ErrorCounters()
        self.now = 0
        self.tx_queue: Deque[TxJob] = deque()
        #: Every frame ever submitted for transmission (broadcast log).
        self.submitted: List[Frame] = []
        #: (bit time, frame) for every successful own transmission.
        self.tx_successes: List[tuple] = []
        self.deliveries: List[Delivery] = []
        self.events: List[Event] = []
        self.is_transmitter = False
        self.crashed = False
        self.disconnected = False
        #: (field, index) of the bit currently on the bus, from this
        #: node's perspective.  Published by :meth:`drive`.
        self.position = (IDLE, 0)

        self._state = STATE_IDLE
        self._wire: Optional[WireFrame] = None
        self._tx_pos = 0
        #: Reference parser or its fast-path equivalent, depending on
        #: ``config.fast_path`` (both expose the same verdict surface).
        self._parser: Optional[Union[FrameParser, FastFrameParser]] = None
        self._parser_failed = False
        self._flag_remaining = 0
        self._wait_first_bit = False
        self._wait_dominant_run = 0
        self._delim_remaining = 0
        self._intermission_pos = 0
        self._suspend_remaining = 0
        self._suspend_pending = False
        self._overload_requests = 0
        self._self_overloads_sent = 0
        self._frame_open = False
        self._rx_delivered = False
        self._deferred: Optional[_DeferredDecision] = None
        self._in_overload_epilogue = False
        self._bus_off_recessive_run = 0
        self._bus_off_sequences = 0
        self._remote_responses: Dict[tuple, bytes] = {}

        #: Precompiled signalling positions for this configuration
        #: (shared across controllers via the ``signal_table`` cache).
        self._signal_table: SignalTable = signal_table(self.config.delimiter_length)
        #: This configuration's (drive, on_bit) state -> handler tables;
        #: the engine calls ``_drive_handlers[_state](self)`` and
        #: ``_bit_handlers[_state](self, seen)`` directly.  Crashing or
        #: disconnecting swaps in the offline pair.
        self._drive_handlers, self._bit_handlers = self._HANDLERS[bool(self.config.fast_path)]

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    @property
    def state(self) -> str:
        """Current MAC state (one of the ``STATE_*`` constants)."""
        return self._state

    @property
    def offline(self) -> bool:
        """Whether this node no longer participates in the bus."""
        return self.crashed or self.disconnected or self._state == STATE_BUS_OFF

    @property
    def pending_transmissions(self) -> int:
        """Number of frames queued (including one being transmitted)."""
        return len(self.tx_queue)

    @property
    def received_frames(self) -> List[Frame]:
        """All frames delivered to this node, in delivery order."""
        return [delivery.frame for delivery in self.deliveries]

    def submit(self, frame: Frame) -> None:
        """Queue a frame for transmission."""
        self.submitted.append(frame)
        self.tx_queue.append(TxJob(frame))

    def crash(self) -> None:
        """Fail-silent crash: stop driving and processing immediately."""
        if not self.crashed:
            self.crashed = True
            self._drive_handlers, self._bit_handlers = _offline_handlers(type(self))
            self._log(EventKind.CRASHED)

    def disconnect(self) -> None:
        """Controlled disconnection (the paper's warning-limit switch-off)."""
        if not self.disconnected:
            self.disconnected = True
            self._drive_handlers, self._bit_handlers = _offline_handlers(type(self))
            self._log(EventKind.DISCONNECTED)

    def request_overload(self) -> None:
        """Ask for an overload frame to delay the next frame (slow node)."""
        self._overload_requests += 1

    def register_remote_response(self, identifier: "CanId", data: bytes) -> None:
        """Auto-answer remote (RTR) requests for ``identifier``.

        Real CAN controllers can be configured to answer a remote frame
        with a prepared data frame of the same identifier; when a
        remote frame for a registered identifier is delivered, the
        response is queued automatically.
        """
        self._remote_responses[(identifier.value, identifier.extended)] = data

    # ------------------------------------------------------------------
    # Engine interface
    # ------------------------------------------------------------------

    def drive(self) -> Level:
        """Phase 1: return the level driven on the bus this bit time."""
        handler = self._drive_handlers.get(self._state)
        if handler is None:
            raise SimulationError("no drive handler for state %r" % self._state)
        return handler(self)

    def on_bit(self, seen: Level) -> None:
        """Phase 2: consume the level observed on the bus this bit time."""
        handler = self._bit_handlers.get(self._state)
        if handler is None:
            raise SimulationError("no bit handler for state %r" % self._state)
        handler(self, seen)

    # ------------------------------------------------------------------
    # Drive handlers
    # ------------------------------------------------------------------

    def _drive_idle(self) -> Level:
        if self.tx_queue:
            return self._start_transmission()
        self.position = _IDLE_AT
        return RECESSIVE

    def _drive_receiving(self) -> Level:
        assert self._parser is not None
        field, index, is_stuff = self._parser.upcoming
        self.position = (field, index)
        if field == ACK_SLOT and not is_stuff and self._should_ack():
            return DOMINANT
        return RECESSIVE

    def _drive_transmitting(self) -> Level:
        assert self._wire is not None
        self.position = self._wire.positions[self._tx_pos]
        return self._wire.levels[self._tx_pos]

    def _drive_bus_off(self) -> Level:
        self.position = _BUS_OFF_AT
        return RECESSIVE

    def _drive_offline(self) -> Level:
        self.position = _IDLE_AT
        return RECESSIVE

    # ------------------------------------------------------------------
    # Bit handlers
    # ------------------------------------------------------------------

    def _bit_offline(self, seen: Level) -> None:
        """A crashed or disconnected node ignores the bus."""

    def _bit_bus_off(self, seen: Level) -> None:
        """Optionally monitor the recovery sequence while bus-off.

        ISO 11898 lets a bus-off node return to error-active (with
        cleared counters) after it monitors 128 occurrences of 11
        consecutive recessive bits.
        """
        if not self.config.bus_off_recovery:
            return
        if seen is RECESSIVE:
            self._bus_off_recessive_run += 1
            if self._bus_off_recessive_run == 11:
                self._bus_off_recessive_run = 0
                self._bus_off_sequences += 1
                if self._bus_off_sequences >= 128:
                    self._bus_off_sequences = 0
                    self.counters.reset()
                    self._state = STATE_IDLE
                    self._log(EventKind.BUS_OFF_RECOVERED)
        else:
            self._bus_off_recessive_run = 0

    def _bit_idle(self, seen: Level) -> None:
        if seen is DOMINANT:
            self._start_reception(seen)

    def _bit_receiving(self, seen: Level) -> None:
        assert self._parser is not None
        step = self._parser.feed(seen)
        if step.stuff_violation:
            self._enter_error(ErrorReason.STUFF)
            return
        if step.form_violation:
            self._enter_error(ErrorReason.FORM)
            return
        if step.field == ACK_DELIM and self._parser.crc_ok is False:
            # CRC error: by specification the error flag starts at the
            # bit following the ACK delimiter, i.e. the first EOF bit.
            self._enter_error(ErrorReason.CRC)
            return
        if step.field == EOF:
            self._rx_eof_bit(step.index, seen)

    def _bit_transmitting(self, seen: Level) -> None:
        assert self._wire is not None
        wire = self._wire
        position = self._tx_pos
        field, index = wire.positions[position]
        level = wire.levels[position]
        self._feed_parser_quietly(seen)
        if field == EOF:
            if self._tx_eof_bit(index, seen):
                return
            self._advance_tx()
            return
        if field == ACK_SLOT:
            if seen is not DOMINANT:
                self._enter_error(ErrorReason.ACK)
                return
            self._advance_tx()
            return
        if seen is not level:
            lost_arbitration = (
                wire.in_arbitration[position]
                and level is RECESSIVE
                and seen is DOMINANT
                and not wire.is_stuff[position]
            )
            if lost_arbitration:
                self._log(EventKind.ARBITRATION_LOST, field=field, index=index)
                self.is_transmitter = False
                self._wire = None
                self._state = STATE_RECEIVING
                return
            self._enter_error(ErrorReason.BIT, field=field)
            return
        self._advance_tx()

    def _bit_flag(self, seen: Level) -> None:
        self._flag_remaining -= 1
        if self._flag_remaining <= 0:
            self._after_flag_complete()

    def _bit_error_wait(self, seen: Level) -> None:
        if self._wait_first_bit:
            self._wait_first_bit = False
            primary = seen is DOMINANT
            if primary:
                self._log(EventKind.PRIMARY_ERROR)
            if self._deferred is not None:
                # MinorCAN semantics: being first to flag means nobody
                # has rejected the frame yet, so accept; otherwise some
                # node already rejected, so reject too.
                self._resolve_deferred(accept=primary)
            elif primary and not self.is_transmitter:
                self.counters.on_receiver_error(primary=True)
                self._confinement_check()
        if seen is DOMINANT:
            self._wait_dominant_run += 1
            if self._wait_dominant_run and self._wait_dominant_run % 8 == 0:
                self.counters.on_stuck_dominant_octet(self.is_transmitter)
                self._confinement_check()
            return
        # First recessive bit: delimiter bit 1.
        self._delim_remaining = self.config.delimiter_length - 1
        self._state = STATE_ERROR_DELIM

    def _bit_error_delim(self, seen: Level) -> None:
        if seen is DOMINANT:
            if self._delim_remaining <= 1:
                # Dominant at the last delimiter bit: overload condition.
                self._enter_overload(reactive=True)
            else:
                self._enter_error(ErrorReason.DELIMITER)
            return
        self._delim_remaining -= 1
        if self._delim_remaining <= 0:
            self._end_frame_slot()

    def _bit_overload_wait(self, seen: Level) -> None:
        if seen is DOMINANT:
            return
        self._delim_remaining = self.config.delimiter_length - 1
        self._state = STATE_OVERLOAD_DELIM

    def _bit_overload_delim(self, seen: Level) -> None:
        if seen is DOMINANT:
            if self._delim_remaining <= 1:
                self._enter_overload(reactive=True)
            else:
                self._enter_error(ErrorReason.DELIMITER)
            return
        self._delim_remaining -= 1
        if self._delim_remaining <= 0:
            self._end_frame_slot()

    def _bit_intermission(self, seen: Level) -> None:
        if seen is DOMINANT:
            if self._intermission_pos < INTERMISSION_LENGTH - 1:
                self._enter_overload(reactive=True)
                return
            # Dominant at the third intermission bit: interpreted as a
            # start of frame.  A waiting transmitter joins without
            # sending its own SOF bit (it starts with the identifier).
            if self.tx_queue and not self._suspend_pending:
                self._start_transmission(skip_sof=True, observed_sof=seen)
            else:
                self._start_reception(seen)
            return
        self._intermission_pos += 1
        if self._intermission_pos >= INTERMISSION_LENGTH:
            self._self_overloads_sent = 0
            if self._suspend_pending:
                self._suspend_pending = False
                self._suspend_remaining = SUSPEND_LENGTH
                self._state = STATE_SUSPEND
            else:
                self._state = STATE_IDLE
            self.is_transmitter = False

    def _bit_suspend(self, seen: Level) -> None:
        if seen is DOMINANT:
            self._start_reception(seen)
            return
        self._suspend_remaining -= 1
        if self._suspend_remaining <= 0:
            self._state = STATE_IDLE

    # ------------------------------------------------------------------
    # Fast-path handlers (table-driven transmit/receive hot loop)
    #
    # These are drop-in replacements for _drive_receiving /
    # _drive_transmitting / _bit_receiving / _bit_transmitting,
    # installed when ``config.fast_path`` is set.  They publish the
    # same positions, raise the same errors at the same bit times and
    # call the same protocol extension points (_rx_eof_bit /
    # _tx_eof_bit), so MinorCAN and MajorCAN run on them unchanged;
    # the differential suite pins the equivalence.
    # ------------------------------------------------------------------

    def _drive_receiving_fast(self) -> Level:
        parser = self._parser
        self.position = parser.next_position
        if (
            parser.next_field is ACK_SLOT
            and not parser.next_is_stuff
            and parser.header_complete
            and parser.crc_ok
        ):
            return DOMINANT
        return RECESSIVE

    def _drive_transmitting_fast(self) -> Level:
        wire = self._wire
        position = self._tx_pos
        self.position = wire.positions[position]
        return wire.levels[position]

    def _bit_receiving_fast(self, seen: Level) -> None:
        parser = self._parser
        code = parser.feed_code(seen)
        if code == STEP_OK:
            return
        if code == STEP_EOF:
            self._rx_eof_bit(parser.last_index, seen)
            return
        if code == STEP_STUFF_VIOLATION:
            self._enter_error(ErrorReason.STUFF)
            return
        if code == STEP_FORM_VIOLATION:
            self._enter_error(ErrorReason.FORM)
            return
        if code == STEP_ACK_DELIM and parser.crc_ok is False:
            self._enter_error(ErrorReason.CRC)

    def _bit_transmitting_fast(self, seen: Level) -> None:
        wire = self._wire
        position = self._tx_pos
        op = wire.ops[position]
        if op == OP_MATCH:  # any mismatch is a bit error
            if seen is wire.levels[position]:
                self._tx_pos = position + 1
                if position + 1 >= wire.length:  # pragma: no cover - EOF ends frames
                    self._tx_success()
                return
            self._enter_error(ErrorReason.BIT, field=wire.positions[position][0])
            return
        if op == OP_EOF:
            if self._tx_eof_bit(wire.positions[position][1], seen):
                return
            self._tx_pos = position + 1
            if position + 1 >= wire.length:
                self._tx_success()
            return
        if op == OP_ACK:
            if seen is not DOMINANT:
                self._enter_error(ErrorReason.ACK)
                return
            self._tx_pos = position + 1
            return
        # OP_ARB: recessive non-stuff arbitration bit; a dominant view
        # means the arbitration is lost and the node turns receiver.
        if seen is wire.levels[position]:
            self._tx_pos = position + 1
            return
        self._materialize_rx_parser(position, seen)
        field, index = wire.positions[position]
        self._log(EventKind.ARBITRATION_LOST, field=field, index=index)
        self.is_transmitter = False
        self._wire = None
        self._state = STATE_RECEIVING

    def _materialize_rx_parser(self, upto: int, seen: Level) -> None:
        """Build the receive parser a fast-path transmitter skipped.

        The reference implementation keeps a parallel receive parser in
        sync on every transmitted bit (:meth:`_feed_parser_quietly`) so
        a node that loses arbitration can continue as a receiver.  On
        the fast path that per-bit work is elided: until the first
        divergence the observed levels equal the encoded wire levels
        exactly (any earlier mismatch would have ended the
        transmission), so the parser state is reconstructed here, once,
        by replaying the first ``upto`` wire bits plus the observed bit
        that lost the arbitration.
        """
        parser = FastFrameParser(eof_length=self.config.eof_length)
        feed = parser.feed_code
        for value in self._wire.bit_values[:upto]:
            feed(value)
        feed(seen)
        self._parser = parser
        self._parser_failed = False

    # ------------------------------------------------------------------
    # Signalling drive handlers (table-driven)
    #
    # Each indexes the precompiled SignalTable by its state's own run
    # counter; the bit-phase handlers carry all the protocol logic.
    # ------------------------------------------------------------------

    def _drive_error_flag(self) -> Level:
        self.position = self._signal_table.error_flag[
            FLAG_LENGTH - self._flag_remaining
        ]
        return DOMINANT

    def _drive_overload_flag(self) -> Level:
        self.position = self._signal_table.overload_flag[
            FLAG_LENGTH - self._flag_remaining
        ]
        return DOMINANT

    def _drive_passive_error_flag(self) -> Level:
        self.position = self._signal_table.error_flag[
            FLAG_LENGTH - self._flag_remaining
        ]
        return RECESSIVE

    def _drive_error_wait(self) -> Level:
        self.position = self._signal_table.error_wait
        return RECESSIVE

    def _drive_overload_wait(self) -> Level:
        self.position = self._signal_table.overload_wait
        return RECESSIVE

    def _drive_error_delim(self) -> Level:
        table = self._signal_table.error_delim
        self.position = table[len(table) - self._delim_remaining]
        return RECESSIVE

    def _drive_overload_delim(self) -> Level:
        table = self._signal_table.overload_delim
        self.position = table[len(table) - self._delim_remaining]
        return RECESSIVE

    def _drive_suspend(self) -> Level:
        self.position = self._signal_table.suspend[
            SUSPEND_LENGTH - self._suspend_remaining
        ]
        return RECESSIVE

    def _drive_intermission(self) -> Level:
        self.position = self._signal_table.intermission[self._intermission_pos]
        if (
            self._intermission_pos == 0
            and self._overload_requests > 0
            and self._self_overloads_sent < 2
        ):
            # A slow node may delay the next frame with up to two
            # self-initiated overload frames.
            self._overload_requests -= 1
            self._self_overloads_sent += 1
            self._enter_overload(reactive=False)
            return self._drive_overload_flag()
        return RECESSIVE

    # ------------------------------------------------------------------
    # Frame start/stop helpers
    # ------------------------------------------------------------------

    def _start_transmission(
        self, skip_sof: bool = False, observed_sof: Optional[Level] = None
    ) -> Level:
        job = self.tx_queue[0]
        job.attempts += 1
        self._tx_pos = 1 if skip_sof else 0
        if self.config.fast_path:
            # Cached encoding; the parallel receive parser stays
            # unmaterialized until an arbitration loss needs it (see
            # _materialize_rx_parser).
            self._wire = wire_program(job.frame, self.config.eof_length)
            self._parser = None
            self._parser_failed = False
        else:
            self._wire = encode_frame(job.frame, eof_length=self.config.eof_length)
            self._parser = FrameParser(eof_length=self.config.eof_length)
            self._parser_failed = False
            if skip_sof and observed_sof is not None:
                self._parser.feed(observed_sof)
        self.is_transmitter = True
        self._frame_open = True
        self._rx_delivered = False
        self._state = STATE_TRANSMITTING
        self._log(
            EventKind.TX_START,
            frame=str(job.frame),
            attempt=job.attempts,
            message_id=job.frame.message_id,
        )
        self.position = self._wire.positions[self._tx_pos]
        return self._wire.levels[self._tx_pos]

    def _start_reception(self, sof_level: Level) -> None:
        if self.config.fast_path:
            self._parser = FastFrameParser(eof_length=self.config.eof_length)
            self._parser.feed_code(sof_level)
        else:
            self._parser = FrameParser(eof_length=self.config.eof_length)
            self._parser.feed(sof_level)
        self._parser_failed = False
        self.is_transmitter = False
        self._frame_open = True
        self._rx_delivered = False
        self._state = STATE_RECEIVING
        self._log(EventKind.RX_START)

    def _advance_tx(self) -> None:
        assert self._wire is not None
        self._tx_pos += 1
        if self._tx_pos >= self._wire.length:
            self._tx_success()

    def _tx_success(self) -> None:
        job = self.tx_queue.popleft()
        self.tx_successes.append((self.now, job.frame))
        self.counters.on_transmit_success()
        self._frame_open = False
        self._log(
            EventKind.TX_SUCCESS,
            frame=str(job.frame),
            attempt=job.attempts,
            message_id=job.frame.message_id,
        )
        if self.config.self_delivery:
            self._record_delivery(job.frame, attempt=job.attempts)
        self._wire = None
        self._enter_intermission()

    def _should_ack(self) -> bool:
        assert self._parser is not None
        return bool(self._parser.header_complete and self._parser.crc_ok)

    def _deliver_received_frame(self) -> None:
        """Deliver the frame currently held by the receive parser."""
        assert self._parser is not None
        frame = self._parser.frame()
        self._rx_delivered = True
        self._frame_open = False
        self.counters.on_receive_success()
        self._record_delivery(frame)

    def _record_delivery(self, frame: Frame, attempt: Optional[int] = None) -> None:
        delivery = Delivery(frame=frame, time=self.now, node=self.name, attempt=attempt)
        self.deliveries.append(delivery)
        self._log(
            EventKind.FRAME_DELIVERED,
            frame=str(frame),
            message_id=frame.message_id,
            attempt=attempt,
        )
        if frame.remote and attempt is None:
            key = (frame.can_id.value, frame.can_id.extended)
            data = self._remote_responses.get(key)
            if data is not None:
                self.submit(Frame(can_id=frame.can_id, data=data))

    def _reject_received_frame(self, reason: str) -> None:
        if self._frame_open and not self.is_transmitter:
            self._frame_open = False
            self._log(EventKind.FRAME_REJECTED, reason=reason)

    def _enter_intermission(self) -> None:
        self._intermission_pos = 0
        if (
            self.is_transmitter
            and self.counters.state is ConfinementState.ERROR_PASSIVE
        ):
            self._suspend_pending = True
        self._state = STATE_INTERMISSION

    def _end_frame_slot(self) -> None:
        """Called when an error/overload delimiter completes."""
        self._enter_intermission()

    # ------------------------------------------------------------------
    # Error and overload signalling
    # ------------------------------------------------------------------

    def _enter_error(
        self,
        reason: str,
        deferred: bool = False,
        **extra: object,
    ) -> None:
        """Start error signalling; the flag begins at the next bit time."""
        self._log(
            EventKind.ERROR_DETECTED,
            reason=reason,
            position="%s[%d]" % self.position,
            deferred=deferred,
            **extra,
        )
        if deferred:
            frame = None
            if not self.is_transmitter and self._parser is not None:
                if self._parser.header_complete:
                    frame = self._parser.frame()
            self._deferred = _DeferredDecision(
                was_transmitter=self.is_transmitter, frame=frame
            )
        else:
            if self.is_transmitter:
                self.counters.on_transmitter_error()
                self._schedule_retransmission()
            else:
                self.counters.on_receiver_error(primary=False)
                self._reject_received_frame(reason)
            self._confinement_check()
            if self._state == STATE_BUS_OFF:
                return
        self._flag_remaining = FLAG_LENGTH
        self._wait_first_bit = True
        self._wait_dominant_run = 0
        if self.counters.state is ConfinementState.ERROR_PASSIVE:
            self._state = STATE_PASSIVE_ERROR_FLAG
        else:
            self._state = STATE_ERROR_FLAG
        self._log(
            EventKind.ERROR_FLAG_START,
            passive=self._state == STATE_PASSIVE_ERROR_FLAG,
        )

    def _schedule_retransmission(self) -> None:
        if not self.tx_queue:
            return
        job = self.tx_queue[0]
        limit = self.config.max_retransmissions
        if limit is not None and job.attempts > limit:
            self.tx_queue.popleft()
            self._log(
                EventKind.TX_ABANDONED,
                frame=str(job.frame),
                attempts=job.attempts,
            )
            return
        self._log(
            EventKind.TX_RETRANSMIT_SCHEDULED,
            frame=str(job.frame),
            attempt=job.attempts,
        )

    def _resolve_deferred(self, accept: bool) -> None:
        """Apply a postponed accept/reject decision (MinorCAN-style)."""
        decision = self._deferred
        assert decision is not None
        self._deferred = None
        if accept:
            self._log(EventKind.DEFERRED_ACCEPT)
            if decision.was_transmitter:
                self._tx_success_during_error_frame()
            elif decision.frame is not None:
                self._rx_delivered = True
                self._frame_open = False
                self.counters.on_receive_success()
                self._record_delivery(decision.frame)
        else:
            self._log(EventKind.DEFERRED_REJECT)
            if decision.was_transmitter:
                self.counters.on_transmitter_error()
                self._schedule_retransmission()
            else:
                self.counters.on_receiver_error(primary=False)
                self._reject_received_frame(ErrorReason.EOF_LAST_BIT)
            self._confinement_check()

    def _tx_success_during_error_frame(self) -> None:
        """Count the queued frame as transmitted while signalling ends."""
        job = self.tx_queue.popleft()
        self.tx_successes.append((self.now, job.frame))
        self.counters.on_transmit_success()
        self._frame_open = False
        self._log(
            EventKind.TX_SUCCESS,
            frame=str(job.frame),
            attempt=job.attempts,
            message_id=job.frame.message_id,
            during_error_frame=True,
        )
        if self.config.self_delivery:
            self._record_delivery(job.frame, attempt=job.attempts)
        self._wire = None

    def _enter_overload(self, reactive: bool) -> None:
        self._log(EventKind.OVERLOAD_FLAG_START, reactive=reactive)
        self._flag_remaining = FLAG_LENGTH
        self._state = STATE_OVERLOAD_FLAG

    def _after_flag_complete(self) -> None:
        """The 6 flag bits are out; move to the wait-for-recessive phase."""
        if self._state in (STATE_ERROR_FLAG, STATE_PASSIVE_ERROR_FLAG):
            self._state = STATE_ERROR_WAIT
        else:
            self._state = STATE_OVERLOAD_WAIT

    # ------------------------------------------------------------------
    # EOF policies (the extension points where the protocols differ)
    # ------------------------------------------------------------------

    def _rx_eof_bit(self, index: int, seen: Level) -> None:
        """Standard CAN receiver EOF rule.

        The frame becomes valid for a receiver once the last-but-one
        EOF bit has been observed without error; a dominant level at
        the *last* EOF bit is treated as an overload condition and the
        frame is kept (the "last bit rule" of ISO 11898, responsible
        for the double receptions and inconsistent omissions that the
        paper analyses).
        """
        last = self.config.eof_length - 1
        if index < last:
            if seen is DOMINANT:
                self._enter_error(ErrorReason.EOF)
                return
            if index == last - 1:
                self._deliver_received_frame()
            return
        # Last EOF bit.
        if seen is DOMINANT:
            self._enter_overload(reactive=True)
        else:
            self._state = STATE_INTERMISSION
            self._intermission_pos = 0
            self.is_transmitter = False

    def _tx_eof_bit(self, index: int, seen: Level) -> bool:
        """Standard CAN transmitter EOF rule.

        Any dominant bit seen anywhere in the EOF — including the last
        bit — is an error: the transmitter signals and retransmits.
        Returns ``True`` when error handling was started (the caller
        must not advance the transmit position).
        """
        if seen is DOMINANT:
            self._enter_error(ErrorReason.EOF, index=index)
            return True
        return False

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _feed_parser_quietly(self, seen: Level) -> None:
        """Keep the parallel receive parser in sync while transmitting.

        The parser lets the transmitter continue as a receiver after
        losing arbitration; once it has desynchronised (which can only
        happen in error situations the transmitter detects itself) it
        is simply abandoned.
        """
        if self._parser is None or self._parser_failed:
            return
        if self._parser.complete:
            return
        try:
            step = self._parser.feed(seen)
        except Exception:
            self._parser_failed = True
            return
        if step.stuff_violation:
            self._parser_failed = True

    def _confinement_check(self) -> None:
        if self.counters.state is ConfinementState.BUS_OFF:
            self._state = STATE_BUS_OFF
            self._log(EventKind.BUS_OFF)
            return
        if self.config.disconnect_on_warning and self.counters.warning:
            self._log(EventKind.WARNING_RAISED, tec=self.counters.tec, rec=self.counters.rec)
            self.disconnect()

    def _log(self, kind: str, **data: object) -> None:
        self.events.append(Event(time=self.now, node=self.name, kind=kind, data=data))

    def __repr__(self) -> str:
        return "<%s %r state=%s tec=%d rec=%d>" % (
            type(self).__name__,
            self.name,
            self._state,
            self.counters.tec,
            self.counters.rec,
        )

    # ------------------------------------------------------------------
    # State -> handler tables
    # ------------------------------------------------------------------

    _REFERENCE_DRIVE: Dict[str, Callable[["CanController"], Level]] = {
        STATE_IDLE: _drive_idle,
        STATE_RECEIVING: _drive_receiving,
        STATE_TRANSMITTING: _drive_transmitting,
        STATE_ERROR_FLAG: _drive_error_flag,
        STATE_PASSIVE_ERROR_FLAG: _drive_passive_error_flag,
        STATE_ERROR_WAIT: _drive_error_wait,
        STATE_ERROR_DELIM: _drive_error_delim,
        STATE_OVERLOAD_FLAG: _drive_overload_flag,
        STATE_OVERLOAD_WAIT: _drive_overload_wait,
        STATE_OVERLOAD_DELIM: _drive_overload_delim,
        STATE_INTERMISSION: _drive_intermission,
        STATE_SUSPEND: _drive_suspend,
        STATE_BUS_OFF: _drive_bus_off,
    }
    _REFERENCE_BIT: Dict[str, Callable[["CanController", Level], None]] = {
        STATE_IDLE: _bit_idle,
        STATE_RECEIVING: _bit_receiving,
        STATE_TRANSMITTING: _bit_transmitting,
        STATE_ERROR_FLAG: _bit_flag,
        STATE_PASSIVE_ERROR_FLAG: _bit_flag,
        STATE_ERROR_WAIT: _bit_error_wait,
        STATE_ERROR_DELIM: _bit_error_delim,
        STATE_OVERLOAD_FLAG: _bit_flag,
        STATE_OVERLOAD_WAIT: _bit_overload_wait,
        STATE_OVERLOAD_DELIM: _bit_overload_delim,
        STATE_INTERMISSION: _bit_intermission,
        STATE_SUSPEND: _bit_suspend,
        STATE_BUS_OFF: _bit_bus_off,
    }
    #: ``(drive, on_bit)`` tables indexed by ``config.fast_path``: plain
    #: functions shared by every instance, so a controller holds no
    #: bound method of itself and dies by reference count.  The fast
    #: path swaps in the table-driven transmit/receive handlers (cached
    #: wire opcodes, fast receive parser); every other handler is the
    #: reference machine's, so every protocol extension point
    #: (_after_flag_complete, _resolve_deferred, the counters) is
    #: invoked identically.
    _HANDLERS = (
        (_REFERENCE_DRIVE, _REFERENCE_BIT),
        (
            {
                **_REFERENCE_DRIVE,
                STATE_RECEIVING: _drive_receiving_fast,
                STATE_TRANSMITTING: _drive_transmitting_fast,
            },
            {
                **_REFERENCE_BIT,
                STATE_RECEIVING: _bit_receiving_fast,
                STATE_TRANSMITTING: _bit_transmitting_fast,
            },
        ),
    )


@lru_cache(maxsize=None)
def _offline_handlers(cls: type) -> tuple:
    """The ``(drive, on_bit)`` tables of a crashed or disconnected ``cls``.

    They cover every state of the class's own ``_HANDLERS`` (so also
    the states a protocol subclass adds): the node drives recessive,
    publishes the bus-off position in bus-off and idle otherwise, and
    ignores what it sees.
    """
    states = {state for tables in cls._HANDLERS for table in tables for state in table}
    drive = dict.fromkeys(states, CanController._drive_offline)
    drive[STATE_BUS_OFF] = CanController._drive_bus_off
    return drive, dict.fromkeys(states, CanController._bit_offline)
