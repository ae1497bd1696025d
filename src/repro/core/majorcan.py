"""The MajorCAN_m protocol (Section 5 of the paper).

MajorCAN restructures the end of every frame so that the accept/reject
decision tolerates up to ``m`` randomly distributed single-bit errors
per frame:

* the EOF field becomes ``2m`` recessive bits split into two ``m``-bit
  sub-fields;
* the error (and overload) delimiter becomes ``2m + 1`` recessive bits,
  matching the frame tail (ACK delimiter + EOF) so nodes can always
  resynchronise;
* a node detecting an error in the **second sub-field** (EOF bits
  ``m+1 .. 2m``) *accepts* the frame and notifies everyone with an
  **extended error flag** that keeps the bus dominant through
  EOF-relative bit ``3m + 5``;
* a node detecting an error in the **first sub-field** (EOF bits
  ``1 .. m``) sends a normal 6-bit error flag and then **samples** the
  ``2m - 1`` bits from ``m + 7`` to ``3m + 5``, majority-voting on
  them: a dominant majority means some node is notifying acceptance,
  so it accepts too; otherwise it rejects (and the transmitter
  retransmits);
* a node whose error flag starts at the first EOF bit or earlier (CRC
  errors, form errors at the ACK delimiter, ACK errors) must *never*
  accept: it signals, rejects, performs no sampling — and, because the
  first sub-field is ``m`` bits long, no other node can first detect
  its flag inside the second sub-field even with ``m - 1`` masking
  errors;
* a *second* error detected during the EOF window and the extended
  flags is never signalled with an additional flag (it would spoil the
  agreement process) — in this implementation the property holds
  structurally, because nodes inside the EOF schedule only sample;
* errors detected after the last EOF bit keep the standard behaviour
  (overload condition).

The paper's proposal is ``m = 5``, matching the error-detection
strength of the CAN CRC-15; the class is parametric in ``m >= 3``.
The per-frame overhead versus standard CAN is ``2m - 7`` bits when the
EOF is error-free and up to ``4m - 9`` bits in the worst case
(3 and 11 bits respectively for ``m = 5``); see
:mod:`repro.analysis.overhead`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.can.bits import DOMINANT, RECESSIVE, Level
from repro.can.controller import (
    CanController,
    STATE_ERROR_WAIT,
    STATE_INTERMISSION,
)
from repro.can.controller_config import ControllerConfig
from repro.can.encoding import signal_table
from repro.can.events import ErrorReason, EventKind
from repro.can.fields import FLAG_LENGTH
from repro.can.frame import Frame
from repro.can.geometry import DEFAULT_M, EOF_OFFSET, TAIL_PREFIX, frame_end
from repro.errors import ConfigurationError

#: MAC states added by MajorCAN.
STATE_MAJOR_FLAG = "major_flag"
STATE_MAJOR_QUIET = "major_quiet"
STATE_MAJOR_EXTENDED_FLAG = "major_extended_flag"

#: EOF-relative clock of each tail bit before the EOF (EOF bit ``k`` is
#: clock ``k``, 1-based).
_TAIL_CLOCKS = {
    field: offset - EOF_OFFSET + 1 for offset, (field, _) in enumerate(TAIL_PREFIX)
}


def _with_states(handlers, drive, bit):
    """Each ``(drive, on_bit)`` table pair of ``handlers`` extended by
    the ``drive`` and ``bit`` entries."""
    return tuple(
        ({**base_drive, **drive}, {**base_bit, **bit}) for base_drive, base_bit in handlers
    )


def majorcan_config(m: int = DEFAULT_M, **overrides: object) -> ControllerConfig:
    """Build the :class:`ControllerConfig` for MajorCAN_m: the EOF and
    delimiter lengths of :func:`repro.can.geometry.frame_end`."""
    geometry = frame_end("majorcan", m)
    return ControllerConfig(
        eof_length=geometry.eof_length,
        delimiter_length=geometry.delimiter_length,
        **overrides,  # type: ignore[arg-type]
    )


class MajorCanController(CanController):
    """A CAN controller implementing the MajorCAN_m agreement rules.

    The agreement machinery plugs into the base class exclusively
    through the ``_rx_eof_bit`` / ``_tx_eof_bit`` extension points, the
    ``_enter_error`` override, and the extra MAC states its class adds
    to both handler tables — all of which the table-driven fast path
    (``ControllerConfig.fast_path``) reaches exactly as the reference
    transmit/receive path does.  ``_handle_eof_error`` reads only the
    ``header_complete`` / ``frame()`` surface of the receive parser,
    which :class:`repro.can.parser.FastFrameParser` provides with
    identical timing; error signalling and the sampling window run on
    one handler set under either setting.
    """

    protocol_name = "MajorCAN"

    def __init__(
        self,
        name: str,
        m: int = DEFAULT_M,
        config: Optional[ControllerConfig] = None,
    ) -> None:
        geometry = frame_end("majorcan", m)
        if config is None:
            config = majorcan_config(m)
        elif (config.eof_length, config.delimiter_length) != (
            geometry.eof_length,
            geometry.delimiter_length,
        ):
            raise ConfigurationError(
                "MajorCAN_%d needs eof_length=%d and delimiter_length=%d"
                % (m, geometry.eof_length, geometry.delimiter_length)
            )
        super().__init__(name, config)
        self.m = m
        #: The sampling window: first and last sampled EOF-relative bit
        #: (the last is also where any extended error flag ends), and
        #: the dominant samples needed to accept.
        self.window_start = geometry.window_start
        self.window_end = geometry.window_end
        self.majority = geometry.majority
        #: EOF-relative (1-based) index of the bit most recently
        #: processed, valid while the EOF agreement schedule is active.
        self._eof_clock = 0
        self._eof_schedule = False
        self._sampling = False
        self._samples: List[Level] = []
        self._major_was_transmitter = False
        self._major_frame: Optional[Frame] = None
        # Extend the signal table with the sampling window and the
        # extended-flag span.
        self._signal_table = signal_table(
            self.config.delimiter_length, extended_flag_end=self.window_end
        )

    # ------------------------------------------------------------------
    # EOF policies
    # ------------------------------------------------------------------

    def _rx_eof_bit(self, index: int, seen: Level) -> None:
        if seen is DOMINANT:
            self._handle_eof_error(index)
            return
        if index == self.config.eof_length - 1:
            self._deliver_received_frame()
            self._state = STATE_INTERMISSION
            self._intermission_pos = 0
            self.is_transmitter = False

    def _tx_eof_bit(self, index: int, seen: Level) -> bool:
        if seen is DOMINANT:
            self._handle_eof_error(index)
            return True
        return False

    def _handle_eof_error(self, index: int) -> None:
        """Dominant level observed at EOF bit ``index`` (0-based)."""
        k = index + 1
        self._eof_schedule = True
        self._eof_clock = k
        self._major_was_transmitter = self.is_transmitter
        self._major_frame = None
        if not self.is_transmitter and self._parser is not None:
            if self._parser.header_complete:
                self._major_frame = self._parser.frame()
        self._log(
            EventKind.ERROR_DETECTED,
            reason=ErrorReason.EOF,
            position="EOF[%d]" % index,
            subfield=1 if k <= self.m else 2,
        )
        if k <= self.m:
            # First sub-field: signal with a normal flag, then sample.
            self._sampling = True
            self._samples = []
            self._flag_remaining = FLAG_LENGTH
            self._state = STATE_MAJOR_FLAG
            self._log(EventKind.ERROR_FLAG_START, passive=False)
        else:
            # Second sub-field: accept now, notify with an extended flag.
            self._sampling = False
            self._apply_verdict(accept=True)
            self._state = STATE_MAJOR_EXTENDED_FLAG
            self._log(EventKind.EXTENDED_FLAG_START, until=self.window_end)

    def _enter_error(self, reason: str, deferred: bool = False, **extra: object) -> None:
        """Route never-accept errors at the frame end into the EOF schedule.

        Any error detected in the frame tail — a CRC error (flag at EOF
        bit 1), a form or bit error at the CRC/ACK delimiters, an ACK
        error — must reject the frame, but the node still has to stay
        on the common EOF timeline: other nodes may be sampling until
        bit ``3m + 5``, and both starting the delimiter early and
        signalling a *second* error during the window would spoil the
        agreement process (the flag would be mistaken for an extended
        acceptance flag).  Errors detected before the frame tail use
        the plain error-frame schedule, which every node then shares.
        """
        position_field = self.position[0]
        at_frame_tail = (
            reason in (ErrorReason.CRC, ErrorReason.ACK)
            or position_field in _TAIL_CLOCKS
        )
        super()._enter_error(reason, deferred=deferred, **extra)
        if at_frame_tail and self._state == "error_flag":
            self._eof_schedule = True
            self._eof_clock = _TAIL_CLOCKS.get(position_field, 0)
            self._sampling = False
            self._state = STATE_MAJOR_FLAG

    # ------------------------------------------------------------------
    # MajorCAN states
    # ------------------------------------------------------------------

    def _bit_major_flag(self, seen: Level) -> None:
        self._eof_clock += 1
        self._flag_remaining -= 1
        if self._flag_remaining <= 0:
            self._state = STATE_MAJOR_QUIET

    def _drive_major_quiet(self) -> Level:
        self.position = self._signal_table.sampling[self._eof_clock + 1]
        return RECESSIVE

    def _bit_major_quiet(self, seen: Level) -> None:
        self._eof_clock += 1
        if self._sampling and self.window_start <= self._eof_clock <= self.window_end:
            self._samples.append(seen)
        if self._eof_clock >= self.window_end:
            if self._sampling:
                dominant_votes = sum(
                    1 for sample in self._samples if sample is DOMINANT
                )
                accept = dominant_votes >= self.majority
                self._log(
                    EventKind.SAMPLING_VERDICT,
                    dominant=dominant_votes,
                    samples=len(self._samples),
                    accept=accept,
                )
                self._apply_verdict(accept=accept)
                self._sampling = False
            self._enter_major_epilogue()

    def _drive_extended_flag(self) -> Level:
        self.position = self._signal_table.extended_flag[self._eof_clock + 1]
        return DOMINANT

    def _bit_extended_flag(self, seen: Level) -> None:
        self._eof_clock += 1
        if self._eof_clock >= self.window_end:
            self._enter_major_epilogue()

    def _enter_major_epilogue(self) -> None:
        """Join the common delimiter after the agreement window ends."""
        self._eof_schedule = False
        self._wait_first_bit = False
        self._wait_dominant_run = 0
        self._state = STATE_ERROR_WAIT

    # ------------------------------------------------------------------
    # Verdicts
    # ------------------------------------------------------------------

    def _apply_verdict(self, accept: bool) -> None:
        if accept:
            self._log(EventKind.DEFERRED_ACCEPT)
            if self._major_was_transmitter:
                self._tx_success_during_error_frame()
            elif self._major_frame is not None:
                self._rx_delivered = True
                self._frame_open = False
                self.counters.on_receive_success()
                self._record_delivery(self._major_frame)
        else:
            self._log(EventKind.DEFERRED_REJECT)
            if self._major_was_transmitter:
                self.counters.on_transmitter_error()
                self._schedule_retransmission()
            else:
                self.counters.on_receiver_error(primary=False)
                self._reject_received_frame(ErrorReason.EOF)
            self._confinement_check()

    def _after_flag_complete(self) -> None:
        """Flags sent under the EOF schedule fall through to quiet."""
        if self._eof_schedule and self._state in (
            "error_flag",
            "passive_error_flag",
        ):
            self._state = STATE_MAJOR_QUIET
            return
        super()._after_flag_complete()

    # The agreement schedule's first flag is a plain 6-bit error flag.
    _HANDLERS = _with_states(
        CanController._HANDLERS,
        drive={
            STATE_MAJOR_FLAG: CanController._drive_error_flag,
            STATE_MAJOR_QUIET: _drive_major_quiet,
            STATE_MAJOR_EXTENDED_FLAG: _drive_extended_flag,
        },
        bit={
            STATE_MAJOR_FLAG: _bit_major_flag,
            STATE_MAJOR_QUIET: _bit_major_quiet,
            STATE_MAJOR_EXTENDED_FLAG: _bit_extended_flag,
        },
    )
