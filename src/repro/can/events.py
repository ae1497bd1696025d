"""Controller event vocabulary.

Controllers log :class:`Event` records for everything observable that
the analysis layers care about: frame deliveries, rejections,
transmission successes, error flags, overload conditions, state
changes.  The property checkers (:mod:`repro.properties`) and the
metrics collectors (:mod:`repro.metrics`) consume these records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.can.frame import Frame


class EventKind:
    """String constants naming every controller event."""

    TX_START = "tx_start"
    TX_SUCCESS = "tx_success"
    TX_RETRANSMIT_SCHEDULED = "tx_retransmit_scheduled"
    TX_ABANDONED = "tx_abandoned"
    ARBITRATION_LOST = "arbitration_lost"
    RX_START = "rx_start"
    FRAME_DELIVERED = "frame_delivered"
    FRAME_REJECTED = "frame_rejected"
    ERROR_DETECTED = "error_detected"
    ERROR_FLAG_START = "error_flag_start"
    EXTENDED_FLAG_START = "extended_flag_start"
    OVERLOAD_FLAG_START = "overload_flag_start"
    PRIMARY_ERROR = "primary_error"
    SAMPLING_VERDICT = "sampling_verdict"
    DEFERRED_ACCEPT = "deferred_accept"
    DEFERRED_REJECT = "deferred_reject"
    STATE_CHANGE = "state_change"
    WARNING_RAISED = "warning_raised"
    DISCONNECTED = "disconnected"
    BUS_OFF = "bus_off"
    BUS_OFF_RECOVERED = "bus_off_recovered"
    CRASHED = "crashed"


class ErrorReason:
    """String constants for the cause recorded with error events."""

    BIT = "bit_error"
    STUFF = "stuff_error"
    CRC = "crc_error"
    FORM = "form_error"
    ACK = "ack_error"
    EOF = "eof_error"
    EOF_LAST_BIT = "eof_last_bit"
    DELIMITER = "delimiter_error"


@dataclass
class Event:
    """One timestamped controller event."""

    time: int
    node: str
    kind: str
    data: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        extras = " ".join("%s=%s" % item for item in sorted(self.data.items()))
        return "[%6d] %-12s %s %s" % (self.time, self.node, self.kind, extras)


@dataclass(frozen=True)
class Delivery:
    """One frame delivery to a node's application layer."""

    frame: Frame
    time: int
    node: str
    #: 1-based transmission attempt that produced this delivery, when
    #: known (the transmitter knows; receivers infer from the harness).
    attempt: Optional[int] = None

    def wire_key(self) -> tuple:
        """Identity of the delivered frame as observable on the wire."""
        return self.frame.wire_key()
