"""Controller configuration.

A :class:`ControllerConfig` bundles the protocol-variant parameters
(EOF length, delimiter length) with the dependability options studied
in the paper (disconnect-on-warning, self-delivery for Atomic
Broadcast accounting).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.can.fields import STANDARD_DELIMITER_LENGTH, STANDARD_EOF_LENGTH
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ControllerConfig:
    """Static configuration of a CAN-family controller.

    Parameters
    ----------
    eof_length:
        Length of the end-of-frame field (7 in standard CAN and
        MinorCAN; ``2 * m`` in MajorCAN_m).
    delimiter_length:
        Total length of the error/overload delimiter, including the
        first detected recessive bit (8 in standard CAN; ``2 * m + 1``
        in MajorCAN_m, matching the frame tail for synchronisation).
    disconnect_on_warning:
        The paper's §2 recommendation: switch the node off when an
        error counter reaches the warning limit (96), guaranteeing that
        no node ever operates in the error-passive state.
    self_delivery:
        Whether a successful transmission counts as a delivery to the
        transmitting node itself.  The Atomic Broadcast checkers rely
        on this: a transmitter that believes the frame went out while a
        receiver rejected it is precisely an inconsistent omission.
    max_retransmissions:
        Optional bound on automatic retransmission attempts per frame
        (``None`` reproduces the standard unbounded behaviour).
    bus_off_recovery:
        Whether a bus-off node rejoins after monitoring 128 occurrences
        of 11 consecutive recessive bits (the optional ISO 11898
        recovery sequence).  Off by default: the paper treats bus-off
        as a crash within the reference interval.
    fast_path:
        Whether the ``transmitting``/``receiving`` states run the
        compiled transmit program and the allocation-free receive
        parser; every other state has one handler set shared by both
        settings.  The behaviour is bit-identical to the reference
        transmit/receive path — ``tests/test_controller_fastpath.py``
        and ``make corpus-check`` enforce it — so this stays on by
        default; set it to ``False`` to run the branchy reference
        encoder and parser (differential testing, debugging).
    """

    eof_length: int = STANDARD_EOF_LENGTH
    delimiter_length: int = STANDARD_DELIMITER_LENGTH
    disconnect_on_warning: bool = False
    self_delivery: bool = True
    max_retransmissions: Optional[int] = None
    bus_off_recovery: bool = False
    fast_path: bool = True

    def __post_init__(self) -> None:
        if self.eof_length < 2:
            raise ConfigurationError("EOF must be at least 2 bits long")
        if self.delimiter_length < 2:
            raise ConfigurationError("delimiter must be at least 2 bits long")
        if self.max_retransmissions is not None and self.max_retransmissions < 0:
            raise ConfigurationError("max_retransmissions must be >= 0")
