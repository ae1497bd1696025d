"""Controller configuration.

A :class:`ControllerConfig` holds the options a caller chooses per
node: the dependability options studied in the paper and the choice of
transmit/receive implementation.  The frame-end geometry (EOF and
delimiter lengths) is not among them: it follows from the protocol and
``m`` (:func:`repro.can.geometry.frame_end`), and each controller class
reads it from there.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ControllerConfig:
    """Static configuration of a CAN-family controller.

    Parameters
    ----------
    disconnect_on_warning:
        The paper's §2 recommendation: switch the node off when an
        error counter reaches the warning limit (96), guaranteeing that
        no node ever operates in the error-passive state.
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

    disconnect_on_warning: bool = False
    bus_off_recovery: bool = False
    fast_path: bool = True
