"""The MinorCAN protocol (Section 3 of the paper).

MinorCAN changes only the processing of errors detected in the **last
bit of the end-of-frame field**:

* errors detected *before* the last EOF bit keep the standard CAN
  behaviour (reject / retransmit);
* errors detected *after* the last EOF bit keep the standard CAN
  behaviour (accept / do not retransmit, overload condition);
* for an error detected *in* the last EOF bit, both receivers and the
  transmitter apply the same criterion, built on the ``Primary_error``
  signal that the MAC sublayer exchanges with the fault confinement
  entity: a node that observes a dominant bit right after its own error
  flag ends was the *first* to signal (primary error) — nobody had
  rejected the frame before it, so it accepts / does not retransmit.
  A node whose flag ends into a recessive bus was reacting to someone
  else's flag — some node already rejected the frame — so it rejects /
  retransmits too.

If every node detects the error in the last bit simultaneously, none of
them sees a primary error and the frame is "unnecessarily but
consistently" rejected and retransmitted, exactly as the paper notes.

MinorCAN fixes the scenarios of Fig. 1 (double reception and the
inconsistent omissions of Rufino et al.) but is defeated by the new
scenarios of Fig. 3, where an additional disturbance masks the error
flag from the transmitter and its reactive *overload* flag fakes a
primary-error indication (see ``tests/test_scenarios_fig3.py``).
"""

from __future__ import annotations

from repro.can.bits import DOMINANT, Level
from repro.can.controller import CanController, STATE_INTERMISSION
from repro.can.events import ErrorReason
from repro.can.geometry import frame_end


class MinorCanController(CanController):
    """A CAN controller implementing the MinorCAN last-bit rule.

    The deferral machinery lives in the base class
    (:meth:`CanController._resolve_deferred`): when a deferred error is
    pending, the first bit observed after the node's own error flag
    decides — dominant (primary error) means accept, recessive means
    reject.  This class only routes last-EOF-bit errors into it.

    The class overrides nothing but the ``_rx_eof_bit`` / ``_tx_eof_bit``
    extension points, which the table-driven fast path
    (``ControllerConfig.fast_path``) invokes with the same ``(index,
    seen)`` arguments as the reference state machine — MinorCAN
    therefore runs unchanged on either path.
    """

    protocol_name = "MinorCAN"
    geometry = frame_end("minorcan")

    def _rx_eof_bit(self, index: int, seen: Level) -> None:
        last = self.geometry.eof_length - 1
        if index < last:
            if seen is DOMINANT:
                self._enter_error(ErrorReason.EOF)
            # Unlike standard CAN, delivery is postponed to the end of
            # EOF: a dominant last bit may still lead to rejection.
            return
        if seen is DOMINANT:
            self._enter_error(ErrorReason.EOF_LAST_BIT, deferred=True)
            return
        self._deliver_received_frame()
        self._state = STATE_INTERMISSION
        self._intermission_pos = 0
        self.is_transmitter = False

    def _tx_eof_bit(self, index: int, seen: Level) -> bool:
        last = self.geometry.eof_length - 1
        if seen is not DOMINANT:
            return False
        if index == last:
            self._enter_error(ErrorReason.EOF_LAST_BIT, deferred=True)
        else:
            self._enter_error(ErrorReason.EOF, index=index)
        return True
