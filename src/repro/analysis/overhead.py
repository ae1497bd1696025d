"""Communication overhead of MajorCAN_m versus standard CAN (Section 5).

Analytical claims of the paper:

* **best case** (no errors during EOF): the EOF grows from 7 to 2m
  bits, so the overhead is ``2m - 7`` bits (3 bits for m = 5);
* **worst case** (errors during the last m bits of EOF): the frame is
  extended ``2m - 2`` bits more, a total of ``4m - 9`` bits (11 bits
  for m = 5).

The worst case is realised when a node detects an error in the first
bit of the second sub-field (EOF bit m+1): MajorCAN then occupies the
bus until EOF-relative bit ``3m + 5`` plus a ``2m + 1``-bit delimiter,
whereas standard CAN at the same position would emit a 6-bit flag plus
an 8-bit delimiter (and then pay a *whole retransmitted frame*, which
is exactly the cost MajorCAN avoids and the paper's accounting
excludes).

:func:`measured_overhead` validates both formulas by simulation: it
measures real bus occupancy of frame slots with the bit-level
controllers, which is the reproduction's executable check of the
Section 5/6 arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.can.bits import DOMINANT
from repro.can.controller import CanController
from repro.can.fields import EOF, INTERMISSION
from repro.can.frame import Frame, data_frame
from repro.core.majorcan import MajorCanController
from repro.errors import AnalysisError
from repro.faults.injector import ScriptedInjector, Trigger, ViewFault
from repro.faults.scenarios import run_single_frame_scenario


def best_case_overhead_bits(m: int) -> int:
    """Error-free MajorCAN_m overhead versus standard CAN: ``2m - 7``."""
    if m < 3:
        raise AnalysisError("MajorCAN needs m >= 3")
    return 2 * m - 7


def worst_case_overhead_bits(m: int) -> int:
    """Worst-case MajorCAN_m overhead versus standard CAN: ``4m - 9``."""
    if m < 3:
        raise AnalysisError("MajorCAN needs m >= 3")
    return 4 * m - 9


def worst_case_extension_bits(m: int) -> int:
    """Extra extension over the best case in the worst case: ``2m - 2``."""
    return worst_case_overhead_bits(m) - best_case_overhead_bits(m)


@dataclass
class MeasuredOverhead:
    """Frame-slot lengths measured on the simulated bus."""

    can_clean_slot: int
    majorcan_clean_slot: int
    can_error_slot: int
    majorcan_error_slot: int

    @property
    def best_case(self) -> int:
        """Measured error-free overhead (should equal ``2m - 7``)."""
        return self.majorcan_clean_slot - self.can_clean_slot

    @property
    def worst_case(self) -> int:
        """Measured worst-case overhead (should equal ``4m - 9``)."""
        return self.majorcan_error_slot - self.can_error_slot


def _slot_length(
    make_node,
    frame: Frame,
    error_eof_index: Optional[int] = None,
) -> int:
    """Bits from SOF to the start of the first intermission.

    ``error_eof_index`` optionally injects a dominant disturbance into
    the view of *every* node at that EOF bit, so all nodes flag
    simultaneously — the paper's single-error-frame accounting (a
    staggered reaction flag would add one bit).  For error slots the
    length deliberately stops at the intermission: a standard-CAN
    retransmission that follows is the cost MajorCAN saves, and the
    paper's overhead accounting excludes it.
    """
    names = ("tx", "ra", "rb")
    faults = []
    if error_eof_index is not None:
        faults = [
            ViewFault(name, Trigger(field=EOF, index=error_eof_index), force=DOMINANT)
            for name in names
        ]
    outcome = run_single_frame_scenario(
        "slot",
        [make_node(name) for name in names],
        ScriptedInjector(view_faults=faults),
        frame=frame,
    )
    starts = outcome.trace.position_times("tx", INTERMISSION, 0)
    if not starts:
        raise AnalysisError("transmitter never reached the intermission")
    return starts[0]


def measured_overhead(m: int = 5, payload: bytes = b"\x55") -> MeasuredOverhead:
    """Measure the best- and worst-case overhead on the simulated bus.

    The worst case places the receiver's disturbance at EOF bit
    ``m + 1`` (MajorCAN: first bit of the second sub-field, extended
    flag; standard CAN at its corresponding relative position: one bit
    short of the last, a plain error frame).
    """
    if not 3 <= m <= 5:
        raise AnalysisError(
            "the measured worst case needs the disturbance position "
            "(EOF bit m+1) to exist inside standard CAN's 7-bit EOF, "
            "so m must be in [3, 5]; use the formulas for larger m"
        )
    frame = data_frame(0x123, payload, message_id="ov")
    can_clean = _slot_length(CanController, frame)
    major_clean = _slot_length(lambda name: MajorCanController(name, m=m), frame)
    can_error = _slot_length(CanController, frame, error_eof_index=m)
    major_error = _slot_length(
        lambda name: MajorCanController(name, m=m), frame, error_eof_index=m
    )
    return MeasuredOverhead(
        can_clean_slot=can_clean,
        majorcan_clean_slot=major_clean,
        can_error_slot=can_error,
        majorcan_error_slot=major_error,
    )


def higher_level_protocol_overhead_bits(frame_bits: int, receivers: int) -> dict:
    """Per-message overhead of the FTCS'98 protocols, in bits.

    All three require transmitting at least one extra CAN frame per
    message, which dwarfs MajorCAN's handful of bits:

    * EDCAN: every receiver retransmits the message once;
    * RELCAN: one CONFIRM frame after the data frame;
    * TOTCAN: one ACCEPT frame after the data frame.

    Control frames are conservatively counted at the minimal data-frame
    length (47 bits for a 0-byte payload, ignoring stuffing).
    """
    minimal_frame = 47
    return {
        "EDCAN": receivers * frame_bits,
        "RELCAN": minimal_frame,
        "TOTCAN": minimal_frame,
    }
