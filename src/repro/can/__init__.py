"""Bit-accurate standard CAN data-link layer.

Public entry points:

* :class:`~repro.can.frame.Frame` / :class:`~repro.can.identifiers.CanId`
  — the application-visible frame model;
* :class:`~repro.can.controller.CanController` — the MAC state machine
  attached to a simulated bus node;
* :class:`~repro.can.controller_config.ControllerConfig` — per-node
  configuration (dependability options, fast path);
* :mod:`~repro.can.crc`, :mod:`~repro.can.stuffing`,
  :mod:`~repro.can.encoding`, :mod:`~repro.can.parser` — the wire
  format building blocks;
* :mod:`~repro.can.geometry` — the frame-end geometry of every
  protocol variant (tail layout, EOF and delimiter lengths, MajorCAN's
  sampling window), declared once.
"""

from repro._namespace import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "bits": ("DOMINANT", "RECESSIVE", "Level", "wired_and"),
        "controller": (
            "CanController", "STATE_BUS_OFF", "STATE_ERROR_DELIM", "STATE_ERROR_FLAG",
            "STATE_ERROR_WAIT", "STATE_IDLE", "STATE_INTERMISSION", "STATE_OVERLOAD_FLAG",
            "STATE_RECEIVING", "STATE_SUSPEND", "STATE_TRANSMITTING", "TxJob",
        ),
        "controller_config": ("ControllerConfig",),
        "encoding": ("WireFrame", "encode_frame"),
        "error_counters": ("ConfinementState", "ErrorCounters"),
        "events": ("Delivery", "ErrorReason", "Event", "EventKind"),
        "frame": ("Frame", "data_frame", "remote_frame"),
        "geometry": ("FrameEnd", "frame_end", "tail_positions"),
        "identifiers": ("CanId",),
        "parser": ("FrameParser",),
        "timing": ("BitTiming", "classic_1mbps", "timing_for_bit_rate"),
    },
)
