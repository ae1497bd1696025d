"""The shared bus medium.

A CAN bus is a wired-AND channel: the bus carries a dominant level
whenever at least one node drives dominant.  :class:`Bus` resolves the
levels driven by all nodes each bit time and keeps a short history for
traces and tests.
"""

from __future__ import annotations

from typing import Dict, List

from repro.can.bits import Level, levels_to_string, wired_and


class Bus:
    """Wired-AND resolution of per-node drive levels."""

    def __init__(self) -> None:
        self.history: List[Level] = []

    def resolve(self, drives: Dict[str, Level]) -> Level:
        """Combine one bit time's drive levels into the bus level."""
        level = wired_and(drives.values())
        self.history.append(level)
        return level

    @property
    def time(self) -> int:
        """Number of bit times resolved so far."""
        return len(self.history)

    def idle_tail(self) -> int:
        """Length of the trailing run of recessive bits on the bus."""
        count = 0
        for level in reversed(self.history):
            if level is not Level.RECESSIVE:
                break
            count += 1
        return count

    def as_string(self, start: int = 0, end: int = None) -> str:
        """Render a slice of the bus history as a ``d``/``r`` string."""
        return levels_to_string(self.history[start:end])
