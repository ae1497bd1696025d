"""Simulation traces.

A :class:`Trace` records, for every bit time, the level each node drove,
the resolved bus level, the (possibly fault-perturbed) level each node
observed, and each node's frame-relative position.  The renderer can
reproduce the d/r timeline diagrams used in the figures of the paper.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.can.bits import Level, levels_to_string
from repro.can.events import Event
from repro.errors import TraceError


@dataclass
class BitRecord:
    """Everything observable on the bus during one bit time."""

    time: int
    bus: Level
    drives: Dict[str, Level]
    views: Dict[str, Level]
    positions: Dict[str, Tuple[str, int]]
    states: Dict[str, str]


@dataclass
class Trace:
    """Recorded simulation history."""

    record_bits: bool = True
    bits: List[BitRecord] = field(default_factory=list)
    events: List[Event] = field(default_factory=list)

    def record(self, record: BitRecord) -> None:
        """Append one bit record (no-op when bit recording is off)."""
        if self.record_bits:
            self.bits.append(record)

    def add_events(self, events: Iterable[Event]) -> None:
        """Merge controller events into the trace, keeping time order.

        The incoming batch is sorted on its own (cheap: controller
        streams arrive nearly sorted, which timsort exploits) and then
        merged with the already-sorted trace in O(n + k) — repeated
        merges no longer re-sort the full accumulated list.

        Precondition: ``self.events`` must already be time-sorted.
        That invariant holds as long as the list is only populated via
        :meth:`add_events` / :meth:`SimulationEngine.collect_events`;
        callers assigning ``trace.events`` directly must keep it sorted
        (the guard below surfaces violations before a silent bad merge).
        """
        key = operator.attrgetter("time")
        incoming = sorted(events, key=key)
        if not incoming:
            return
        if not self.events:
            self.events = incoming
            return
        existing = self.events
        if any(
            existing[i].time > existing[i + 1].time for i in range(len(existing) - 1)
        ):
            raise TraceError(
                "Trace.events is not time-sorted; it was mutated outside "
                "add_events/collect_events — sort it before merging"
            )
        self.events = list(heapq.merge(existing, incoming, key=key))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def events_of_kind(self, kind: str, node: Optional[str] = None) -> List[Event]:
        """Events matching ``kind`` (and optionally a node name)."""
        return [
            event
            for event in self.events
            if event.kind == kind and (node is None or event.node == node)
        ]

    def node_view_string(self, node: str, start: int = 0, end: Optional[int] = None) -> str:
        """The d/r string of what ``node`` observed over a time span."""
        return levels_to_string(
            record.views[node] for record in self.bits[start:end] if node in record.views
        )

    def bus_string(self, start: int = 0, end: Optional[int] = None) -> str:
        """The d/r string of the resolved bus level over a time span."""
        return levels_to_string(record.bus for record in self.bits[start:end])

    def position_times(self, node: str, field_name: str, index: int) -> List[int]:
        """Bit times at which ``node`` was at ``(field_name, index)``."""
        return [
            record.time
            for record in self.bits
            if record.positions.get(node) == (field_name, index)
        ]

    # ------------------------------------------------------------------
    # Rendering (paper-figure style)
    # ------------------------------------------------------------------

    def render_timeline(
        self,
        nodes: Iterable[str],
        start: int = 0,
        end: Optional[int] = None,
        with_bus: bool = True,
    ) -> str:
        """Render per-node observed levels as aligned d/r rows.

        The output format mirrors the figures of the paper: one row per
        node plus (optionally) the resolved bus level.
        """
        rows = []
        width = max((len(name) for name in nodes), default=3)
        width = max(width, 3)
        for name in nodes:
            rows.append(
                "%-*s | %s" % (width, name, self.node_view_string(name, start, end))
            )
        if with_bus:
            rows.append("%-*s | %s" % (width, "bus", self.bus_string(start, end)))
        return "\n".join(rows)
