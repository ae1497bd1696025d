"""Deterministic, scriptable fault injection.

The paper's error model perturbs *a node's particular view of a bit*.
:class:`ScriptedInjector` applies a list of :class:`ViewFault` /
:class:`DriveFault` / :class:`CrashFault` records, each guarded by a
:class:`Trigger` that can match a bit time, a node's frame-relative
position (e.g. "the 6th bit of this node's EOF") or a MAC state.
Position triggers are the natural language of the paper's figures:
"a disturbance corrupts the last but one bit of the EOF of the nodes
belonging to X" becomes ``ViewFault("x", Trigger(field=EOF, index=5),
force=DOMINANT)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.can.bits import Level
from repro.can.controller import CanController
from repro.errors import ConfigurationError
from repro.simulation.engine import NEVER, FaultInjector


def _level_to_symbol(level: Optional[Level]) -> Optional[str]:
    return None if level is None else level.symbol


def _level_from_symbol(symbol: Optional[str]) -> Optional[Level]:
    if symbol is None:
        return None
    if symbol == "d":
        return Level.DOMINANT
    if symbol == "r":
        return Level.RECESSIVE
    raise ConfigurationError("unknown level symbol %r (expected 'd'/'r')" % symbol)


@dataclass
class Trigger:
    """Condition deciding when a fault fires.

    All provided criteria must hold simultaneously.  ``occurrence``
    selects the n-th match (1-based); a fault with ``repeat=True``
    fires on every match from that occurrence onwards.
    """

    field: Optional[str] = None
    index: Optional[int] = None
    time: Optional[int] = None
    state: Optional[str] = None
    occurrence: int = 1
    repeat: bool = False
    _matches: int = 0

    def __post_init__(self) -> None:
        if self.field is None and self.time is None and self.state is None:
            raise ConfigurationError("a trigger needs a field, time or state")
        if self.occurrence < 1:
            raise ConfigurationError("occurrence is 1-based")

    def fires(self, node: CanController, time: int) -> bool:
        """Whether the fault guarded by this trigger fires now."""
        if self.time is not None and time != self.time:
            return False
        if self.field is not None and node.position[0] != self.field:
            return False
        if self.index is not None and node.position[1] != self.index:
            return False
        if self.state is not None and node.state != self.state:
            return False
        self._matches += 1
        if self.repeat:
            return self._matches >= self.occurrence
        return self._matches == self.occurrence

    def reset(self) -> None:
        """Forget past matches (for reusing a scenario definition)."""
        self._matches = 0

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form of the trigger *condition* (no runtime state).

        Round-trips through :meth:`from_dict`; used by the trace store
        manifests and campaign logs.
        """
        return {
            "field": self.field,
            "index": self.index,
            "time": self.time,
            "state": self.state,
            "occurrence": self.occurrence,
            "repeat": self.repeat,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Trigger":
        """Rebuild a fresh (unfired) trigger from :meth:`to_dict` output."""
        return cls(
            field=data.get("field"),
            index=data.get("index"),
            time=data.get("time"),
            state=data.get("state"),
            occurrence=data.get("occurrence", 1),
            repeat=bool(data.get("repeat", False)),
        )


@dataclass
class ViewFault:
    """Corrupt the level a node observes.

    ``force`` fixes the observed level; ``force=None`` flips it.
    """

    node: str
    trigger: Trigger
    force: Optional[Level] = None
    fired_at: List[int] = field(default_factory=list)

    def apply(self, level: Level) -> Level:
        return self.force if self.force is not None else level.flipped()

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form of the fault script (no runtime state)."""
        return {
            "node": self.node,
            "trigger": self.trigger.to_dict(),
            "force": _level_to_symbol(self.force),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ViewFault":
        """Rebuild a fresh (unfired) fault from :meth:`to_dict` output."""
        return cls(
            node=data["node"],
            trigger=Trigger.from_dict(data["trigger"]),
            force=_level_from_symbol(data.get("force")),
        )


@dataclass
class DriveFault:
    """Corrupt the level a node physically drives (transmit-side fault)."""

    node: str
    trigger: Trigger
    force: Optional[Level] = None
    fired_at: List[int] = field(default_factory=list)

    def apply(self, level: Level) -> Level:
        return self.force if self.force is not None else level.flipped()

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form of the fault script (no runtime state)."""
        return {
            "node": self.node,
            "trigger": self.trigger.to_dict(),
            "force": _level_to_symbol(self.force),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DriveFault":
        """Rebuild a fresh (unfired) fault from :meth:`to_dict` output."""
        return cls(
            node=data["node"],
            trigger=Trigger.from_dict(data["trigger"]),
            force=_level_from_symbol(data.get("force")),
        )


@dataclass
class CrashFault:
    """Fail-silent crash of a node (used by the Fig. 1c scenario)."""

    node: str
    trigger: Trigger
    fired_at: List[int] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form of the fault script (no runtime state)."""
        return {"node": self.node, "trigger": self.trigger.to_dict()}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CrashFault":
        """Rebuild a fresh (unfired) fault from :meth:`to_dict` output."""
        return cls(node=data["node"], trigger=Trigger.from_dict(data["trigger"]))


class ScriptedInjector(FaultInjector):
    """Apply a fixed script of deterministic faults."""

    def __init__(
        self,
        view_faults: Sequence[ViewFault] = (),
        drive_faults: Sequence[DriveFault] = (),
        crash_faults: Sequence[CrashFault] = (),
    ) -> None:
        self.view_faults = list(view_faults)
        self.drive_faults = list(drive_faults)
        self.crash_faults = list(crash_faults)

    # ------------------------------------------------------------------
    # FaultInjector interface
    # ------------------------------------------------------------------

    def on_bit_start(self, time: int, nodes: Sequence[CanController]) -> None:
        if not self.crash_faults:
            return
        by_name: Dict[str, CanController] = {node.name: node for node in nodes}
        for fault in self.crash_faults:
            node = by_name.get(fault.node)
            if node is None or node.crashed:
                continue
            if fault.trigger.fires(node, time):
                fault.fired_at.append(time)
                node.crash()

    def perturb_drive(self, node: CanController, time: int, level: Level) -> Level:
        for fault in self.drive_faults:
            if fault.node == node.name and fault.trigger.fires(node, time):
                fault.fired_at.append(time)
                level = fault.apply(level)
        return level

    def perturb_view(self, node: CanController, time: int, bus_level: Level) -> Level:
        level = bus_level
        for fault in self.view_faults:
            if fault.node == node.name and fault.trigger.fires(node, time):
                fault.fired_at.append(time)
                level = fault.apply(level)
        return level

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------

    @property
    def total_fired(self) -> int:
        """Number of fault activations so far (all kinds)."""
        faults = self.view_faults + self.drive_faults + self.crash_faults
        return sum(len(fault.fired_at) for fault in faults)

    def all_fired(self) -> bool:
        """Whether every scripted fault has fired at least once."""
        faults = self.view_faults + self.drive_faults + self.crash_faults
        return all(fault.fired_at for fault in faults)

    # ------------------------------------------------------------------
    # Serialization (trace store manifests, campaign logs)
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form of the whole fault script.

        Only the *configuration* is serialized — trigger match counts
        and ``fired_at`` logs are runtime state and deliberately
        dropped, so a deserialized injector is always fresh.
        """
        return {
            "kind": "scripted",
            "view_faults": [fault.to_dict() for fault in self.view_faults],
            "drive_faults": [fault.to_dict() for fault in self.drive_faults],
            "crash_faults": [fault.to_dict() for fault in self.crash_faults],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScriptedInjector":
        """Rebuild a fresh injector from :meth:`to_dict` output."""
        kind = data.get("kind", "scripted")
        if kind != "scripted":
            raise ConfigurationError(
                "cannot rebuild a ScriptedInjector from kind %r" % kind
            )
        return cls(
            view_faults=[ViewFault.from_dict(f) for f in data.get("view_faults", ())],
            drive_faults=[DriveFault.from_dict(f) for f in data.get("drive_faults", ())],
            crash_faults=[CrashFault.from_dict(f) for f in data.get("crash_faults", ())],
        )


def injector_from_dict(data: Dict[str, Any]) -> "ScriptedInjector":
    """Rebuild an injector from its serialized form.

    Currently only ``kind == "scripted"`` scripts round-trip; the random
    injectors are reconstructed from their seeds by the workloads that
    own them, not by the trace store.
    """
    kind = data.get("kind")
    if kind == "scripted":
        return ScriptedInjector.from_dict(data)
    raise ConfigurationError("unknown serialized injector kind %r" % kind)


class CompositeInjector(FaultInjector):
    """Chain several injectors (e.g. a scripted scenario plus noise)."""

    def __init__(self, injectors: Sequence[FaultInjector]) -> None:
        self.injectors = list(injectors)

    @property
    def next_view_tick(self) -> int:
        return min(
            (injector.next_view_tick for injector in self.injectors), default=NEVER
        )

    def bind(self, nodes: Sequence[CanController]) -> None:
        for injector in self.injectors:
            injector.bind(nodes)

    def on_bit_start(self, time: int, nodes: Sequence[CanController]) -> None:
        for injector in self.injectors:
            injector.on_bit_start(time, nodes)

    def perturb_drive(self, node: CanController, time: int, level: Level) -> Level:
        for injector in self.injectors:
            level = injector.perturb_drive(node, time, level)
        return level

    def perturb_view(self, node: CanController, time: int, bus_level: Level) -> Level:
        for injector in self.injectors:
            bus_level = injector.perturb_view(node, time, bus_level)
        return bus_level
