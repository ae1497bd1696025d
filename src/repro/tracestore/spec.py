"""Rebuildable scenario specifications.

A :class:`ScenarioSpec` is the plain-data description of one
single-frame scenario run: the node set (per-node protocol variant and
``m``), the transmitted frame, the serialized fault-injection script,
and the engine configuration.  It is exactly what a recording's
manifest stores, and :meth:`ScenarioSpec.run` is how the replayer turns
a manifest back into live behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.can.frame import Frame
from repro.can.identifiers import CanId
from repro.core.majorcan import DEFAULT_M
from repro.errors import TraceStoreError
from repro.faults.injector import ScriptedInjector, injector_from_dict
from repro.faults import scenarios
from repro.tracestore.schema import SCHEMA_VERSION


def frame_to_dict(frame: Frame) -> Dict[str, Any]:
    """Serialize a frame to the manifest's plain-dict form."""
    return {
        "id": frame.can_id.value,
        "extended": frame.can_id.extended,
        "remote": frame.remote,
        "dlc": frame.dlc,
        "data": frame.data.hex(),
        "message_id": frame.message_id,
        "origin": frame.origin,
    }


def frame_from_dict(data: Dict[str, Any]) -> Frame:
    """Rebuild a frame from :func:`frame_to_dict` output."""
    return Frame(
        can_id=CanId(data["id"], extended=bool(data.get("extended", False))),
        data=bytes.fromhex(data.get("data", "")),
        remote=bool(data.get("remote", False)),
        dlc=data.get("dlc"),
        message_id=data.get("message_id"),
        origin=data.get("origin"),
    )


#: One attached controller: (name, protocol registry key, m or None).
NodeSpec = Tuple[str, str, Optional[int]]


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to re-run one recorded single-frame scenario."""

    name: str
    nodes: Tuple[NodeSpec, ...]
    frame: Frame
    injector: Dict[str, Any] = field(default_factory=dict)
    max_bits: int = 20000
    record_bits: bool = True

    # ------------------------------------------------------------------
    # Manifest round-trip
    # ------------------------------------------------------------------

    def to_manifest(self, meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """The manifest line for this spec (see :mod:`..schema`)."""
        manifest: Dict[str, Any] = {
            "type": "manifest",
            "version": SCHEMA_VERSION,
            "name": self.name,
            "nodes": [
                {"name": name, "protocol": protocol, "m": m}
                for name, protocol, m in self.nodes
            ],
            "frame": frame_to_dict(self.frame),
            "injector": dict(self.injector),
            "engine": {"max_bits": self.max_bits, "record_bits": self.record_bits},
        }
        if meta:
            manifest["meta"] = meta
        return manifest

    @classmethod
    def from_manifest(cls, manifest: Dict[str, Any]) -> "ScenarioSpec":
        """Rebuild the spec from a recording's manifest line."""
        version = manifest.get("version")
        if version != SCHEMA_VERSION:
            raise TraceStoreError(
                "cannot rebuild a scenario from schema version %r (supported: %d)"
                % (version, SCHEMA_VERSION)
            )
        try:
            nodes = tuple(
                (node["name"], node["protocol"], node.get("m"))
                for node in manifest["nodes"]
            )
            frame = frame_from_dict(manifest["frame"])
            engine = manifest.get("engine", {})
            return cls(
                name=manifest["name"],
                nodes=nodes,
                frame=frame,
                injector=dict(manifest.get("injector", {})),
                max_bits=int(engine.get("max_bits", 20000)),
                record_bits=bool(engine.get("record_bits", True)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceStoreError("malformed manifest: %s" % exc)

    # ------------------------------------------------------------------
    # Rebuilding live objects
    # ------------------------------------------------------------------

    def build_nodes(self):
        """Instantiate fresh controllers (first entry is the transmitter)."""
        return [
            scenarios.make_controller(
                protocol, name, m=m if m is not None else DEFAULT_M
            )
            for name, protocol, m in self.nodes
        ]

    def build_injector(self):
        """Instantiate a fresh (unfired) injector from the stored script."""
        if not self.injector:
            return ScriptedInjector()
        return injector_from_dict(self.injector)

    def run(self):
        """Re-run the scenario; returns a fresh ``ScenarioOutcome``."""
        return scenarios.run_single_frame_scenario(
            self.name,
            self.build_nodes(),
            self.build_injector(),
            frame=self.frame,
            max_bits=self.max_bits,
            record_bits=self.record_bits,
        )


def spec_from_outcome(outcome, max_bits: int = 20000) -> ScenarioSpec:
    """Derive the rebuildable spec of a completed scenario run.

    Works for any outcome produced by ``run_single_frame_scenario``
    whose injector serializes (a :class:`ScriptedInjector` script); the
    random injectors are out of scope for the trace store — record the
    seeded workload parameters instead.
    """
    engine = outcome.engine
    if engine is None:
        raise TraceStoreError("outcome %r carries no engine" % outcome.name)
    if outcome.frame is None:
        raise TraceStoreError("outcome %r carries no frame" % outcome.name)
    injector = engine.injector
    to_dict = getattr(injector, "to_dict", None)
    if to_dict is None:
        raise TraceStoreError(
            "injector %s does not serialize; only scripted scenarios are "
            "recordable" % type(injector).__name__
        )
    nodes = tuple(
        (node.name, type(node).protocol_name.lower(), getattr(node, "m", None))
        for node in engine.nodes
    )
    return ScenarioSpec(
        name=outcome.name,
        nodes=nodes,
        frame=outcome.frame,
        injector=to_dict(),
        max_bits=max_bits,
        record_bits=outcome.trace.record_bits,
    )
