"""Specification of a steady-state traffic run.

A :class:`TrafficSpec` is the complete experiment identity of a
multi-frame run: the node/protocol matrix, the workload parameters,
the time-window partition used for sharding, and the sustained fault
regime.  Every observable of the run — the submission schedule, the
spliced bus trace, the message ledger, the AB1–AB5 verdicts — is a
deterministic function of this spec, which is why the v2 trace
manifest embeds it verbatim: a recording replays bit-identically from
the manifest alone (``repro.traffic.recording``).

The window partition is deliberately part of the spec rather than a
runtime tuning knob: windows are the unit of sharding over
``repro.parallel``, and changing the partition changes where engines
restart from idle, hence the trace.  Keeping it in the experiment
identity is what makes ``--jobs 1`` and ``--jobs N`` bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, Optional, Tuple

from repro.can.geometry import PROTOCOL_NAMES
from repro.errors import ConfigurationError, TraceStoreError
from repro.tracestore.schema import TRAFFIC_SCHEMA_VERSION

#: CAN-identifier base for traffic data frames.  Matches the HLP DATA
#: id base, so the origin node index is always ``identifier - ID_BASE``.
ID_BASE = 0x100

#: Workload families: fixed-period submissions, or a Bernoulli trial
#: per bit time (Poisson-like).
SOURCES = ("periodic", "poisson")
_HLPS = ("edcan", "relcan", "totcan")

#: Wire-encoding sequence-number capacities: the traffic payload
#: carries a 16-bit little-endian sequence, the HLP header a mod-256
#: byte.  ``build_schedule`` refuses schedules that would wrap.
CAN_SEQ_CAP = 1 << 16
HLP_SEQ_CAP = 1 << 8


@dataclass(frozen=True)
class BurstSpec:
    """A contiguous view-error burst against one node's received stream.

    ``start``/``length`` are *window-local* bit times; ``window`` names
    the window the burst fires in (``-1`` = every window).  Bursts are
    the deterministic half of the sustained fault regime — long enough
    bursts against a transmitting node ramp its TEC through
    error-passive into bus-off.
    """

    node: str
    start: int
    length: int
    window: int = 0

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ConfigurationError("burst start must be non-negative")
        if self.length < 1:
            raise ConfigurationError("burst length must be at least one bit")
        if self.window < -1:
            raise ConfigurationError("burst window must be >= 0, or -1 for all")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "node": self.node,
            "start": self.start,
            "length": self.length,
            "window": self.window,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BurstSpec":
        return cls(
            node=data["node"],
            start=data["start"],
            length=data["length"],
            window=data.get("window", 0),
        )


@dataclass(frozen=True)
class Submission:
    """One scheduled message submission.

    ``time`` is the *global nominal* bit time: the position within the
    concatenated active windows, before drain bits stretch the spliced
    trace.  ``(node, seq)`` is the message key the ledger tracks.

    The traffic message encoding is declared here, once: message
    ``(n<index>, seq)`` travels as identifier ``ID_BASE + index`` with
    ``seq`` as a 2-byte little-endian payload, tagged
    ``"n<index>#<seq>"``; :func:`decode_wire_key` reads it back.
    """

    time: int
    window: int
    node: str
    node_index: int
    seq: int

    @property
    def key(self) -> Tuple[str, int]:
        return (self.node, self.seq)

    @property
    def identifier(self) -> int:
        return ID_BASE + self.node_index

    @property
    def payload(self) -> bytes:
        return self.seq.to_bytes(2, "little")

    @property
    def message_id(self) -> str:
        return "%s#%d" % (self.node, self.seq)


def decode_wire_key(frame, n_nodes: int) -> Optional[Tuple[str, int]]:
    """(origin, seq) of a traffic data frame; None for foreign frames."""
    index = frame.can_id.value - ID_BASE
    data = frame.data
    if frame.remote or not 0 <= index < n_nodes or len(data) < 2:
        return None
    return (_node_names(n_nodes)[index], data[0] | (data[1] << 8))


@lru_cache(maxsize=None)
def _node_names(n_nodes: int) -> Tuple[str, ...]:
    """``("n0", "n1", ...)``, built once per node count (at most 255)."""
    return tuple("n%d" % index for index in range(n_nodes))


@dataclass(frozen=True)
class TrafficSpec:
    """Experiment identity of a sharded steady-state traffic run."""

    name: str = "traffic"
    protocol: str = "can"
    m: int = 5
    n_nodes: int = 4
    windows: int = 1
    window_bits: int = 2000
    source: str = "periodic"
    load: float = 0.5
    frame_bits: int = 110
    rate_per_bit: float = 0.0
    messages_per_node: Optional[int] = None
    seed: int = 0
    hlp: Optional[str] = None
    noise_ber: float = 0.0
    noise_nodes: Optional[Tuple[str, ...]] = None
    bursts: Tuple[BurstSpec, ...] = ()
    bus_off_recovery: bool = False
    fast_path: bool = True
    record_events: bool = True
    max_window_bits: int = 200_000

    def __post_init__(self) -> None:
        object.__setattr__(self, "bursts", tuple(self.bursts))
        if self.noise_nodes is not None:
            object.__setattr__(self, "noise_nodes", tuple(self.noise_nodes))
        if self.protocol not in PROTOCOL_NAMES:
            raise ConfigurationError(
                "unknown protocol %r (choose from %s)"
                % (self.protocol, list(PROTOCOL_NAMES))
            )
        if self.source not in SOURCES:
            raise ConfigurationError(
                "unknown source %r (choose from %s)" % (self.source, list(SOURCES))
            )
        if self.hlp is not None and self.hlp not in _HLPS:
            raise ConfigurationError(
                "unknown HLP %r (choose from %s)" % (self.hlp, list(_HLPS))
            )
        if not 2 <= self.n_nodes <= (64 if self.hlp else 256):
            raise ConfigurationError(
                "n_nodes must be 2..%d" % (64 if self.hlp else 256)
            )
        if self.m < 1:
            raise ConfigurationError("m must be at least 1")
        if self.windows < 1:
            raise ConfigurationError("windows must be at least 1")
        if self.window_bits < 64:
            raise ConfigurationError("window_bits must be at least 64")
        if self.max_window_bits <= self.window_bits:
            raise ConfigurationError("max_window_bits must exceed window_bits")
        if not 0.0 < self.load <= 4.0:
            raise ConfigurationError("load must be in (0, 4]")
        if self.frame_bits < 1:
            raise ConfigurationError("frame_bits must be positive")
        if not 0.0 <= self.rate_per_bit <= 1.0:
            raise ConfigurationError("rate_per_bit must be a probability")
        if not 0.0 <= self.noise_ber < 1.0:
            raise ConfigurationError("noise_ber must be in [0, 1)")
        if not isinstance(self.seed, int):
            raise ConfigurationError("seed must be an integer")
        if self.messages_per_node is not None and self.messages_per_node < 0:
            raise ConfigurationError("messages_per_node must be non-negative")
        names = set(self.node_names)
        for burst in self.bursts:
            if burst.node not in names:
                raise ConfigurationError(
                    "burst targets unknown node %r" % burst.node
                )
            if burst.window >= self.windows:
                raise ConfigurationError(
                    "burst window %d out of range (have %d windows)"
                    % (burst.window, self.windows)
                )
        if self.noise_nodes is not None:
            unknown = set(self.noise_nodes) - names
            if unknown:
                raise ConfigurationError(
                    "noise targets unknown nodes %s" % sorted(unknown)
                )

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------

    @property
    def node_names(self) -> Tuple[str, ...]:
        return _node_names(self.n_nodes)

    @property
    def total_active_bits(self) -> int:
        """Scheduled bus time: the concatenated active windows."""
        return self.windows * self.window_bits

    @property
    def period_bits(self) -> int:
        """Per-node submission period of the periodic workload.

        ``n_nodes`` nodes sharing the aggregate frame rate
        ``load / frame_bits`` per bit time (the
        :class:`repro.workload.profiles.NetworkProfile` arithmetic),
        extended to overload factors (``load > 1``) the profile class
        refuses.
        """
        return max(1, int(round(self.n_nodes * self.frame_bits / self.load)))

    @property
    def seq_cap(self) -> int:
        return HLP_SEQ_CAP if self.hlp else CAN_SEQ_CAP

    def bursts_for_window(self, window: int) -> Tuple[BurstSpec, ...]:
        return tuple(
            burst for burst in self.bursts if burst.window in (window, -1)
        )

    # ------------------------------------------------------------------
    # Manifest (schema v2) round trip
    # ------------------------------------------------------------------

    def to_manifest(self, meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        manifest: Dict[str, Any] = {
            "type": "manifest",
            "version": TRAFFIC_SCHEMA_VERSION,
            "kind": "traffic",
            "name": self.name,
            "traffic": {
                "protocol": self.protocol,
                "m": self.m,
                "n_nodes": self.n_nodes,
                "windows": self.windows,
                "window_bits": self.window_bits,
                "source": self.source,
                "load": self.load,
                "frame_bits": self.frame_bits,
                "rate_per_bit": self.rate_per_bit,
                "messages_per_node": self.messages_per_node,
                "seed": self.seed,
                "hlp": self.hlp,
                "noise_ber": self.noise_ber,
                "noise_nodes": (
                    list(self.noise_nodes) if self.noise_nodes is not None else None
                ),
                "bursts": [burst.to_dict() for burst in self.bursts],
                "bus_off_recovery": self.bus_off_recovery,
            },
            "engine": {
                "fast_path": self.fast_path,
                "record_events": self.record_events,
                "max_window_bits": self.max_window_bits,
            },
        }
        if meta:
            manifest["meta"] = meta
        return manifest

    @classmethod
    def from_manifest(cls, manifest: Dict[str, Any]) -> "TrafficSpec":
        version = manifest.get("version")
        if version != TRAFFIC_SCHEMA_VERSION:
            raise TraceStoreError(
                "manifest version %r is not a v%d traffic manifest"
                % (version, TRAFFIC_SCHEMA_VERSION)
            )
        if manifest.get("kind") != "traffic":
            raise TraceStoreError(
                "manifest kind %r is not 'traffic'" % manifest.get("kind")
            )
        traffic = manifest.get("traffic", {})
        engine = manifest.get("engine", {})
        noise_nodes = traffic.get("noise_nodes")
        return cls(
            name=manifest.get("name", "traffic"),
            protocol=traffic["protocol"],
            m=traffic["m"],
            n_nodes=traffic["n_nodes"],
            windows=traffic["windows"],
            window_bits=traffic["window_bits"],
            source=traffic["source"],
            load=traffic["load"],
            frame_bits=traffic["frame_bits"],
            rate_per_bit=traffic["rate_per_bit"],
            messages_per_node=traffic.get("messages_per_node"),
            seed=traffic["seed"],
            hlp=traffic.get("hlp"),
            noise_ber=traffic.get("noise_ber", 0.0),
            noise_nodes=tuple(noise_nodes) if noise_nodes is not None else None,
            bursts=tuple(
                BurstSpec.from_dict(burst) for burst in traffic.get("bursts", [])
            ),
            bus_off_recovery=traffic.get("bus_off_recovery", False),
            fast_path=engine.get("fast_path", True),
            record_events=engine.get("record_events", True),
            max_window_bits=engine.get("max_window_bits", 200_000),
        )
