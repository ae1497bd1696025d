"""Validated design-space sweep specifications.

A :class:`SweepSpec` names a grid of experiment *cells* over the seven
axes the paper's evaluation samples a handful of points from —
protocol, tolerance ``m``, bit-error rate, bit rate, bus length,
payload size and node count — plus the spec-level constants shared by
every cell (tail window, flip bound, bus load).  The grid is either the
full cartesian product of the axes or an explicit cell list; either
way :func:`expand_cells` produces the cells in one deterministic order,
which is what makes resumable runs and the content-addressed store of
:mod:`repro.sweep.store` line up across processes and worker counts.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError

#: Protocols a cell may name (the simulator's registry keys).
PROTOCOLS = ("can", "minorcan", "majorcan")

#: Largest classic-CAN payload, bytes.
MAX_PAYLOAD_BYTES = 8

#: Workload families a traffic-surface cell may name
#: (:class:`repro.traffic.spec.TrafficSpec` sources).
TRAFFIC_SOURCES = ("periodic", "poisson")

#: The range rule of every cell field: ``(holds, message)`` per field
#: name.  :class:`SweepCell` and :class:`TrafficCell` check their
#: fields against it, and :class:`SweepSpec` checks its axes against it
#: before expanding any grid.
_RULES: Dict[str, Tuple[Callable[[Any], bool], Callable[[Any], str]]] = {
    "protocol": (
        lambda v: v in PROTOCOLS,
        lambda v: "unknown protocol %r (use one of %s)" % (v, ", ".join(PROTOCOLS)),
    ),
    "m": (lambda v: v >= 2, lambda v: "m must be at least 2, got %d" % v),
    "ber": (
        lambda v: 0.0 < v < 1.0,
        lambda v: "ber must be a probability in (0, 1), got %r" % (v,),
    ),
    "bit_rate": (lambda v: v > 0, lambda v: "bit rate must be positive"),
    "bus_length_m": (lambda v: v >= 0, lambda v: "bus length must be non-negative"),
    "payload": (
        lambda v: 0 <= v <= MAX_PAYLOAD_BYTES,
        lambda v: "payload must be 0..%d bytes, got %d" % (MAX_PAYLOAD_BYTES, v),
    ),
    "n_nodes": (lambda v: v >= 2, lambda v: "a broadcast network needs >= 2 nodes, got %d" % v),
    "load": (lambda v: 0.0 < v <= 4.0, lambda v: "traffic load must be in (0, 4], got %r" % (v,)),
    "source": (
        lambda v: v in TRAFFIC_SOURCES,
        lambda v: "unknown traffic source %r (use one of %s)" % (v, ", ".join(TRAFFIC_SOURCES)),
    ),
    "noise_ber": (lambda v: 0.0 <= v < 1.0, lambda v: "noise_ber must be in [0, 1), got %r" % (v,)),
}


def _check(field_name: str, values: Sequence) -> None:
    """Raise the rule's :class:`ConfigurationError` for the first bad value."""
    holds, message = _RULES[field_name]
    for value in values:
        if not holds(value):
            raise ConfigurationError(message(value))


def _check_fields(cell: Any) -> None:
    """Check every field of a cell against its rule, in field order."""
    for cell_field in fields(cell):
        _check(cell_field.name, (getattr(cell, cell_field.name),))


@dataclass(frozen=True)
class SweepCell:
    """One concrete experiment cell of a design-space sweep."""

    protocol: str
    m: int
    ber: float
    bit_rate: float
    bus_length_m: float
    payload: int  # payload bytes (0..8)
    n_nodes: int

    def __post_init__(self) -> None:
        _check_fields(self)

    @property
    def payload_bytes(self) -> bytes:
        """The deterministic payload pattern this cell simulates."""
        return b"\x55" * self.payload

    def as_dict(self) -> Dict[str, Any]:
        # Every field is a scalar, so a flat dict needs no deep copy.
        return {field.name: getattr(self, field.name) for field in fields(self)}


@dataclass(frozen=True)
class TrafficCell:
    """One measured-under-load cell of a traffic-surface sweep.

    Where a :class:`SweepCell` samples the analytic single-frame fault
    universe, a traffic cell runs a whole steady-state
    :class:`repro.traffic.spec.TrafficSpec` — protocol, tolerance,
    node count, target bus load and workload family — and surfaces the
    *measured* ledger statistics (deliveries, bus load, backlog,
    arbitration losses) instead of closed-form probabilities.
    """

    protocol: str
    m: int
    n_nodes: int
    load: float
    source: str
    #: Uniform per-node per-bit view-noise probability (0 = clean).
    noise_ber: float = 0.0

    def __post_init__(self) -> None:
        _check_fields(self)

    def as_dict(self) -> Dict[str, Any]:
        return {field.name: getattr(self, field.name) for field in fields(self)}


#: The analytic grid axes and the cell field each one samples.
_AXIS_FIELDS = (
    ("m_values", "m"),
    ("bers", "ber"),
    ("bit_rates", "bit_rate"),
    ("bus_lengths_m", "bus_length_m"),
    ("payloads", "payload"),
    ("node_counts", "n_nodes"),
)


def _axis(name: str, values: Sequence, kind, allow_empty: bool = False) -> tuple:
    """Validate one axis: typed, non-empty, duplicate-free, ordered."""
    values = tuple(values)
    if not values and not allow_empty:
        raise ConfigurationError("axis %r must not be empty" % name)
    for value in values:
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ConfigurationError(
                "axis %r values must be %s, got %r"
                % (name, getattr(kind, "__name__", kind), value)
            )
    if len(set(values)) != len(values):
        raise ConfigurationError(
            "axis %r contains duplicate values: %r" % (name, values)
        )
    return values


@dataclass(frozen=True)
class SweepSpec:
    """A validated design-space sweep over the seven cell axes.

    ``cells`` non-empty selects the *explicit* mode: exactly those
    cells, in order, and the axis fields are ignored.  Otherwise the
    grid is the cartesian product of the axes, expanded in declaration
    order (protocol outermost, node count innermost).

    ``window``, ``max_flips`` and ``load`` are spec-level constants:
    they shape every cell's fault universe and traffic profile and are
    therefore part of each cell's content-addressed identity (see
    :func:`repro.sweep.cell.cell_key`).

    ``surface`` selects what the cells measure.  The default
    ``"analytic"`` grid is the seven-axis single-frame fault sweep
    above.  ``surface="traffic"`` instead crosses protocol x m x node
    count with the ``loads`` and ``sources`` axes and evaluates each
    cell as a steady-state ``repro.traffic`` run (on the frame-granular
    batch backend) of ``traffic_windows`` windows of
    ``traffic_window_bits`` bits seeded from ``traffic_seed`` — the
    measured-under-load surfaces of ROADMAP direction 2.  Explicit
    ``cells`` lists remain analytic-only.
    """

    name: str = "sweep"
    protocols: Tuple[str, ...] = ("can", "minorcan", "majorcan")
    m_values: Tuple[int, ...] = (5,)
    bers: Tuple[float, ...] = (1e-6, 1e-5, 1e-4)
    bit_rates: Tuple[float, ...] = (1_000_000.0,)
    bus_lengths_m: Tuple[float, ...] = (40.0,)
    payloads: Tuple[int, ...] = (1,)
    node_counts: Tuple[int, ...] = (3,)
    cells: Tuple[SweepCell, ...] = ()
    window: int = 2
    max_flips: int = 2
    load: float = 0.9
    surface: str = "analytic"
    loads: Tuple[float, ...] = (0.9,)
    sources: Tuple[str, ...] = ("periodic",)
    #: View-noise axis of the traffic surface (``(0.0,)`` = clean only).
    noise_bers: Tuple[float, ...] = (0.0,)
    traffic_windows: int = 2
    traffic_window_bits: int = 1200
    traffic_seed: int = 1

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigurationError("the sweep needs a non-empty name")
        explicit = bool(self.cells)
        object.__setattr__(self, "cells", tuple(self.cells))
        for cell in self.cells:
            if not isinstance(cell, SweepCell):
                raise ConfigurationError(
                    "explicit cells must be SweepCell instances, got %r"
                    % (cell,)
                )
        object.__setattr__(
            self,
            "protocols",
            _axis("protocols", self.protocols, str, allow_empty=explicit),
        )
        _check("protocol", self.protocols)
        object.__setattr__(
            self, "m_values", _axis("m_values", self.m_values, int, explicit)
        )
        object.__setattr__(
            self, "bers", _axis("bers", self.bers, (int, float), explicit)
        )
        object.__setattr__(
            self,
            "bit_rates",
            _axis("bit_rates", self.bit_rates, (int, float), explicit),
        )
        object.__setattr__(
            self,
            "bus_lengths_m",
            _axis("bus_lengths_m", self.bus_lengths_m, (int, float), explicit),
        )
        object.__setattr__(
            self, "payloads", _axis("payloads", self.payloads, int, explicit)
        )
        object.__setattr__(
            self,
            "node_counts",
            _axis("node_counts", self.node_counts, int, explicit),
        )
        if self.window < 1:
            raise ConfigurationError("window must be at least 1 bit")
        if self.max_flips < 1:
            raise ConfigurationError("max_flips must be at least 1")
        if not 0.0 < self.load <= 1.0:
            raise ConfigurationError("load must be in (0, 1]")
        if self.surface not in ("analytic", "traffic"):
            raise ConfigurationError(
                "surface must be 'analytic' or 'traffic', got %r"
                % (self.surface,)
            )
        object.__setattr__(
            self, "loads", _axis("loads", self.loads, (int, float), True)
        )
        object.__setattr__(
            self, "sources", _axis("sources", self.sources, str, True)
        )
        object.__setattr__(
            self,
            "noise_bers",
            _axis("noise_bers", self.noise_bers, (int, float), True),
        )
        if self.surface == "traffic":
            if explicit:
                raise ConfigurationError(
                    "explicit cell lists are analytic-only; a traffic "
                    "surface expands from its axes"
                )
            if not self.loads or not self.sources or not self.noise_bers:
                raise ConfigurationError(
                    "a traffic surface needs non-empty loads, sources "
                    "and noise_bers"
                )
            _check("noise_ber", self.noise_bers)
            _check("load", self.loads)
            _check("source", self.sources)
            if self.traffic_windows < 1:
                raise ConfigurationError("traffic_windows must be >= 1")
            if self.traffic_window_bits < 64:
                raise ConfigurationError(
                    "traffic_window_bits must be >= 64"
                )
        if not explicit:
            # Validate the axis domains up front instead of mid-grid —
            # expanding a million-cell product just to find a bad value
            # on one axis would be wasteful.
            for axis, field_name in _AXIS_FIELDS:
                _check(field_name, getattr(self, axis))

    # ------------------------------------------------------------------
    # Serialisation (the CLI's spec-file format)
    # ------------------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        payload = asdict(self)
        payload["cells"] = [cell.as_dict() for cell in self.cells]
        return payload

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SweepSpec":
        if not isinstance(data, dict):
            raise ConfigurationError("a sweep spec must be a JSON object")
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                "unknown sweep spec fields: %s" % ", ".join(unknown)
            )
        kwargs = dict(data)
        if "cells" in kwargs:
            cells = kwargs["cells"]
            if not isinstance(cells, (list, tuple)):
                raise ConfigurationError("cells must be a list of objects")
            kwargs["cells"] = tuple(
                cell if isinstance(cell, SweepCell) else SweepCell(**cell)
                for cell in cells
            )
        for name in (
            "protocols",
            "m_values",
            "bers",
            "bit_rates",
            "bus_lengths_m",
            "payloads",
            "node_counts",
            "loads",
            "sources",
            "noise_bers",
        ):
            if name in kwargs:
                kwargs[name] = tuple(kwargs[name])
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigurationError("invalid sweep spec: %s" % exc)

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ConfigurationError("sweep spec is not valid JSON: %s" % exc)
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path: str) -> "SweepSpec":
        with open(path) as handle:
            return cls.from_json(handle.read())

    def cell_count(self) -> int:
        """Number of cells the spec expands to (product or explicit)."""
        if self.surface == "traffic":
            return (
                len(self.protocols)
                * len(self.m_values)
                * len(self.node_counts)
                * len(self.loads)
                * len(self.sources)
                * len(self.noise_bers)
            )
        if self.cells:
            return len(self.cells)
        return (
            len(self.protocols)
            * len(self.m_values)
            * len(self.bers)
            * len(self.bit_rates)
            * len(self.bus_lengths_m)
            * len(self.payloads)
            * len(self.node_counts)
        )


def expand_cells(spec: SweepSpec) -> List[SweepCell]:
    """Expand ``spec`` into its cells, in the canonical deterministic order.

    Explicit cell lists are returned as given; product grids iterate
    protocol outermost and node count innermost.  The order never
    affects the persisted store (records compact sorted by key) but
    keeps planning, budget truncation and progress reporting stable.
    """
    if spec.cells:
        return list(spec.cells)
    return [
        SweepCell(
            protocol=protocol,
            m=m,
            ber=ber,
            bit_rate=float(bit_rate),
            bus_length_m=float(bus_length),
            payload=payload,
            n_nodes=n_nodes,
        )
        for protocol in spec.protocols
        for m in spec.m_values
        for ber in spec.bers
        for bit_rate in spec.bit_rates
        for bus_length in spec.bus_lengths_m
        for payload in spec.payloads
        for n_nodes in spec.node_counts
    ]


def expand_traffic_cells(spec: SweepSpec) -> List[TrafficCell]:
    """Expand a traffic-surface spec into its cells, in canonical order.

    Protocol outermost, then m, node count, load, source, noise BER —
    the same declaration-order convention as :func:`expand_cells`.
    """
    if spec.surface != "traffic":
        raise ConfigurationError(
            "expand_traffic_cells needs surface='traffic', got %r"
            % (spec.surface,)
        )
    return [
        TrafficCell(
            protocol=protocol,
            m=m,
            n_nodes=n_nodes,
            load=float(load),
            source=source,
            noise_ber=float(noise_ber),
        )
        for protocol in spec.protocols
        for m in spec.m_values
        for n_nodes in spec.node_counts
        for load in spec.loads
        for source in spec.sources
        for noise_ber in spec.noise_bers
    ]
