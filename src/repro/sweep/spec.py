"""Validated design-space sweep specifications.

A :class:`SweepSpec` names a grid of experiment *cells* on one of the
*surfaces* of :data:`SURFACES`.  A surface is its cell type, its
ordered ``(spec axis, cell field)`` pairs and the spec fields folded
into each cell's constants: the analytic surface samples protocol,
tolerance ``m``, bit-error rate, bit rate, bus length, payload size
and node count under one tail window, flip bound and bus load; the
traffic surface samples protocol, ``m``, node count, load, workload
source and view noise under one window count, window length and seed.
The grid is either the full cartesian product of the surface's axes or
an explicit (analytic) cell list; either way :func:`expand_cells`
produces the cells in one deterministic order, which is what makes
resumable runs and the content-addressed store of
:mod:`repro.sweep.store` line up across processes and worker counts.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from itertools import product
from typing import Any, Callable, Dict, List, NamedTuple, Sequence, Tuple

from repro.can.geometry import PROTOCOL_NAMES as PROTOCOLS
from repro.errors import ConfigurationError
from repro.traffic.spec import SOURCES

#: Largest classic-CAN payload, bytes.
MAX_PAYLOAD_BYTES = 8

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
        lambda v: v in SOURCES,
        lambda v: "unknown traffic source %r (use one of %s)" % (v, ", ".join(SOURCES)),
    ),
    "noise_ber": (lambda v: 0.0 <= v < 1.0, lambda v: "noise_ber must be in [0, 1), got %r" % (v,)),
}


def _check(field_name: str, values: Sequence) -> None:
    """Raise the rule's :class:`ConfigurationError` for the first bad value."""
    holds, message = _RULES[field_name]
    for value in values:
        if not holds(value):
            raise ConfigurationError(message(value))


class _Cell:
    """The field checks and flat dict shared by the cell dataclasses."""

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            _check(name, (getattr(self, name),))

    def as_dict(self) -> Dict[str, Any]:
        # Every field is a scalar, so a flat dict needs no deep copy.
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


@dataclass(frozen=True)
class SweepCell(_Cell):
    """One concrete experiment cell of an analytic design-space sweep."""

    protocol: str
    m: int
    ber: float
    bit_rate: float
    bus_length_m: float
    payload: int  # payload bytes (0..8)
    n_nodes: int

    @property
    def payload_bytes(self) -> bytes:
        """The deterministic payload pattern this cell simulates."""
        return b"\x55" * self.payload


@dataclass(frozen=True)
class TrafficCell(_Cell):
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


class Surface(NamedTuple):
    """What one sweep surface's cells are and what identifies them."""

    #: The cell dataclass; its fields are declared in axis order.
    cell: type
    #: ``(spec axis, cell field)`` pairs, outermost axis first.
    axes: Tuple[Tuple[str, str], ...]
    #: ``(spec field, constant)`` pairs folded into every cell's
    #: constants, and so into its key and its evaluator's arguments.
    constants: Tuple[Tuple[str, str], ...]


#: Every surface a spec may select, by its ``surface`` name.
SURFACES: Dict[str, Surface] = {
    "analytic": Surface(
        SweepCell,
        (
            ("protocols", "protocol"),
            ("m_values", "m"),
            ("bers", "ber"),
            ("bit_rates", "bit_rate"),
            ("bus_lengths_m", "bus_length_m"),
            ("payloads", "payload"),
            ("node_counts", "n_nodes"),
        ),
        (("window", "window"), ("max_flips", "max_flips"), ("load", "load")),
    ),
    "traffic": Surface(
        TrafficCell,
        (
            ("protocols", "protocol"),
            ("m_values", "m"),
            ("node_counts", "n_nodes"),
            ("loads", "load"),
            ("sources", "source"),
            ("noise_bers", "noise_ber"),
        ),
        (
            ("traffic_windows", "windows"),
            ("traffic_window_bits", "window_bits"),
            ("traffic_seed", "seed"),
        ),
    ),
}

#: A cell-field annotation's type, and the value types its axis takes
#: (a float axis also takes ints; expansion coerces them).
_TYPES = {"str": (str, str), "int": (int, int), "float": (float, (int, float))}

#: Every axis of every surface: ``axis -> (cell field, type, accepts)``.
_AXES: Dict[str, Tuple[str, type, Any]] = {
    axis: (name, *_TYPES[surface.cell.__dataclass_fields__[name].type])
    for surface in SURFACES.values()
    for axis, name in surface.axes
}


def _axis(name: str, values: Sequence, kind, allow_empty: bool) -> tuple:
    """Validate one axis: typed, non-empty, duplicate-free, ordered."""
    try:
        values = tuple(values)
    except TypeError:
        raise ConfigurationError(
            "axis %r must be a list of values, got %r" % (name, values)
        )
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
    """A validated design-space sweep over one surface's cell axes.

    ``surface`` selects what the cells measure (see :data:`SURFACES`).
    The default ``"analytic"`` grid is the single-frame fault sweep:
    protocol x m x BER x bit rate x bus length x payload x node count,
    evaluated under the spec-level ``window``, ``max_flips`` and
    ``load``.  ``surface="traffic"`` instead crosses
    protocol x m x node count with the ``loads``, ``sources`` and
    ``noise_bers`` axes and evaluates each cell as a steady-state
    ``repro.traffic`` run (on the frame-granular batch backend) of
    ``traffic_windows`` windows of ``traffic_window_bits`` bits seeded
    from ``traffic_seed`` — the measured-under-load surfaces of ROADMAP
    direction 2.  A surface's constants are part of each of its cells'
    content-addressed identity (see :func:`repro.sweep.cell.cell_key`).

    The grid is the cartesian product of the surface's axes, expanded
    in declaration order (protocol outermost).  A non-empty ``cells``
    list instead selects the *explicit* mode: exactly those analytic
    cells, in order.  Every axis of every surface is validated either
    way — typed, duplicate-free, in domain, and non-empty unless the
    spec lists explicit cells.
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
        # Validate the axis domains up front instead of mid-grid —
        # expanding a million-cell product just to find a bad value on
        # one axis would be wasteful.
        for axis, (name, _, accepts) in _AXES.items():
            values = _axis(axis, getattr(self, axis), accepts, explicit)
            _check(name, values)
            object.__setattr__(self, axis, values)
        if self.window < 1:
            raise ConfigurationError("window must be at least 1 bit")
        if self.max_flips < 1:
            raise ConfigurationError("max_flips must be at least 1")
        if not 0.0 < self.load <= 1.0:
            raise ConfigurationError("load must be in (0, 1]")
        if self.surface not in SURFACES:
            raise ConfigurationError(
                "surface must be %s, got %r"
                % (" or ".join(map(repr, SURFACES)), self.surface)
            )
        if self.surface == "traffic":
            if explicit:
                raise ConfigurationError(
                    "explicit cell lists are analytic-only; a traffic "
                    "surface expands from its axes"
                )
            if self.traffic_windows < 1:
                raise ConfigurationError("traffic_windows must be >= 1")
            if self.traffic_window_bits < 64:
                raise ConfigurationError(
                    "traffic_window_bits must be >= 64"
                )

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
        cells = kwargs.get("cells", ())
        if not isinstance(cells, (list, tuple)):
            raise ConfigurationError("cells must be a list of objects")
        try:
            kwargs["cells"] = tuple(
                cell if isinstance(cell, SweepCell) else SweepCell(**cell)
                for cell in cells
            )
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
        try:
            with open(path) as handle:
                text = handle.read()
        except (OSError, ValueError) as exc:
            raise ConfigurationError("cannot read sweep spec %s: %s" % (path, exc))
        return cls.from_json(text)

    def cell_count(self) -> int:
        """Number of cells the spec expands to (product or explicit)."""
        if self.cells:
            return len(self.cells)
        return math.prod(
            len(getattr(self, axis)) for axis, _ in SURFACES[self.surface].axes
        )


def expand_cells(spec: SweepSpec) -> List[Any]:
    """Expand ``spec`` into its cells, in the canonical deterministic order.

    Explicit cell lists are returned as given; product grids iterate
    the surface's axes in declaration order, protocol outermost.  The
    order never affects the persisted store (records compact sorted by
    key) but keeps planning, budget truncation and progress reporting
    stable.
    """
    if spec.cells:
        return list(spec.cells)
    surface = SURFACES[spec.surface]
    columns = [
        tuple(map(_AXES[axis][1], getattr(spec, axis))) for axis, _ in surface.axes
    ]
    return [surface.cell(*point) for point in product(*columns)]
