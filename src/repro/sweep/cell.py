"""Content-addressed cell identity and per-cell evaluation.

A cell's *key* is the SHA-256 of its canonical JSON description: the
cell parameters plus every code-relevant constant that shapes what the
evaluation computes — the surface's spec-level constants (tail window,
flip bound and bus load, or window count, window length and seed), the
backend, the resolved chunk partition and the key schema version.  Two
processes (or two machines) that would compute the same result
therefore derive the same key, which is what makes the result store
incremental: a re-run skips every key it already holds, and a key
changes exactly when the result could.

Evaluation reuses the repository's existing pipeline end to end: the
exact tail-pattern enumeration of :mod:`repro.analysis.enumeration`
(engine or vectorised batch backend) for the simulated probabilities,
equations 4/5 for the analytic surface, and the ISO 11898 bit-timing
model for the physical feasibility of the (bit rate, bus length) point.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Callable, Dict, Optional

from repro.analysis import enumeration
from repro.analysis.overhead import best_case_overhead_bits
from repro.analysis.probability import p_new_scenario_per_frame, p_old_scenario_per_frame
from repro.analysis.rates import incidents_per_hour
from repro.can.encoding import wire_program
from repro.can.frame import data_frame
from repro.can.timing import PROPAGATION_SPEED_M_PER_S, timing_for_bit_rate
from repro.errors import AnalysisError, ConfigurationError
from repro.faults.models import ber_star
from repro.metrics.export import json_line
from repro.parallel.seeds import BATCH_DISCOUNT, adaptive_chunk
from repro.sweep.spec import SURFACES, SweepCell, SweepSpec, TrafficCell
from repro.workload.profiles import NetworkProfile

#: Version of the key schema.  Bump whenever the evaluation semantics
#: change in a way that invalidates stored results (new result fields
#: are fine; different numbers are not).
KEY_VERSION = 1

#: Baseline cells per task chunk, tuned for the canonical cell (three
#: nodes, two-bit window, <= 2 flips) on the engine backend.  The
#: adaptive resolution scales this by the cell's pattern count and the
#: batch backend's per-placement discount; the resolved value is part
#: of the cell identity (see :func:`cell_constants`).
CHUNK_CELLS = 8

#: Pattern count of the baseline cell: C(6, 0) + C(6, 1) + C(6, 2).
_BASELINE_PATTERNS = 22

#: Baseline cells per traffic chunk.  A traffic cell runs whole
#: steady-state windows rather than one enumerated pattern set, so the
#: baseline is far coarser than the analytic ``CHUNK_CELLS`` and the
#: adaptive floor drops to one cell per task.
TRAFFIC_CHUNK_CELLS = 2

#: Window count x window bits of the chunk-size baseline traffic cell.
_BASELINE_TRAFFIC_BITS = 2 * 1200.0


def _pattern_count(n_nodes: int, window: int, max_flips: int) -> int:
    """Number of enumerated fault patterns of one cell."""
    sites = n_nodes * window
    return sum(math.comb(sites, flips) for flips in range(0, max_flips + 1))


def _chunk_cells(base: Dict[str, Any], cell: Any, backend: str) -> int:
    """The adaptive chunk partition of ``cell`` under the spec constants
    ``base``; a function of the cell's node count alone."""
    if base.get("surface") == "traffic":
        cost_units = (base["windows"] * base["window_bits"]) / _BASELINE_TRAFFIC_BITS
        return adaptive_chunk(TRAFFIC_CHUNK_CELLS, cost_units, floor=1)
    cost_units = _pattern_count(
        cell.n_nodes, base["window"], base["max_flips"]
    ) / float(_BASELINE_PATTERNS)
    if backend == "batch":
        cost_units /= BATCH_DISCOUNT
    return adaptive_chunk(CHUNK_CELLS, cost_units)


def constants_planner(
    spec: SweepSpec, backend: str = "batch"
) -> Callable[[Any], Dict[str, Any]]:
    """``cell -> constants``: the code-relevant constants of a cell's identity.

    The spec fields come from the surface's ``constants`` list in
    :data:`repro.sweep.spec.SURFACES`; the rest is the key version,
    the backend and the chunk partition.  A ``"surface": "traffic"``
    marker keeps traffic keys disjoint from every analytic key even if
    the parameter names were ever to collide.

    The spec-derived part is built once, here.  The returned function
    resolves one constants dict per node count and hands the same dict
    to every cell of that count, so callers must not mutate it.
    """
    if backend not in ("engine", "batch"):
        raise ConfigurationError(
            "unknown backend %r (use 'engine' or 'batch')" % (backend,)
        )
    base = {
        name: getattr(spec, spec_field)
        for spec_field, name in SURFACES[spec.surface].constants
    }
    if spec.surface == "traffic":
        base["surface"] = "traffic"
    by_nodes: Dict[int, Dict[str, Any]] = {}

    def constants_of(cell: Any) -> Dict[str, Any]:
        constants = by_nodes.get(cell.n_nodes)
        if constants is None:
            constants = by_nodes[cell.n_nodes] = dict(
                base,
                key_version=KEY_VERSION,
                backend=backend,
                chunk_cells=_chunk_cells(base, cell, backend),
            )
        return constants

    return constants_of


def cell_constants(
    cell: Any, spec: SweepSpec, backend: str = "batch"
) -> Dict[str, Any]:
    """The constants of one cell (see :func:`constants_planner`)."""
    return dict(constants_planner(spec, backend)(cell))


def cell_key(cell: SweepCell, constants: Dict[str, Any]) -> str:
    """Content-addressed key of one cell: SHA-256 over canonical JSON.

    The canonical form is :func:`repro.metrics.export.json_line` —
    sorted keys, minimal separators, deterministic float repr — so the
    key is stable across processes, machines and Python hash seeds.
    """
    payload = json_line({"cell": cell.as_dict(), "constants": constants})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _bus_feasibility(cell: SweepCell) -> Dict[str, Any]:
    """ISO 11898 feasibility of the cell's (bit rate, bus length) point."""
    propagation_delay_s = cell.bus_length_m / PROPAGATION_SPEED_M_PER_S
    try:
        timing = timing_for_bit_rate(cell.bit_rate)
    except ConfigurationError as exc:
        return {
            "feasible": False,
            "reason": str(exc),
            "propagation_delay_s": propagation_delay_s,
            "max_bus_length_m": None,
            "sample_point": None,
            "quanta_per_bit": None,
        }
    max_length = timing.max_bus_length_m()
    return {
        "feasible": cell.bus_length_m <= max_length,
        "reason": None
        if cell.bus_length_m <= max_length
        else "bus longer than the propagation-segment budget",
        "propagation_delay_s": propagation_delay_s,
        "max_bus_length_m": max_length,
        "sample_point": timing.sample_point,
        "quanta_per_bit": timing.quanta_per_bit,
    }


def cell_tau_data(cell: SweepCell) -> int:
    """Frame length (bits on the wire) of the cell's payload/protocol.

    The base length comes from the actual encoded frame — identifier,
    stuffing and all — and MajorCAN adds its best-case ``2m - 7``
    overhead bits.  Using the real wire length (rather than the paper's
    nominal 110 bits) keeps the per-frame probabilities and the frame
    rate of the traffic profile consistent with the simulated frame.
    """
    frame = data_frame(0x123, cell.payload_bytes, message_id="m")
    tau = len(wire_program(frame).levels)
    if cell.protocol == "majorcan":
        tau += max(0, best_case_overhead_bits(cell.m))
    return tau


def evaluate_cell(
    cell: SweepCell,
    window: int,
    max_flips: int,
    load: float,
    backend: str = "batch",
) -> Dict[str, Any]:
    """Evaluate one cell; returns the plain-JSON result payload.

    The result is a pure function of the arguments — no randomness, no
    ambient state — which is the property the content-addressed store
    relies on: any process evaluating the same key writes the same
    bytes.
    """
    tau = cell_tau_data(cell)
    profile = NetworkProfile(
        bit_rate=cell.bit_rate,
        n_nodes=cell.n_nodes,
        load=load,
        frame_bits=tau,
    )
    star = ber_star(cell.ber, cell.n_nodes)
    # Called through its module, so a wrapper installed there after this
    # import (bench/tracing.py's spans) still sees every call.
    enumerated = enumeration.enumerate_tail_patterns(
        protocol=cell.protocol,
        n_nodes=cell.n_nodes,
        window=window,
        ber_star=star,
        tau_data=tau,
        m=cell.m,
        max_flips=max_flips,
        backend=backend,
        payload=cell.payload_bytes,
    )
    p_imo = enumerated.p_inconsistent_omission
    p_double = enumerated.p_double_reception
    result: Dict[str, Any] = {
        "tau_data": tau,
        "ber_star": star,
        "patterns": len(enumerated.outcomes),
        "imo_patterns": len(enumerated.imo_patterns()),
        "p_imo": p_imo,
        "p_double": p_double,
        "p_inconsistent": enumerated.p_inconsistent,
        "frames_per_hour": profile.frames_per_hour,
        "imo_per_hour": incidents_per_hour(p_imo, profile),
        "double_per_hour": incidents_per_hour(p_double, profile),
        "bus": _bus_feasibility(cell),
    }
    # The closed-form surface needs a transmitter plus two receivers;
    # two-node cells record the simulated surface only.
    if cell.n_nodes >= 3:
        try:
            eq4 = p_new_scenario_per_frame(cell.ber, cell.n_nodes, tau)
            eq5 = p_old_scenario_per_frame(cell.ber, cell.n_nodes, tau)
        except AnalysisError:
            eq4 = eq5 = None
    else:
        eq4 = eq5 = None
    result["eq4_per_frame"] = eq4
    result["eq5_per_frame"] = eq5
    result["eq4_per_hour"] = (
        incidents_per_hour(eq4, profile) if eq4 is not None else None
    )
    result["backend_stats"] = (
        dict(enumerated.backend_stats) if enumerated.backend_stats else None
    )
    return result


# ---------------------------------------------------------------------------
# Measured-under-load traffic cells (surface="traffic")
# ---------------------------------------------------------------------------


def evaluate_traffic_cell(
    cell: TrafficCell,
    windows: int,
    window_bits: int,
    seed: int,
    backend: str = "batch",
) -> Dict[str, Any]:
    """Run one traffic cell; returns the plain-JSON result payload.

    Like :func:`evaluate_cell` this is a pure function of its
    arguments: the schedule is precomputed from the seed and both
    backends produce bit-identical ledgers, so any process evaluating
    the same key writes the same bytes.

    Events stay off — the surface keeps headline statistics and
    verdict tallies, not per-bit traces — which also keeps the window
    results small on the wire between pool workers.
    """
    from repro.traffic.run import run_traffic
    from repro.traffic.spec import TrafficSpec

    spec = TrafficSpec(
        name="sweep-traffic",
        protocol=cell.protocol,
        m=cell.m,
        n_nodes=cell.n_nodes,
        windows=windows,
        window_bits=window_bits,
        source=cell.source,
        load=cell.load,
        seed=seed,
        noise_ber=cell.noise_ber,
        record_events=False,
    )
    outcome = run_traffic(spec, jobs=1, backend=backend)
    stats = outcome.stats
    return {
        "frames_submitted": stats.frames_submitted,
        "delivered": stats.delivered,
        "duplicated": stats.duplicated,
        "omitted": stats.omitted,
        "lost": stats.lost,
        "total_bits": stats.total_bits,
        "bus_load": stats.bus_load,
        "max_backlog": stats.max_backlog,
        "arbitration_lost": stats.arbitration_lost,
        "properties": {
            name: bool(result) for name, result in outcome.properties.items()
        },
        "atomic": outcome.atomic,
        "backend_stats": (
            dict(outcome.backend_stats) if outcome.backend_stats else None
        ),
    }


def cell_record(cell: Any, constants: Dict[str, Any], key: str) -> Dict[str, Any]:
    """Evaluate a planned ``cell`` and wrap it as one complete store record.

    ``constants`` and ``key`` are the cell's :func:`cell_constants` and
    :func:`cell_key`, derived once when the sweep is planned; the
    surface's evaluator reads its keyword arguments from the same
    constants.
    """
    surface = constants.get("surface", "analytic")
    evaluate = evaluate_traffic_cell if surface == "traffic" else evaluate_cell
    arguments = {name: constants[name] for _, name in SURFACES[surface].constants}
    return {
        "key": key,
        "cell": cell.as_dict(),
        "constants": constants,
        "result": evaluate(cell, backend=constants["backend"], **arguments),
    }


def stats_of(record: Dict[str, Any]) -> Optional[Dict[str, int]]:
    """The backend provenance counters of one store record, if any."""
    result = record.get("result") or {}
    stats = result.get("backend_stats")
    return dict(stats) if stats else None
