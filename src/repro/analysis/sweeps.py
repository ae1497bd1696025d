"""Parameter sweeps and design-choice ablations.

The paper evaluates one operating point (Table 1) and one tolerance
(m = 5).  These sweeps map the surrounding landscape:

* :func:`imo_rate_sweep` — the IMOnew/IMO* rates of equations 4/5 as a
  series over ``ber``, node count or frame length;
* :func:`omission_degree_revision` — the CAN6 → CAN6' revision made
  quantitative: the expected number of inconsistent omissions within a
  reference interval, with (j') and without (j) the new scenarios;
* :func:`m_ablation` — the paper's choice of m = 5, ablated: per m,
  the overhead bits, the channel-error budget the design tolerates,
  and whether the receiver-desynchronisation channel of finding F1 is
  closed (it needs m >= 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence

from repro.analysis.overhead import (
    best_case_overhead_bits,
    worst_case_overhead_bits,
)
from repro.analysis.probability import (
    p_new_scenario_per_frame,
    p_old_scenario_per_frame,
)
from repro.analysis.rates import incidents_per_hour
from repro.analysis.verification import (
    header_sites,
    placement_node_names,
    verify_consistency,
)
from repro.errors import AnalysisError
from repro.parallel.pool import merge_stats, run_tasks
from repro.workload.profiles import PAPER_PROFILE, NetworkProfile


@dataclass(frozen=True)
class SweepPoint:
    """One point of an IMO-rate sweep."""

    ber: float
    n_nodes: int
    frame_bits: int
    imo_new_per_hour: float
    imo_star_per_hour: float

    @property
    def ratio(self) -> float:
        """How strongly the new scenario dominates at this point."""
        if self.imo_star_per_hour == 0.0:
            return float("inf")
        return self.imo_new_per_hour / self.imo_star_per_hour


def imo_rate_sweep(
    ber_values: Sequence[float] = (1e-6, 1e-5, 1e-4),
    node_counts: Sequence[int] = (32,),
    frame_lengths: Sequence[int] = (110,),
    profile: NetworkProfile = PAPER_PROFILE,
) -> List[SweepPoint]:
    """Sweep the analytical IMO rates over the model parameters.

    The traffic volume (frames/hour) follows the profile scaled to the
    swept frame length, matching the paper's methodology.
    """
    points = []
    for ber in ber_values:
        for n_nodes in node_counts:
            for frame_bits in frame_lengths:
                scaled = profile.scaled(n_nodes=n_nodes, frame_bits=frame_bits)
                points.append(
                    SweepPoint(
                        ber=ber,
                        n_nodes=n_nodes,
                        frame_bits=frame_bits,
                        imo_new_per_hour=incidents_per_hour(
                            p_new_scenario_per_frame(ber, n_nodes, frame_bits),
                            scaled,
                        ),
                        imo_star_per_hour=incidents_per_hour(
                            p_old_scenario_per_frame(ber, n_nodes, frame_bits),
                            scaled,
                        ),
                    )
                )
    return points


@dataclass(frozen=True)
class OmissionDegreeRevision:
    """CAN6 vs CAN6': expected omission counts in a reference interval."""

    ber: float
    t_rd_hours: float
    j_old_scenarios: float
    j_prime_with_new: float

    @property
    def inflation(self) -> float:
        """j' / j: how much the new scenarios inflate the degree."""
        if self.j_old_scenarios == 0.0:
            return float("inf")
        return self.j_prime_with_new / self.j_old_scenarios


def omission_degree_revision(
    ber: float,
    t_rd_hours: float = 1.0,
    profile: NetworkProfile = PAPER_PROFILE,
) -> OmissionDegreeRevision:
    """Quantify the paper's CAN6 -> CAN6' property revision.

    ``j`` bounds the expected inconsistent omissions per reference
    interval under the previously known scenarios (equation 5); ``j'``
    adds the new scenarios (equation 4).  The paper states only that
    "j' is larger than the previous j"; this computes by how much.
    """
    if t_rd_hours <= 0:
        raise AnalysisError("the reference interval must be positive")
    old_rate = incidents_per_hour(
        p_old_scenario_per_frame(ber, profile.n_nodes, profile.frame_bits), profile
    )
    new_rate = incidents_per_hour(
        p_new_scenario_per_frame(ber, profile.n_nodes, profile.frame_bits), profile
    )
    return OmissionDegreeRevision(
        ber=ber,
        t_rd_hours=t_rd_hours,
        j_old_scenarios=old_rate * t_rd_hours,
        j_prime_with_new=(old_rate + new_rate) * t_rd_hours,
    )


@dataclass(frozen=True)
class MAblationRow:
    """One row of the m-choice ablation."""

    m: int
    best_case_bits: int
    worst_case_bits: int
    tail_errors_verified: int
    tail_consistent: bool
    f1_channel_closed: Optional[bool]
    #: Batch-backend provenance counters summed over the row's
    #: verifications (None on the engine backend).
    backend_stats: Optional[dict] = None


def ablation_row(
    m: int,
    tail_flips: int = 1,
    check_f1: bool = True,
    n_nodes: int = 3,
    backend: str = "engine",
) -> MAblationRow:
    """Compute one m-value row of the ablation (worker-side entry)."""
    node_names = placement_node_names(n_nodes)
    tail = verify_consistency(
        "majorcan", m=m, n_nodes=n_nodes, max_flips=tail_flips, backend=backend
    )
    f1_closed: Optional[bool] = None
    f1 = None
    if check_f1:
        f1 = verify_consistency(
            "majorcan",
            m=m,
            n_nodes=n_nodes,
            max_flips=1,
            extra_sites=header_sites(node_names, data_bits=0),
            backend=backend,
        )
        f1_closed = f1.holds
    stats = merge_stats([tail.backend_stats, f1 and f1.backend_stats]) or None
    return MAblationRow(
        m=m,
        best_case_bits=best_case_overhead_bits(m),
        worst_case_bits=worst_case_overhead_bits(m),
        tail_errors_verified=tail.runs,
        tail_consistent=tail.holds,
        f1_channel_closed=f1_closed,
        backend_stats=stats,
    )


def m_ablation(
    m_values: Sequence[int] = (3, 4, 5, 6, 7),
    tail_flips: int = 1,
    check_f1: bool = True,
    n_nodes: int = 3,
    jobs: Optional[int] = 1,
    backend: str = "engine",
) -> List[MAblationRow]:
    """Ablate the choice of m (the paper proposes m = 5).

    For each m: the frame overhead, a bounded verification over the
    paper's tail-error universe with ``tail_flips`` simultaneous
    errors, and whether the finding-F1 desynchronisation channel is
    closed (requires the node's 6-bit flag, starting six bits after
    the ACK slot, to land in the *first* sub-field: m >= 6).

    The per-m rows are independent, so ``jobs > 1`` computes them on
    the worker pool (one task per m; each task's verification runs
    serially to avoid nested pools).  Row order follows ``m_values``.
    """
    tasks = [
        partial(
            ablation_row,
            m=m,
            tail_flips=tail_flips,
            check_f1=check_f1,
            n_nodes=n_nodes,
            backend=backend,
        )
        for m in m_values
    ]
    return run_tasks(tasks, jobs)
