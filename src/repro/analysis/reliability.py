"""Mission-reliability view of the Table 1 rates.

Table 1 reports incident *rates*; dependability engineering asks the
complementary question: what is the probability that a mission of T
hours completes without a single inconsistent omission?  With
independent per-frame failures the incident process is Poisson, so::

    R(T) = exp(-rate * T)         MTTF = 1 / rate

This module derives mission reliability and mean time to failure for
each protocol/scenario family, quantifying the paper's qualitative
claim that standard CAN cannot meet the 1e-9/hour aerospace target
while MajorCAN_m removes the channel-error failure modes entirely
(leaving only residual channels such as > m errors per frame, or the
finding-F1 desynchronisation for m <= 5, both outside equation 4's
universe).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.analysis.probability import (
    p_new_scenario_per_frame,
    p_old_scenario_per_frame,
)
from repro.analysis.rates import incidents_per_hour
from repro.errors import AnalysisError
from repro.parallel.pool import run_tasks
from repro.workload.profiles import PAPER_PROFILE, NetworkProfile


def mission_reliability(rate_per_hour: float, mission_hours: float) -> float:
    """Probability of surviving ``mission_hours`` without an incident."""
    if rate_per_hour < 0 or mission_hours < 0:
        raise AnalysisError("rates and durations must be non-negative")
    return math.exp(-rate_per_hour * mission_hours)


def mean_time_to_failure_hours(rate_per_hour: float) -> float:
    """Mean time to the first incident (inf for a zero rate)."""
    if rate_per_hour < 0:
        raise AnalysisError("rates must be non-negative")
    if rate_per_hour == 0.0:
        return float("inf")
    return 1.0 / rate_per_hour


@dataclass(frozen=True)
class ReliabilityRow:
    """Reliability of one protocol at one error rate."""

    protocol: str
    ber: float
    imo_rate_per_hour: float
    mttf_hours: float
    mission_survival: Dict[float, float]
    #: Batch-backend provenance counters for the enumerated rate
    #: (``None`` for the closed-form and engine backends).
    backend_stats: Optional[dict] = None


#: Display name -> simulator protocol key for the empirical backends.
_PROTOCOL_KEYS = (("CAN", "can"), ("MinorCAN", "minorcan"), ("MajorCAN", "majorcan"))

#: Tail-window universe behind the enumerated (empirical) rates: the
#: smallest network exhibiting the scenarios, over the last two EOF
#: bits — the same universe :func:`repro.analysis.enumeration`
#: validates equation 4 against.
_EMPIRICAL_N_NODES = 3
_EMPIRICAL_WINDOW = 2


def reliability_comparison(
    ber: float,
    mission_hours: Sequence[float] = (1.0, 1000.0, 100000.0),
    profile: NetworkProfile = PAPER_PROFILE,
    backend: Optional[str] = None,
    m: int = 5,
) -> List[ReliabilityRow]:
    """Compare the channel-error IMO reliability of the protocols.

    * standard CAN is exposed to both scenario families (eq. 4 + 5);
    * MinorCAN removes the old family (its last-bit rule fixes the
      Fig. 1 scenarios) but keeps the new one (eq. 4);
    * MajorCAN_m removes both (within the <= m channel-error model the
      paper analyses — the residual rate is 0 in this model).

    ``backend=None`` derives the rates from the closed-form equations.
    ``"engine"`` and ``"batch"`` instead *measure* the per-frame IMO
    probability by enumerating every tail-window error pattern on the
    bit-level simulator (per-bit engine runs vs. the vectorised replay
    of :mod:`repro.analysis.batchreplay` — identical rates), then scale
    it to the profile's frame rate.
    """
    if backend not in (None, "engine", "batch"):
        raise AnalysisError(
            "unknown backend %r (use None, 'engine' or 'batch')" % (backend,)
        )
    if backend is None:
        new_rate = incidents_per_hour(
            p_new_scenario_per_frame(ber, profile.n_nodes, profile.frame_bits),
            profile,
        )
        old_rate = incidents_per_hour(
            p_old_scenario_per_frame(ber, profile.n_nodes, profile.frame_bits),
            profile,
        )
        rates = [
            ("CAN", new_rate + old_rate, None),
            ("MinorCAN", new_rate, None),
            ("MajorCAN", 0.0, None),
        ]
    else:
        from repro.analysis.enumeration import enumerate_tail_patterns

        rates = []
        for display, key in _PROTOCOL_KEYS:
            enumerated = enumerate_tail_patterns(
                protocol=key,
                n_nodes=_EMPIRICAL_N_NODES,
                window=_EMPIRICAL_WINDOW,
                ber_star=ber,
                tau_data=profile.frame_bits,
                m=m,
                backend=backend,
            )
            rates.append(
                (
                    display,
                    incidents_per_hour(
                        enumerated.p_inconsistent_omission, profile
                    ),
                    enumerated.backend_stats,
                )
            )
    rows = []
    for protocol, rate, stats in rates:
        rows.append(
            ReliabilityRow(
                protocol=protocol,
                ber=ber,
                imo_rate_per_hour=rate,
                mttf_hours=mean_time_to_failure_hours(rate),
                mission_survival={
                    hours: mission_reliability(rate, hours)
                    for hours in mission_hours
                },
                backend_stats=stats,
            )
        )
    return rows


def reliability_sweep(
    ber_values: Sequence[float],
    mission_hours: Sequence[float] = (1.0, 1000.0, 100000.0),
    profile: NetworkProfile = PAPER_PROFILE,
    jobs: Optional[int] = 1,
    backend: Optional[str] = None,
    m: int = 5,
) -> Dict[float, List[ReliabilityRow]]:
    """:func:`reliability_comparison` over many bit-error rates.

    Each BER point is an independent task on the worker pool; the
    returned mapping preserves the order of ``ber_values`` and is
    identical for any ``jobs`` and either empirical backend.
    """
    tasks = [
        partial(
            reliability_comparison,
            ber,
            mission_hours=tuple(mission_hours),
            profile=profile,
            backend=backend,
            m=m,
        )
        for ber in ber_values
    ]
    results = run_tasks(tasks, jobs)
    return dict(zip(ber_values, results))


def hours_to_reliability(rate_per_hour: float, target: float) -> float:
    """Longest mission that still meets a survival probability target.

    Solves ``exp(-rate * T) >= target`` for T.
    """
    if not 0.0 < target < 1.0:
        raise AnalysisError("target must be a probability in (0, 1)")
    if rate_per_hour <= 0.0:
        return float("inf")
    return -math.log(target) / rate_per_hour
