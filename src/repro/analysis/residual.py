"""The residual failure rate of MajorCAN_m.

The paper guarantees Atomic Broadcast "in the presence of up to m
randomly distributed errors per frame" — so the honest question for a
deployment is: *how often do more than m errors strike one frame?*
This module brackets that residual rate under the paper's own spatial
error model (each of N nodes flips each bit's view independently with
``ber* = ber/N``):

* an **upper bound** counts any frame with more than m view errors
  anywhere (pessimistic: most such patterns — e.g. all errors
  mid-frame — still resolve consistently via ordinary retransmission);
* a **tail-window bound** counts only frames with more than m errors
  inside the agreement-critical region (the frame tail plus the
  sampling window), which is where consistency is actually decided.

The punchline, reproduced by the tests and the benchmark: with the
paper's proposal m = 5, the residual stays below the 1e-9/hour target
for ber <= 1e-5, but the *upper bound* exceeds it at the aggressive
ber = 1e-4 — choosing m is genuinely a function of the environment,
exactly as Section 5 remarks ("if ber is larger then larger values of
m should be considered").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from repro.analysis.rates import incidents_per_hour
from repro.can.geometry import frame_end
from repro.errors import AnalysisError
from repro.faults.models import ber_star
from repro.workload.profiles import PAPER_PROFILE, NetworkProfile


def p_more_than_m_errors(
    ber: float,
    m: int,
    n_nodes: int,
    exposed_bits: int,
) -> float:
    """P{more than m view errors among N * exposed_bits sites}."""
    if m < 0:
        raise AnalysisError("m must be non-negative")
    if exposed_bits < 1:
        raise AnalysisError("at least one exposed bit required")
    b = ber_star(ber, n_nodes)
    sites = n_nodes * exposed_bits
    return _binom_sf(m, sites, b)


def _binom_sf(m: int, n: int, p: float) -> float:
    """P(X > m) for X ~ Binomial(n, p), summed from the tail upward.

    Summing the upper tail directly avoids the catastrophic
    cancellation of ``1 - cdf`` at the tiny probabilities this module
    works with; terms past the mode decay geometrically, so truncation
    once a term stops contributing keeps the sum exact to double
    precision.
    """
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0 if m < n else 0.0
    total = 0.0
    for k in range(m + 1, n + 1):
        term = math.comb(n, k) * (p**k) * ((1.0 - p) ** (n - k))
        total += term
        if term < total * 1e-18 and k > n * p:
            break
    return min(1.0, total)


def residual_rate_upper_bound(
    ber: float,
    m: int,
    profile: NetworkProfile = PAPER_PROFILE,
) -> float:
    """Residual incidents/hour counting any frame with > m errors.

    Exposure: every bit of the frame plus the MajorCAN agreement
    window (EOF-relative bits up to 3m+5).
    """
    exposed = profile.frame_bits + frame_end("majorcan", m).window_end
    per_frame = p_more_than_m_errors(ber, m, profile.n_nodes, exposed)
    return incidents_per_hour(per_frame, profile)


def residual_rate_tail_bound(
    ber: float,
    m: int,
    profile: NetworkProfile = PAPER_PROFILE,
) -> float:
    """Residual incidents/hour counting > m errors in the tail region.

    Exposure: the agreement-critical bits only — the ACK field, the 2m
    EOF bits and the sampling window through bit 3m+5 (a further ~3
    bits of delimiter margin included).
    """
    exposed = 2 + frame_end("majorcan", m).window_end + 3
    per_frame = p_more_than_m_errors(ber, m, profile.n_nodes, exposed)
    return incidents_per_hour(per_frame, profile)


@dataclass(frozen=True)
class ResidualRow:
    """Residual-rate bracket for one (ber, m) pair."""

    ber: float
    m: int
    upper_bound_per_hour: float
    tail_bound_per_hour: float
    meets_target_upper: bool
    meets_target_tail: bool


def residual_table(
    ber_values: Sequence[float] = (1e-4, 1e-5, 1e-6),
    m_values: Sequence[int] = (3, 5, 7),
    target: float = 1e-9,
    profile: NetworkProfile = PAPER_PROFILE,
) -> List[ResidualRow]:
    """Residual-rate bracket over a (ber, m) grid."""
    rows = []
    for ber in ber_values:
        for m in m_values:
            upper = residual_rate_upper_bound(ber, m, profile)
            tail = residual_rate_tail_bound(ber, m, profile)
            rows.append(
                ResidualRow(
                    ber=ber,
                    m=m,
                    upper_bound_per_hour=upper,
                    tail_bound_per_hour=tail,
                    meets_target_upper=upper <= target,
                    meets_target_tail=tail <= target,
                )
            )
    return rows


def smallest_m_meeting_target(
    ber: float,
    target: float = 1e-9,
    profile: NetworkProfile = PAPER_PROFILE,
    max_m: int = 32,
) -> int:
    """The smallest m whose residual-rate upper bound meets a
    dependability target.

    This is the design rule the paper sketches in Section 5 ("this
    decision strongly depends on the ber value"), made computable.
    """
    for m in range(3, max_m + 1):
        if residual_rate_upper_bound(ber, m, profile) <= target:
            return m
    raise AnalysisError(
        "no m up to %d meets %.1e/hour at ber %.1e" % (max_m, target, ber)
    )
