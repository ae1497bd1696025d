"""The crash-failure process of the analytical comparison.

The paper's failure model allows *benign* node failures; the relevant
one for the Fig. 1c scenario is a transmitter crash that impedes the
retransmission of a rejected frame.  Simulated crashes are injected
with :class:`repro.faults.injector.CrashFault`; this module holds the
exponential crash process used by the analytical comparison (the
``1 - exp(-lambda * dt)`` factor in equation 5).
"""

from __future__ import annotations

import math

from repro.errors import AnalysisError

#: The transmitter failure rate used in the paper's Table 1:
#: lambda = 1e-3 failures/hour (the maximum considered in [10]).
PAPER_LAMBDA_PER_HOUR = 1e-3

#: The vulnerability window used in the paper's Table 1: dt = 5 ms.
PAPER_DELTA_T_HOURS = 5e-3 / 3600.0


def crash_probability(lambda_per_hour: float, delta_t_hours: float) -> float:
    """``1 - exp(-lambda * dt)``: probability of a crash within a window.

    This is the transmitter-failure factor of equation 5, evaluated in
    the paper with ``lambda = 1e-3 /h`` and ``dt = 5 ms``.
    """
    if lambda_per_hour < 0 or delta_t_hours < 0:
        raise AnalysisError("rates and windows must be non-negative")
    return 1.0 - math.exp(-lambda_per_hour * delta_t_hours)
