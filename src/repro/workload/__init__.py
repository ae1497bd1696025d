"""The paper's evaluation profile (:class:`NetworkProfile`).

Traffic itself is built from a :class:`repro.traffic.TrafficSpec` by
:func:`repro.traffic.build_schedule`.
"""

from repro._namespace import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "profiles": ("PAPER_PROFILE", "NetworkProfile"),
    },
)
