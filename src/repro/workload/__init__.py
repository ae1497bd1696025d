"""Workload generation and the paper's evaluation profile."""

from repro._namespace import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "generator": (
            "PeriodicSource", "PoissonSource", "attach_sources", "measured_bus_load",
            "periodic_sources_for_profile",
        ),
        "profiles": ("PAPER_PROFILE", "NetworkProfile"),
    },
)
