"""Bit-synchronous bus simulation substrate."""

from repro._namespace import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "bus": ("Bus",),
        "engine": ("FaultInjector", "SimulationEngine"),
        "rng": ("make_rng", "spawn"),
        "trace": ("BitRecord", "Trace"),
    },
)
