"""Media redundancy: the dual-CAN architecture of the paper's ref. [2]."""

from repro._namespace import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "dualbus": ("CHANNELS", "DualBusNode", "DualBusOutcome", "DualBusSystem"),
    },
)
