"""The FTCS'98 higher-level broadcast protocols (the paper's baselines)."""

from repro._namespace import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "base": (
            "AppMessage", "AppNode", "BroadcastProtocol", "KIND_ACCEPT", "KIND_CONFIRM",
            "KIND_DATA", "KIND_RETRANS", "app_ledger", "build_protocol_network", "decode_message",
            "encode_message", "message_ledger_key",
        ),
        "edcan": ("EdcanProtocol",),
        "relcan": ("RelcanProtocol",),
        "stats": (
            "BandwidthReport", "bandwidth_comparison", "measure_hlp_bandwidth",
            "measure_majorcan_bandwidth",
        ),
        "totcan": ("TotcanProtocol",),
        "registry": ("PROTOCOL_FACTORIES",),
    },
)
