"""Executable Atomic Broadcast (AB1-AB5) and CAN property checkers."""

from repro._namespace import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "broadcast": (
            "AB1", "AB2", "AB3", "AB4", "AB5", "ALL_PROPERTIES", "PropertyResult",
            "check_agreement", "check_at_most_once", "check_atomic_broadcast",
            "check_non_triviality", "check_total_order", "check_validity", "is_atomic_broadcast",
            "is_reliable_broadcast",
        ),
        "can_properties": (
            "CAN1", "CAN2", "CAN2_PRIME", "CAN3", "CAN4", "CAN6", "OmissionClassification",
            "OmissionDegree", "check_can2_best_effort_agreement", "classify_omissions",
            "omission_degree",
        ),
        "ledger": ("DeliveryFlags", "NodeLedger", "SystemLedger", "delivery_flags", "wire_key"),
    },
)
