"""Analytical models: probabilities (eq. 1-5), Table 1, overheads."""

from repro._namespace import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "batchreplay": (
            "BatchReplayEvaluator", "EngineClassifier", "Placements", "placement_classifier",
        ),
        "enumeration": (
            "EnumerationResult", "PatternOutcome", "enumerate_tail_patterns",
            "equation4_tail_prediction",
        ),
        "overhead": (
            "MeasuredOverhead", "best_case_overhead_bits", "higher_level_protocol_overhead_bits",
            "measured_overhead", "worst_case_extension_bits", "worst_case_overhead_bits",
        ),
        "probability": (
            "dominant_term_ratio", "p_new_scenario_per_frame", "p_old_scenario_per_frame",
        ),
        "rates": ("hours_between_incidents", "incidents_per_hour", "meets_reference"),
        "geometry": ("GeometryCheck", "derive_geometry", "geometry_report", "verify_geometry"),
        "montecarlo": (
            "MonteCarloResult", "monte_carlo_full", "monte_carlo_tail", "wilson_interval",
        ),
        "reliability": (
            "ReliabilityRow", "hours_to_reliability", "mean_time_to_failure_hours",
            "mission_reliability", "reliability_comparison",
        ),
        "residual": (
            "ResidualRow", "p_more_than_m_errors", "residual_rate_tail_bound",
            "residual_rate_upper_bound", "residual_table", "smallest_m_meeting_target",
        ),
        "sweeps": (
            "MAblationRow", "OmissionDegreeRevision", "SweepPoint", "imo_rate_sweep", "m_ablation",
            "omission_degree_revision",
        ),
        "verification": (
            "Counterexample", "VerificationResult", "header_sites", "tail_sites",
            "verify_consistency",
        ),
        "table1": (
            "PAPER_TABLE1", "RUFINO_IMO_PER_HOUR", "Table1Row", "generate_table1",
            "relative_error", "render_table1",
        ),
    },
)
