"""Analytical models: probabilities (eq. 1-5), Table 1, overheads."""

from repro.analysis.batchreplay import (
    BatchReplayEvaluator,
    EngineClassifier,
    Placements,
    placement_classifier,
    tail_shape,
)
from repro.analysis.enumeration import (
    EnumerationResult,
    PatternOutcome,
    enumerate_tail_patterns,
    equation4_tail_prediction,
)
from repro.analysis.overhead import (
    MeasuredOverhead,
    best_case_overhead_bits,
    higher_level_protocol_overhead_bits,
    measured_overhead,
    worst_case_extension_bits,
    worst_case_overhead_bits,
)
from repro.analysis.probability import (
    dominant_term_ratio,
    p_new_scenario_per_frame,
    p_old_scenario_per_frame,
)
from repro.analysis.rates import (
    hours_between_incidents,
    incidents_per_hour,
    meets_reference,
)
from repro.analysis.geometry import (
    GeometryCheck,
    derive_geometry,
    geometry_report,
    verify_geometry,
)
from repro.analysis.montecarlo import (
    MonteCarloResult,
    monte_carlo_full,
    monte_carlo_tail,
    wilson_interval,
)
from repro.analysis.reliability import (
    ReliabilityRow,
    hours_to_reliability,
    mean_time_to_failure_hours,
    mission_reliability,
    reliability_comparison,
)
from repro.analysis.residual import (
    ResidualRow,
    p_more_than_m_errors,
    residual_rate_tail_bound,
    residual_rate_upper_bound,
    residual_table,
    smallest_m_meeting_target,
)
from repro.analysis.sweeps import (
    MAblationRow,
    OmissionDegreeRevision,
    SweepPoint,
    imo_rate_sweep,
    m_ablation,
    omission_degree_revision,
)
from repro.analysis.verification import (
    Counterexample,
    VerificationResult,
    header_sites,
    tail_sites,
    verify_consistency,
)
from repro.analysis.table1 import (
    PAPER_TABLE1,
    RUFINO_IMO_PER_HOUR,
    Table1Row,
    generate_table1,
    relative_error,
    render_table1,
)

__all__ = [
    "BatchReplayEvaluator",
    "Counterexample",
    "EngineClassifier",
    "Placements",
    "placement_classifier",
    "tail_shape",
    "MAblationRow",
    "MonteCarloResult",
    "OmissionDegreeRevision",
    "ReliabilityRow",
    "ResidualRow",
    "SweepPoint",
    "EnumerationResult",
    "GeometryCheck",
    "MeasuredOverhead",
    "PAPER_TABLE1",
    "PatternOutcome",
    "RUFINO_IMO_PER_HOUR",
    "Table1Row",
    "best_case_overhead_bits",
    "derive_geometry",
    "dominant_term_ratio",
    "enumerate_tail_patterns",
    "equation4_tail_prediction",
    "generate_table1",
    "geometry_report",
    "higher_level_protocol_overhead_bits",
    "hours_between_incidents",
    "hours_to_reliability",
    "incidents_per_hour",
    "imo_rate_sweep",
    "m_ablation",
    "mean_time_to_failure_hours",
    "mission_reliability",
    "measured_overhead",
    "meets_reference",
    "monte_carlo_full",
    "monte_carlo_tail",
    "omission_degree_revision",
    "p_more_than_m_errors",
    "p_new_scenario_per_frame",
    "p_old_scenario_per_frame",
    "relative_error",
    "reliability_comparison",
    "residual_rate_tail_bound",
    "residual_rate_upper_bound",
    "residual_table",
    "smallest_m_meeting_target",
    "render_table1",
    "VerificationResult",
    "header_sites",
    "tail_sites",
    "verify_consistency",
    "verify_geometry",
    "wilson_interval",
    "worst_case_extension_bits",
    "worst_case_overhead_bits",
]
