"""Fault injection: deterministic scenario scripts and random models."""

from repro.faults.bit_errors import (
    BurstViewErrorInjector,
    ErrorBudgetInjector,
    RandomViewErrorInjector,
)
from repro.faults.campaigns import (
    CampaignOutcome,
    CampaignSpec,
    compare_protocols,
    run_campaign,
)
from repro.faults.crash import (
    PAPER_DELTA_T_HOURS,
    PAPER_LAMBDA_PER_HOUR,
    crash_probability,
)
from repro.faults.injector import (
    CompositeInjector,
    CrashFault,
    DriveFault,
    ScriptedInjector,
    Trigger,
    ViewFault,
    injector_from_dict,
)
from repro.faults.models import (
    REFERENCE_INCIDENT_RATE,
    TABLE1_BER_VALUES,
    ber_star,
    p_eff,
)
from repro.faults.scenarios import (
    PROTOCOLS,
    SCENARIOS,
    BehaviourRow,
    ScenarioOutcome,
    fig1a,
    fig1b,
    fig1c,
    fig3,
    fig3a,
    fig3b,
    fig4_behaviour,
    fig5,
    make_controller,
    render_behaviour,
    run_single_frame_scenario,
)

__all__ = [
    "BehaviourRow",
    "BurstViewErrorInjector",
    "CampaignOutcome",
    "CampaignSpec",
    "CompositeInjector",
    "CrashFault",
    "DriveFault",
    "ErrorBudgetInjector",
    "PAPER_DELTA_T_HOURS",
    "PAPER_LAMBDA_PER_HOUR",
    "PROTOCOLS",
    "RandomViewErrorInjector",
    "REFERENCE_INCIDENT_RATE",
    "SCENARIOS",
    "ScenarioOutcome",
    "ScriptedInjector",
    "TABLE1_BER_VALUES",
    "Trigger",
    "ViewFault",
    "ber_star",
    "compare_protocols",
    "crash_probability",
    "fig1a",
    "fig1b",
    "fig1c",
    "fig3",
    "fig3a",
    "fig3b",
    "fig4_behaviour",
    "fig5",
    "injector_from_dict",
    "make_controller",
    "render_behaviour",
    "p_eff",
    "run_campaign",
    "run_single_frame_scenario",
]
