"""Fault injection: deterministic scenario scripts and random models."""

from repro._namespace import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "bit_errors": ("BurstViewErrorInjector", "ErrorBudgetInjector", "RandomViewErrorInjector"),
        "campaigns": ("CampaignOutcome", "CampaignSpec", "compare_protocols", "run_campaign"),
        "crash": ("PAPER_DELTA_T_HOURS", "PAPER_LAMBDA_PER_HOUR", "crash_probability"),
        "injector": (
            "CompositeInjector", "CrashFault", "DriveFault", "ScriptedInjector", "Trigger",
            "ViewFault", "injector_from_dict",
        ),
        "models": ("REFERENCE_INCIDENT_RATE", "TABLE1_BER_VALUES", "ber_star", "p_eff"),
        "scenarios": (
            "PROTOCOLS", "SCENARIOS", "BehaviourRow", "ScenarioOutcome", "fig1a", "fig1b", "fig1c",
            "fig3", "fig3a", "fig3b", "fig4_behaviour", "fig5", "make_controller",
            "render_behaviour", "run_single_frame_scenario",
        ),
    },
)
