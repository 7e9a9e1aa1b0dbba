"""Experiment harness: the scenario registry behind every figure and table of the evaluation.

The names below load their modules on first use (see ``repro._exports``):
importing :mod:`repro.experiments.runner` to build one point does not load
the scenario registry, the job store or the service.
"""

from typing import TYPE_CHECKING

from .._exports import lazy_exports

if TYPE_CHECKING:
    from .report import (
        crossover_summary,
        format_bars,
        format_curves,
        format_frame,
        format_normalized,
    )
    from .jobstore import JobStore, Lease, WorkUnit
    from .runner import PAPER, PROTOCOLS, QUICK, ExperimentScale, SweepPoint, run_point
    from .scenario import (
        SCALES,
        SCENARIOS,
        AnalyticScenario,
        GridScenario,
        ScenarioResult,
        get_scenario,
        register,
        register_scale,
        run_scenario,
        scenario_names,
    )
    from .service import (
        CampaignService,
        FaultPlan,
        ServiceConfig,
        ServiceSummary,
        run_service_campaign,
        run_service_sweep,
        run_worker,
    )
    from .study import Axis, ResultFrame, StudyError, StudyGrid, to_jsonable

__all__ = [
    "crossover_summary",
    "format_bars",
    "format_curves",
    "format_frame",
    "format_normalized",
    "PAPER",
    "PROTOCOLS",
    "QUICK",
    "ExperimentScale",
    "SweepPoint",
    "run_point",
    "SCALES",
    "SCENARIOS",
    "AnalyticScenario",
    "GridScenario",
    "ScenarioResult",
    "get_scenario",
    "register",
    "register_scale",
    "run_scenario",
    "scenario_names",
    "Axis",
    "ResultFrame",
    "StudyError",
    "StudyGrid",
    "to_jsonable",
    "JobStore",
    "Lease",
    "WorkUnit",
    "CampaignService",
    "FaultPlan",
    "ServiceConfig",
    "ServiceSummary",
    "run_service_campaign",
    "run_service_sweep",
    "run_worker",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".report": (
            "crossover_summary",
            "format_bars",
            "format_curves",
            "format_frame",
            "format_normalized",
        ),
        ".jobstore": ("JobStore", "Lease", "WorkUnit"),
        ".runner": (
            "PAPER",
            "PROTOCOLS",
            "QUICK",
            "ExperimentScale",
            "SweepPoint",
            "run_point",
        ),
        ".scenario": (
            "SCALES",
            "SCENARIOS",
            "AnalyticScenario",
            "GridScenario",
            "ScenarioResult",
            "get_scenario",
            "register",
            "register_scale",
            "run_scenario",
            "scenario_names",
        ),
        ".service": (
            "CampaignService",
            "FaultPlan",
            "ServiceConfig",
            "ServiceSummary",
            "run_service_campaign",
            "run_service_sweep",
            "run_worker",
        ),
        ".study": ("Axis", "ResultFrame", "StudyError", "StudyGrid", "to_jsonable"),
    },
)
