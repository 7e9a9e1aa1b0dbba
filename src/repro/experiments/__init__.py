"""Experiment harness: the scenario registry behind every figure and table of the evaluation."""

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
