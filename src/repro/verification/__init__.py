"""Protocol verification: invariants, value consistency, differential
cross-protocol trace replay (contended random-tester traces included), and
fuzz campaigns with trace shrinking."""

from .campaign import (
    CAMPAIGNS,
    CampaignResult,
    CampaignSpec,
    DEEP_CAMPAIGN,
    QUICK_CAMPAIGN,
    TaskOutcome,
    VerificationCampaign,
    VerificationTask,
    load_artifact,
    replay_artifact,
    run_campaign,
    run_campaign_tasks,
    run_task,
    shrink_trace,
    write_artifact,
)
from .consistency import ConsistencyChecker, ObservedAccess
from .differential import (
    DifferentialResult,
    MemoryTrace,
    ReplayConfig,
    ReplayResult,
    TraceOp,
    TraceReplayer,
    WindowedTraceSource,
    generate_trace,
    run_differential,
)
from .invariants import (
    InvariantMonitor,
    InvariantReport,
    check_invariants,
    check_settled_block,
    check_single_owner,
)

__all__ = [
    "CAMPAIGNS",
    "CampaignResult",
    "CampaignSpec",
    "ConsistencyChecker",
    "DEEP_CAMPAIGN",
    "DifferentialResult",
    "InvariantMonitor",
    "InvariantReport",
    "MemoryTrace",
    "ObservedAccess",
    "QUICK_CAMPAIGN",
    "ReplayConfig",
    "ReplayResult",
    "TaskOutcome",
    "TraceOp",
    "TraceReplayer",
    "VerificationCampaign",
    "VerificationTask",
    "WindowedTraceSource",
    "check_invariants",
    "check_settled_block",
    "check_single_owner",
    "generate_trace",
    "load_artifact",
    "replay_artifact",
    "run_campaign",
    "run_campaign_tasks",
    "run_differential",
    "run_task",
    "shrink_trace",
    "write_artifact",
]
