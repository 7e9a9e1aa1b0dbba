"""Campaign engine: fuzz all three protocols at sweep-executor scale.

A :class:`VerificationCampaign` fans verification *tasks* — differential
trace replays (see :mod:`repro.verification.differential`) and random-tester
runs (see :mod:`repro.verification.random_tester`) — across seeds × protocols
× configuration axes (processors, hot blocks, bandwidth, outstanding
operations per node, adaptive thresholds, cache capacity).  Execution mirrors
the experiment sweep executor: tasks run on a process pool when workers are
available (each worker keeps one :class:`~repro.experiments.batch.BatchRunner`
whose pooled systems are *reset*, not rebuilt, between tasks) and fall back
to a serial loop in restricted sandboxes.

When a task fails, the campaign **shrinks** the failing trace to a minimal
reproducer — greedy chunked op-removal, re-running the differential checker
after every removal — and writes it as a replayable JSON artifact.  Load one
back with :func:`load_artifact` / :func:`replay_artifact`, or from the shell::

    python -m repro verify --campaign quick
    python - <<'PY'
    from repro.verification.campaign import replay_artifact
    print(replay_artifact("verification-failures/....json").failures)
    PY
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..common.config import ProtocolName
from ..errors import VerificationError
from ..experiments.batch import BatchRunner
from ..experiments.parallel import (
    available_workers,
    chunk_indices,
    process_runner,
    resolve_task_timeout,
    run_pool,
)
from .differential import (
    ALL_PROTOCOLS,
    MemoryTrace,
    RACY,
    ReplayConfig,
    STRICT,
    generate_trace,
    run_differential,
)
from .random_tester import RandomProtocolTester
from .windowed import run_windowed_differential

#: Task kinds.
DIFFERENTIAL = "differential"
RANDOM = "random"
WINDOWED = "windowed"


@dataclass(frozen=True)
class VerificationTask:
    """One unit of campaign work, picklable for the process pool."""

    kind: str
    seed: int
    mode: str = RACY  # trace mode for differential tasks
    protocols: Tuple[str, ...] = tuple(str(p) for p in ALL_PROTOCOLS)
    num_processors: int = 4
    num_blocks: int = 4
    operations: int = 50
    bandwidth_mb_per_second: float = 400.0
    max_outstanding_per_node: int = 1
    utilization_threshold: float = 0.75
    cache_capacity_blocks: Optional[int] = None
    #: Windowed tasks replay this many windows of ``operations`` ops each
    #: through long-lived systems (ignored by the other kinds).
    windows: int = 1

    def trace(self) -> MemoryTrace:
        """The recorded trace a differential task replays."""
        return generate_trace(
            self.seed,
            num_processors=self.num_processors,
            num_blocks=self.num_blocks,
            operations=self.operations,
            mode=self.mode,
        )

    def replay_config(self) -> ReplayConfig:
        return ReplayConfig(
            bandwidth_mb_per_second=self.bandwidth_mb_per_second,
            max_outstanding_per_node=self.max_outstanding_per_node,
            utilization_threshold=self.utilization_threshold,
            cache_capacity_blocks=self.cache_capacity_blocks,
        )

    def describe(self) -> str:
        axes = (
            f"seed={self.seed} p={self.num_processors} blocks={self.num_blocks} "
            f"bw={self.bandwidth_mb_per_second:g} out={self.max_outstanding_per_node}"
        )
        if self.kind == DIFFERENTIAL:
            return f"differential[{self.mode}] {axes}"
        if self.kind == WINDOWED:
            return f"windowed[{self.mode}] {axes} windows={self.windows}"
        return f"random[{'+'.join(self.protocols)}] {axes}"

    def to_jsonable(self) -> Dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_jsonable(cls, data: Dict) -> "VerificationTask":
        """Rebuild a task written by :meth:`to_jsonable` (tuples restored)."""
        return cls(**{**data, "protocols": tuple(data["protocols"])})


@dataclass
class TaskOutcome:
    """What one task produced (picklable; crosses the pool boundary)."""

    task: VerificationTask
    ok: bool
    failures: List[str] = field(default_factory=list)
    protocol_runs: int = 0
    operations: int = 0
    #: Structured deadlock-watchdog dumps per protocol name, when a replay
    #: stalled (see :func:`repro.verification.invariants.deadlock_dump`) —
    #: the hang evidence that artifacts and service workers persist.
    watchdog_dumps: Dict[str, Dict] = field(default_factory=dict)

    def to_jsonable(self) -> Dict:
        return {
            "task": self.task.to_jsonable(),
            "ok": self.ok,
            "failures": list(self.failures),
            "protocol_runs": self.protocol_runs,
            "operations": self.operations,
            "watchdog_dumps": dict(self.watchdog_dumps),
        }

    @classmethod
    def from_jsonable(cls, data: Dict) -> "TaskOutcome":
        """Rebuild an outcome written by :meth:`to_jsonable` (service store)."""
        return cls(
            task=VerificationTask.from_jsonable(data["task"]),
            ok=bool(data["ok"]),
            failures=list(data.get("failures", ())),
            protocol_runs=int(data.get("protocol_runs", 0)),
            operations=int(data.get("operations", 0)),
            watchdog_dumps=dict(data.get("watchdog_dumps", {})),
        )


def run_task(
    task: VerificationTask, runner: Optional[BatchRunner] = None
) -> TaskOutcome:
    """Execute one verification task, reusing ``runner``'s pooled systems."""
    acquire = runner.acquire if runner is not None else None
    if task.kind == DIFFERENTIAL:
        trace = task.trace()
        result = run_differential(
            trace,
            protocols=[ProtocolName(p) for p in task.protocols],
            replay=task.replay_config(),
            acquire=acquire,
        )
        return TaskOutcome(
            task=task,
            ok=result.ok,
            failures=list(result.failures),
            protocol_runs=len(result.results),
            operations=len(trace.ops) * len(result.results),
            watchdog_dumps={
                str(protocol): replay_result.watchdog_failure
                for protocol, replay_result in result.results.items()
                if replay_result.watchdog_failure is not None
            },
        )
    if task.kind == WINDOWED:
        windowed = run_windowed_differential(
            task.seed,
            windows=task.windows,
            window_ops=task.operations,
            num_processors=task.num_processors,
            num_blocks=task.num_blocks,
            mode=task.mode,
            protocols=[ProtocolName(p) for p in task.protocols],
            replay=task.replay_config(),
            acquire=acquire,
        )
        return TaskOutcome(
            task=task,
            ok=windowed.ok,
            failures=list(windowed.failures),
            protocol_runs=len(task.protocols),
            operations=windowed.operations * len(task.protocols),
            watchdog_dumps=dict(windowed.watchdog_dumps),
        )
    if task.kind == RANDOM:
        failures: List[str] = []
        runs = 0
        operations = 0
        for protocol in task.protocols:
            tester = RandomProtocolTester(
                ProtocolName(protocol),
                num_processors=task.num_processors,
                num_blocks=task.num_blocks,
                operations=task.operations,
                seed=task.seed + 1,
                bandwidth_mb_per_second=task.bandwidth_mb_per_second,
                max_outstanding_per_node=task.max_outstanding_per_node,
                acquire=acquire,
            )
            result = tester.run()
            runs += 1
            operations += result.operations_issued
            if not result.ok:
                failures.extend(result.describe_failures())
        return TaskOutcome(
            task=task,
            ok=not failures,
            failures=failures,
            protocol_runs=runs,
            operations=operations,
        )
    raise VerificationError(f"unknown verification task kind {task.kind!r}")


# ------------------------------------------------------------------ shrinking


def shrink_trace(
    trace: MemoryTrace,
    still_failing: Callable[[MemoryTrace], bool],
    max_probes: int = 400,
) -> MemoryTrace:
    """Greedily remove operations while ``still_failing`` keeps returning True.

    Classic chunked delta-reduction: try dropping halves, then quarters, down
    to single operations, re-running the checker after every candidate
    removal.  ``still_failing`` must be deterministic (differential replays
    are).  ``max_probes`` bounds the total number of checker runs.
    """
    if not still_failing(trace):
        raise VerificationError("shrink_trace called with a passing trace")
    current = trace
    probes = 0
    chunk = max(1, len(current.ops) // 2)
    while chunk >= 1:
        start = 0
        while start < len(current.ops):
            if probes >= max_probes:
                return current
            keep = [
                index
                for index in range(len(current.ops))
                if not (start <= index < start + chunk)
            ]
            if not keep:
                start += chunk
                continue
            candidate = current.subset(keep)
            probes += 1
            if still_failing(candidate):
                current = candidate
            else:
                start += chunk
        chunk //= 2
    return current


def differential_failure_predicate(
    task: VerificationTask, runner: Optional[BatchRunner] = None
) -> Callable[[MemoryTrace], bool]:
    """``still_failing`` for :func:`shrink_trace`: replay + differential check."""
    acquire = runner.acquire if runner is not None else None
    replay = task.replay_config()
    protocols = [ProtocolName(p) for p in task.protocols]

    def still_failing(candidate: MemoryTrace) -> bool:
        result = run_differential(
            candidate, protocols=protocols, replay=replay, acquire=acquire
        )
        return not result.ok

    return still_failing


# ------------------------------------------------------------------ artifacts


def write_artifact(
    directory: Path,
    task: VerificationTask,
    failures: Sequence[str],
    shrunk: Optional[MemoryTrace],
    watchdog_dumps: Optional[Dict[str, Dict]] = None,
) -> Path:
    """Persist a replayable JSON description of one campaign failure.

    ``watchdog_dumps`` embeds the deadlock watchdog's structured stall dumps
    (per protocol) so hang evidence survives the process that observed it —
    service workers write this artifact *before* committing an outcome, i.e.
    before their lease can expire.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    # Every axis that distinguishes campaign tasks appears in the name, so
    # two failing tasks can never overwrite each other's artifact.
    capacity = (
        "full" if task.cache_capacity_blocks is None else task.cache_capacity_blocks
    )
    name = (
        f"{task.kind}-{task.mode}-seed{task.seed}-p{task.num_processors}"
        f"-b{task.num_blocks}-bw{task.bandwidth_mb_per_second:g}"
        f"-out{task.max_outstanding_per_node}"
        f"-thr{task.utilization_threshold:g}-cap{capacity}.json"
    )
    path = directory / name
    payload = {
        "format": "repro-verification-failure-v1",
        "task": task.to_jsonable(),
        "replay_config": dataclasses.asdict(task.replay_config()),
        "failures": list(failures),
        "shrunk_trace": shrunk.to_jsonable() if shrunk is not None else None,
        "watchdog_dumps": dict(watchdog_dumps) if watchdog_dumps else None,
        "replay_with": (
            "python -c \"from repro.verification.campaign import replay_artifact; "
            f"print(replay_artifact('{path}').failures)\""
        ),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_artifact(path) -> Dict:
    """Load a failure artifact written by :func:`write_artifact`."""
    data = json.loads(Path(path).read_text())
    if data.get("format") != "repro-verification-failure-v1":
        raise VerificationError(f"{path} is not a verification failure artifact")
    return data


def replay_artifact(path):
    """Re-run the failing check recorded in a failure artifact.

    Differential artifacts replay the shrunk trace when one was recorded
    (the minimal reproducer), falling back to regenerating the original
    trace from the task metadata, and return a
    :class:`~repro.verification.differential.DifferentialResult`.
    Random-tester artifacts re-run the recorded task exactly (same seed and
    knobs) and return its :class:`TaskOutcome` — a differential replay of a
    synthesised trace would not reproduce what actually failed.
    """
    data = load_artifact(path)
    task = VerificationTask.from_jsonable(data["task"])
    if task.kind != DIFFERENTIAL:
        return run_task(task)
    replay = ReplayConfig(**data["replay_config"])
    if data.get("shrunk_trace"):
        trace = MemoryTrace.from_jsonable(data["shrunk_trace"])
    else:
        trace = task.trace()
    return run_differential(
        trace, protocols=[ProtocolName(p) for p in task.protocols], replay=replay
    )


# ------------------------------------------------------------------ campaigns


@dataclass(frozen=True)
class CampaignSpec:
    """Declarative description of a campaign: axes crossed with seeds."""

    name: str
    seeds: Tuple[int, ...]
    modes: Tuple[str, ...] = (STRICT, RACY)
    protocols: Tuple[str, ...] = tuple(str(p) for p in ALL_PROTOCOLS)
    processors: Tuple[int, ...] = (4,)
    blocks: Tuple[int, ...] = (4,)
    operations: int = 50
    bandwidths: Tuple[float, ...] = (400.0,)
    outstanding: Tuple[int, ...] = (1,)
    thresholds: Tuple[float, ...] = (0.75,)
    capacities: Tuple[Optional[int], ...] = (None,)
    random_seeds: Tuple[int, ...] = ()
    random_operations: int = 150
    #: Windowed differential tasks: each seed replays ``windowed_windows``
    #: windows of ``windowed_operations`` ops through long-lived systems
    #: (caches stay warm across windows; memory stays bounded per window).
    windowed_seeds: Tuple[int, ...] = ()
    windowed_windows: int = 3
    windowed_operations: int = 40

    def tasks(self) -> List[VerificationTask]:
        """Expand the axis cross-product into the campaign's task list."""
        expanded: List[VerificationTask] = []
        for seed in self.seeds:
            for mode in self.modes:
                for num_processors in self.processors:
                    for num_blocks in self.blocks:
                        for bandwidth in self.bandwidths:
                            for outstanding in self.outstanding:
                                for threshold in self.thresholds:
                                    for capacity in self.capacities:
                                        expanded.append(
                                            VerificationTask(
                                                kind=DIFFERENTIAL,
                                                seed=seed,
                                                mode=mode,
                                                protocols=self.protocols,
                                                num_processors=num_processors,
                                                num_blocks=num_blocks,
                                                operations=self.operations,
                                                bandwidth_mb_per_second=bandwidth,
                                                max_outstanding_per_node=outstanding,
                                                utilization_threshold=threshold,
                                                cache_capacity_blocks=capacity,
                                            )
                                        )
        for seed in self.windowed_seeds:
            for mode in self.modes:
                expanded.append(
                    VerificationTask(
                        kind=WINDOWED,
                        seed=seed,
                        mode=mode,
                        protocols=self.protocols,
                        num_processors=self.processors[0],
                        num_blocks=min(self.blocks),
                        operations=self.windowed_operations,
                        bandwidth_mb_per_second=self.bandwidths[0],
                        windows=self.windowed_windows,
                    )
                )
        for seed in self.random_seeds:
            for outstanding in self.outstanding:
                expanded.append(
                    VerificationTask(
                        kind=RANDOM,
                        seed=seed,
                        protocols=self.protocols,
                        num_processors=self.processors[0],
                        num_blocks=min(self.blocks),
                        operations=self.random_operations,
                        bandwidth_mb_per_second=self.bandwidths[0],
                        max_outstanding_per_node=outstanding,
                    )
                )
        return expanded

    def with_overrides(
        self,
        protocols: Optional[Sequence[str]] = None,
        seeds: Optional[Sequence[int]] = None,
    ) -> "CampaignSpec":
        """The same campaign restricted to other protocols and/or seeds."""
        changes = {}
        if protocols is not None:
            changes["protocols"] = tuple(str(ProtocolName(p)) for p in protocols)
        if seeds is not None:
            changes["seeds"] = tuple(seeds)
            if self.random_seeds:
                changes["random_seeds"] = tuple(seeds)[: len(self.random_seeds)]
            if self.windowed_seeds:
                changes["windowed_seeds"] = tuple(seeds)[
                    : len(self.windowed_seeds)
                ]
        return dataclasses.replace(self, **changes)


#: The CI smoke campaign: >= 50 differential traces x 3 protocols plus a
#: handful of random-tester runs, sized to finish in well under 90 s.
QUICK_CAMPAIGN = CampaignSpec(
    name="quick",
    seeds=tuple(range(7)),
    modes=(STRICT, RACY),
    bandwidths=(400.0, 1600.0),
    outstanding=(1, 2),
    operations=50,
    random_seeds=(0, 1),
    random_operations=150,
    windowed_seeds=(0, 1),
    windowed_windows=3,
    windowed_operations=40,
)

#: The overnight campaign: wider axes, deeper seeds.
DEEP_CAMPAIGN = CampaignSpec(
    name="deep",
    seeds=tuple(range(40)),
    modes=(STRICT, RACY),
    processors=(4, 6),
    blocks=(2, 4),
    operations=80,
    bandwidths=(200.0, 400.0, 3200.0),
    outstanding=(1, 2),
    thresholds=(0.6, 0.75),
    capacities=(None, 2),
    random_seeds=tuple(range(10)),
    random_operations=300,
    windowed_seeds=tuple(range(6)),
    windowed_windows=6,
    windowed_operations=80,
)

#: Named campaigns the CLI can select.
CAMPAIGNS: Dict[str, CampaignSpec] = {
    QUICK_CAMPAIGN.name: QUICK_CAMPAIGN,
    DEEP_CAMPAIGN.name: DEEP_CAMPAIGN,
}


@dataclass
class TaskFailure:
    """One failed task, its shrunk reproducer and (optionally) its artifact."""

    task: VerificationTask
    failures: List[str]
    shrunk_trace: Optional[MemoryTrace] = None
    artifact_path: Optional[str] = None

    def to_jsonable(self) -> Dict:
        return {
            "task": self.task.to_jsonable(),
            "failures": list(self.failures),
            "shrunk_ops": (
                len(self.shrunk_trace.ops) if self.shrunk_trace is not None else None
            ),
            "shrunk_trace": (
                self.shrunk_trace.to_jsonable()
                if self.shrunk_trace is not None
                else None
            ),
            "artifact": self.artifact_path,
        }


@dataclass
class CampaignResult:
    """Aggregate outcome of one campaign run."""

    spec: CampaignSpec
    outcomes: List[TaskOutcome]
    failures: List[TaskFailure]
    wall_seconds: float
    workers: int
    #: ServiceSummary.to_jsonable() when the campaign ran through the durable
    #: job service (verify --service-store); None for pool/serial runs.
    service: Optional[Dict] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def traces(self) -> int:
        return sum(1 for o in self.outcomes if o.task.kind == DIFFERENTIAL)

    @property
    def protocol_runs(self) -> int:
        return sum(o.protocol_runs for o in self.outcomes)

    @property
    def operations(self) -> int:
        return sum(o.operations for o in self.outcomes)

    def summary(self) -> str:
        status = "PASS" if self.ok else f"FAIL ({len(self.failures)} task(s))"
        return (
            f"campaign {self.spec.name}: {status} — "
            f"{len(self.outcomes)} tasks ({self.traces} differential traces), "
            f"{self.protocol_runs} protocol runs, {self.operations} operations "
            f"in {self.wall_seconds:.1f}s ({self.workers} worker(s))"
        )

    def to_jsonable(self) -> Dict:
        return {
            "campaign": self.spec.name,
            "ok": self.ok,
            "tasks": len(self.outcomes),
            "differential_traces": self.traces,
            "protocol_runs": self.protocol_runs,
            "operations": self.operations,
            "wall_seconds": round(self.wall_seconds, 3),
            "workers": self.workers,
            "failures": [failure.to_jsonable() for failure in self.failures],
            **({"service": self.service} if self.service is not None else {}),
        }


# ------------------------------------------------------------- pool execution


def _run_task_chunk(tasks: List[VerificationTask]) -> List[TaskOutcome]:
    """Module-level worker entry point (must be picklable itself)."""
    runner = process_runner()
    return [run_task(task, runner) for task in tasks]


def _run_campaign_tasks(
    tasks: Sequence[VerificationTask],
    workers: Optional[int] = None,
    service=None,
    task_timeout=None,
) -> Tuple[List[TaskOutcome], int, Optional[Dict]]:
    """Run tasks; returns (outcomes in order, workers used, service summary).

    ``workers=0`` means "auto" ($REPRO_SWEEP_WORKERS or the CPU count), like
    the sweep executor.  Restricted sandboxes fall back to a serial loop on a
    single reset-reusing runner; results are identical either way.

    ``service`` shards the campaign into the fault-tolerant job service
    (durable leased work units over a shared store) instead of the ad-hoc
    pool.  ``task_timeout`` (default $REPRO_TASK_TIMEOUT) bounds each pool
    task's wall clock: a hung task is cancelled, logged, and retried
    serially rather than stalling the campaign.
    """
    if workers == 0:
        workers = available_workers()
    workers = 1 if workers is None else max(1, workers)
    timeout = resolve_task_timeout(task_timeout)
    results: List[Optional[TaskOutcome]] = [None] * len(tasks)
    used_workers = 1

    if service is not None:
        from ..experiments.service import run_service_campaign

        outcomes, summary = run_service_campaign(
            tasks, service, workers=None if workers <= 1 else workers
        )
        return (  # type: ignore[return-value]
            list(outcomes), max(1, workers), summary.to_jsonable()
        )

    if workers > 1 and len(tasks) > 1:
        max_workers = min(workers, len(tasks))
        chunks = chunk_indices(
            range(len(tasks)), lambda i: tasks[i].num_processors, max_workers
        )
        used_workers = run_pool(
            _run_task_chunk,
            tasks,
            chunks,
            max_workers,
            timeout,
            results.__setitem__,
            "verification task(s)",
        ) or 1

    if any(result is None for result in results):
        runner = BatchRunner()
        for index, task in enumerate(tasks):
            if results[index] is None:
                results[index] = run_task(task, runner)
    return results, used_workers, None  # type: ignore[return-value]


def run_campaign_tasks(
    tasks: Sequence[VerificationTask],
    workers: Optional[int] = None,
    service=None,
    task_timeout=None,
) -> List[TaskOutcome]:
    """Run every task — across a process pool when ``workers`` > 1 — in order."""
    return _run_campaign_tasks(
        tasks, workers, service=service, task_timeout=task_timeout
    )[0]


class VerificationCampaign:
    """Runs a :class:`CampaignSpec` end to end, shrinking any failures."""

    def __init__(
        self,
        spec: CampaignSpec,
        artifact_dir=None,
        shrink: bool = True,
        service=None,
        task_timeout=None,
    ) -> None:
        self.spec = spec
        self.artifact_dir = artifact_dir
        self.shrink = shrink
        self.service = service
        self.task_timeout = task_timeout

    def run(self, workers: Optional[int] = None) -> CampaignResult:
        started = time.perf_counter()
        tasks = self.spec.tasks()
        outcomes, resolved_workers, service_summary = _run_campaign_tasks(
            tasks,
            workers,
            service=self.service,
            task_timeout=self.task_timeout,
        )
        failures: List[TaskFailure] = []
        runner = BatchRunner()
        for outcome in outcomes:
            if outcome.ok:
                continue
            failure = TaskFailure(task=outcome.task, failures=outcome.failures)
            if self.shrink and outcome.task.kind == DIFFERENTIAL:
                predicate = differential_failure_predicate(outcome.task, runner)
                trace = outcome.task.trace()
                try:
                    failure.shrunk_trace = shrink_trace(trace, predicate)
                except VerificationError:
                    # Not reproducible in the parent process (e.g. the pool
                    # worker hit an environment-dependent failure): keep the
                    # original failure report without a reproducer.
                    failure.shrunk_trace = None
            if self.artifact_dir is not None:
                failure.artifact_path = str(
                    write_artifact(
                        Path(self.artifact_dir),
                        outcome.task,
                        outcome.failures,
                        failure.shrunk_trace,
                        watchdog_dumps=outcome.watchdog_dumps,
                    )
                )
            failures.append(failure)
        return CampaignResult(
            spec=self.spec,
            outcomes=outcomes,
            failures=failures,
            wall_seconds=time.perf_counter() - started,
            workers=resolved_workers,
            service=service_summary,
        )


def run_campaign(
    campaign="quick",
    workers: Optional[int] = None,
    protocols: Optional[Sequence[str]] = None,
    seeds: Optional[Sequence[int]] = None,
    artifact_dir=None,
    shrink: bool = True,
    service=None,
    task_timeout=None,
) -> CampaignResult:
    """Run a named (or explicit) campaign spec and return its result."""
    if isinstance(campaign, CampaignSpec):
        spec = campaign
    else:
        try:
            spec = CAMPAIGNS[str(campaign)]
        except KeyError:
            raise VerificationError(
                f"unknown campaign {campaign!r}; available: {sorted(CAMPAIGNS)}"
            ) from None
    if protocols is not None or seeds is not None:
        spec = spec.with_overrides(protocols=protocols, seeds=seeds)
    return VerificationCampaign(
        spec,
        artifact_dir=artifact_dir,
        shrink=shrink,
        service=service,
        task_timeout=task_timeout,
    ).run(workers=workers)
