"""Fault-tolerant campaign service: leased pull-workers over a durable store.

This is the seam that turns one process pool in one process lifetime into a
resumable, chaos-tolerant campaign:

* **Work units** — :func:`unit_for_spec` / :func:`unit_for_task` serialise
  sweep points and verification tasks into self-describing
  :class:`~repro.experiments.jobstore.WorkUnit`\\ s keyed by the existing
  config hash, so the same campaign enqueued twice finds its completed units.
* **Workers** — :func:`run_worker` is the pull loop (also behind
  ``python -m repro worker --store DIR``): claim a unit under a lease,
  renew the lease from a heartbeat thread while executing, commit the result
  atomically, repeat.  Workers are elastic — start more on the host that
  holds the store — and expendable: a crashed or wedged worker's lease
  expires and its unit is re-dispatched.
* **Coordinator** — :class:`CampaignService` (behind ``python -m repro
  serve`` / :func:`run_service_sweep`) enqueues units, spawns local workers,
  watches progress, force-expires leases of workers it observes dying,
  respawns replacements, speculatively double-dispatches tail stragglers,
  and validates committed results (a torn result write is quarantined and
  recomputed).  A campaign therefore *finishes* — every unit ``done`` or
  poison-quarantined after ``max_attempts`` failures — or raises; it never
  hangs on a lost worker.
* **FaultPlan** — first-class chaos hooks (kill a worker after K units, stop
  heartbeats, corrupt a result write) so every failure mode above is
  exercised by deterministic tests and the CI resilience smoke, not just by
  production incidents.

Execution is at-least-once over deterministic units (see the jobstore module
docstring), which is why results from the service path are field-identical
to a serial ``run_sweep`` — re-execution and double-dispatch can only ever
reproduce the same values.
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import json
import os
import pickle
import threading
import time
import traceback
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ServiceError
from .batch import BatchRunner
from .jobstore import (
    DONE,
    FAILED,
    LEASED,
    PENDING,
    QUARANTINED,
    JobStore,
    Lease,
    WorkUnit,
)
from .runner import SweepPoint

#: Unit kinds the executor understands.
SWEEP_UNIT = "sweep-point"
VERIFICATION_UNIT = "verification-task"

#: Exit code a chaos-killed worker process dies with (distinguishable from
#: ordinary crashes in the coordinator's logs).
KILL_EXIT_CODE = 117


class WorkerKilled(ServiceError):
    """Raised in place of ``os._exit`` when a FaultPlan kill fires inline."""


# ------------------------------------------------------------------ FaultPlan


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic failure injection for chaos tests and the CI smoke.

    A plan is given to *one* worker (the coordinator hands it to the first
    worker it spawns); respawned replacements run fault-free, so an injected
    fault is a bounded incident the service must absorb, not a permanent
    property of the fleet.
    """

    #: Die abruptly (``os._exit``) immediately after claiming the next unit
    #: once this many units have completed — i.e. mid-unit, lease held.
    kill_after: Optional[int] = None
    #: Never renew leases: a healthy-but-silent worker whose leases expire
    #: under it mid-run (its commits are fenced).
    drop_heartbeats: bool = False
    #: Corrupt the result writes of the first N units this worker completes
    #: (torn-write simulation; the read side must quarantine and recompute).
    corrupt_results: int = 0

    def describe(self) -> str:
        parts = []
        if self.kill_after is not None:
            parts.append(f"kill-after:{self.kill_after}")
        if self.drop_heartbeats:
            parts.append("drop-heartbeats")
        if self.corrupt_results:
            parts.append(f"corrupt-result:{self.corrupt_results}")
        return ",".join(parts) or "none"

    @classmethod
    def parse(cls, text: Optional[str]) -> Optional["FaultPlan"]:
        """Parse the CLI spelling: ``kill-after:3,drop-heartbeats,...``."""
        if not text or text == "none":
            return None
        kill_after = None
        drop_heartbeats = False
        corrupt_results = 0
        for token in text.split(","):
            token = token.strip()
            name, _, value = token.partition(":")
            try:
                if name == "kill-after":
                    kill_after = int(value)
                elif name == "drop-heartbeats":
                    drop_heartbeats = True
                elif name in ("corrupt-result", "corrupt-results"):
                    corrupt_results = int(value) if value else 1
                else:
                    raise ValueError(name)
            except ValueError:
                raise ServiceError(
                    f"unknown fault-plan token {token!r} (expected "
                    "kill-after:K, drop-heartbeats, corrupt-result:N)"
                ) from None
        return cls(
            kill_after=kill_after,
            drop_heartbeats=drop_heartbeats,
            corrupt_results=corrupt_results,
        )


# ----------------------------------------------------------------- work units


def unit_for_spec(spec) -> WorkUnit:
    """A sweep point as a durable work unit, keyed by its config-hash key."""
    if not spec.is_portable():
        raise ServiceError(
            "sweep point with an ad-hoc workload cannot become a service "
            "unit (no cache token); run it in-process instead"
        )
    blob = base64.b64encode(pickle.dumps(spec)).decode("ascii")
    return WorkUnit(
        unit_id=spec.cache_key(),
        kind=SWEEP_UNIT,
        description=(
            f"{spec.protocol} bw={spec.bandwidth:g} "
            f"x={spec.x_value if spec.x_value is not None else spec.bandwidth:g}"
        ),
        payload={"spec_pickle": blob},
    )


def unit_for_task(task) -> WorkUnit:
    """A verification task as a durable work unit, keyed by a content hash."""
    from .. import _core

    jsonable = task.to_jsonable()
    blob = json.dumps(
        {"task": jsonable, "backend": _core.active_backend()}, sort_keys=True
    )
    return WorkUnit(
        unit_id=hashlib.sha256(blob.encode()).hexdigest(),
        kind=VERIFICATION_UNIT,
        description=task.describe(),
        payload={"task": jsonable},
    )


def spec_from_unit(unit: WorkUnit):
    return pickle.loads(base64.b64decode(unit.payload["spec_pickle"]))


def execute_unit(
    unit: WorkUnit, runner: Optional[BatchRunner] = None, store: Optional[JobStore] = None
) -> Dict:
    """Run one work unit and return its JSON-encodable result payload.

    Sweep units execute on ``runner``'s pooled reset-reusable systems (one
    per worker process, like the process-pool path).  Verification units that
    trip the deadlock watchdog persist their hang dumps as replayable
    artifacts under the store *before* returning, so the evidence survives
    even if this worker's lease then expires.
    """
    if unit.kind == SWEEP_UNIT:
        from .parallel import _point_to_json

        spec = spec_from_unit(unit)
        point = runner.run_spec(spec) if runner is not None else spec.run()
        return {"point": _point_to_json(point)}
    if unit.kind == VERIFICATION_UNIT:
        from ..verification.campaign import VerificationTask, run_task, write_artifact

        task = VerificationTask.from_jsonable(unit.payload["task"])
        outcome = run_task(task, runner)
        if outcome.watchdog_dumps and store is not None:
            artifact = write_artifact(
                store.artifacts_dir,
                task,
                outcome.failures,
                None,
                watchdog_dumps=outcome.watchdog_dumps,
            )
            store.journal("hang-artifact", unit.unit_id, artifact=str(artifact))
        return {"outcome": outcome.to_jsonable()}
    raise ServiceError(f"unknown work-unit kind {unit.kind!r}")


def point_from_result(result: Dict) -> SweepPoint:
    from .parallel import _point_from_json

    return _point_from_json(result["point"])


def outcome_from_result(result: Dict):
    from ..verification.campaign import TaskOutcome

    return TaskOutcome.from_jsonable(result["outcome"])


# -------------------------------------------------------------------- workers


@dataclass
class WorkerStats:
    """What one worker loop did before exiting."""

    worker_id: str
    claimed: int = 0
    completed: int = 0
    failed: int = 0
    fenced: int = 0

    def to_jsonable(self) -> Dict:
        return dataclasses.asdict(self)


class _Heartbeat:
    """Daemon thread renewing one lease until stopped (or fenced)."""

    def __init__(self, store: JobStore, lease: Lease, interval: float) -> None:
        self.store = store
        self.lease = lease
        self.interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            if not self.store.heartbeat(self.lease):
                return  # fenced: the commit-side check reports it

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)


def run_worker(
    store: JobStore,
    worker_id: Optional[str] = None,
    fault: Optional[FaultPlan] = None,
    exit_when_idle: bool = True,
    poll_interval: float = 0.05,
    max_units: Optional[int] = None,
    _hard_exit: bool = True,
) -> WorkerStats:
    """The pull-worker loop: claim → heartbeat → execute → commit.

    Exits when the queue is drained (``exit_when_idle``) or after
    ``max_units`` completions (bounded workers; also how the resume tests
    interrupt a campaign mid-flight).  ``_hard_exit=False`` turns a FaultPlan
    kill into :exc:`WorkerKilled` instead of ``os._exit`` so the inline
    (process-free) coordinator can simulate worker death deterministically.
    """
    worker_id = worker_id or f"worker-{os.getpid()}-{uuid.uuid4().hex[:6]}"
    fault = fault or FaultPlan()
    stats = WorkerStats(worker_id=worker_id)
    runner = BatchRunner()
    heartbeat_interval = max(0.02, store.lease_timeout / 3.0)
    store.journal("worker-start", worker=worker_id, fault=fault.describe())
    while True:
        if max_units is not None and stats.completed >= max_units:
            break
        store.recover()
        lease = store.claim(worker_id)
        if lease is None:
            counts = store.counts()
            if counts[PENDING] or counts[FAILED]:
                time.sleep(poll_interval)  # backoff window pending
                continue
            if counts[LEASED] and not exit_when_idle:
                time.sleep(poll_interval)
                continue
            break
        stats.claimed += 1
        if fault.kill_after is not None and stats.completed >= fault.kill_after:
            # Chaos: die mid-unit, lease held, nothing committed.
            store.journal("worker-killed", lease.unit.unit_id, worker=worker_id)
            if _hard_exit:
                os._exit(KILL_EXIT_CODE)
            raise WorkerKilled(
                f"fault plan killed {worker_id} after {stats.completed} unit(s)"
            )
        heartbeat = (
            _Heartbeat(store, lease, heartbeat_interval)
            if not fault.drop_heartbeats
            else None
        )
        try:
            if heartbeat is not None:
                heartbeat.__enter__()
            result = execute_unit(lease.unit, runner, store)
        except WorkerKilled:
            raise
        except Exception as error:  # noqa: BLE001 - unit failure, not ours
            store.fail(
                lease, f"{error}\n{traceback.format_exc(limit=10)}"
            )
            stats.failed += 1
            continue
        finally:
            if heartbeat is not None:
                heartbeat.__exit__(None, None, None)
        corrupt = stats.completed < fault.corrupt_results
        if store.complete(lease, result, _corrupt=corrupt):
            stats.completed += 1
        else:
            stats.fenced += 1
    store.journal("worker-exit", worker=worker_id, **stats.to_jsonable())
    return stats


def _worker_process_entry(
    root: str, store_kwargs: Dict, worker_id: str, fault: Optional[FaultPlan]
) -> None:
    """Module-level target for coordinator-spawned worker processes."""
    store = JobStore(root, **store_kwargs)
    try:
        run_worker(store, worker_id=worker_id, fault=fault, exit_when_idle=True)
    finally:
        store.close()


# ---------------------------------------------------------------- coordinator


@dataclass
class ServiceSummary:
    """One coordinator run's outcome, derived from counts and the journal."""

    units: int = 0
    resumed: int = 0
    done: int = 0
    quarantined: List[str] = field(default_factory=list)
    redispatched: int = 0
    lease_expired: int = 0
    retries: int = 0
    speculated: int = 0
    fenced_commits: int = 0
    corrupt_results: int = 0
    worker_deaths: int = 0
    workers: int = 0
    respawns: int = 0
    wall_seconds: float = 0.0

    def to_jsonable(self) -> Dict:
        data = dataclasses.asdict(self)
        data["quarantined"] = list(self.quarantined)
        data["ok"] = not self.quarantined
        return data


@dataclass
class ServiceConfig:
    """Everything the service seam needs besides the units themselves.

    ``run_sweep(service=...)`` and ``run_campaign(service=...)`` accept a
    bare store path, a :class:`JobStore`, or one of these when fault
    injection / lease tuning matter.
    """

    store: Union[str, os.PathLike, JobStore]
    workers: Optional[int] = None
    fault_plan: Optional[FaultPlan] = None
    lease_timeout: float = 30.0
    max_attempts: int = 3
    stall_timeout: float = 300.0
    speculate_after: Optional[float] = None

    def job_store(self) -> JobStore:
        if isinstance(self.store, JobStore):
            return self.store
        return JobStore(
            self.store,
            lease_timeout=self.lease_timeout,
            max_attempts=self.max_attempts,
        )


def resolve_service(service) -> "ServiceConfig":
    """Normalise a ``service=`` argument into a :class:`ServiceConfig`."""
    if isinstance(service, ServiceConfig):
        return service
    return ServiceConfig(store=service)


class CampaignService:
    """The coordinator: enqueue, watch, heal, finish (never hang).

    ``workers >= 1`` spawns that many local pull-worker processes over the
    store; ``workers in (None, 0)`` — or any environment that refuses to
    spawn processes — drains the queue with an in-process worker loop
    instead, so the service seam (durability, resume, retries, quarantine)
    holds even where the serial fallback used to be the only option.
    """

    def __init__(
        self,
        store: JobStore,
        workers: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
        poll_interval: float = 0.05,
        stall_timeout: float = 300.0,
        speculate_after: Optional[float] = None,
        respawn_limit: int = 8,
    ) -> None:
        self.store = store
        self.workers = workers
        self.fault_plan = fault_plan
        self.poll_interval = poll_interval
        self.stall_timeout = stall_timeout
        # Speculation must fire while the straggler's lease is still valid
        # (expiry already re-dispatches), so default to half the lease
        # timeout: long enough to be sure it is a straggler, early enough
        # to beat the timeout.
        self.speculate_after = (
            store.lease_timeout / 2 if speculate_after is None else speculate_after
        )
        self.respawn_limit = respawn_limit

    # ------------------------------------------------------------- local fleet

    def _spawn(self, index: int, fault: Optional[FaultPlan]):
        import multiprocessing

        worker_id = f"local-{index}-{uuid.uuid4().hex[:6]}"
        store_kwargs = {
            "lease_timeout": self.store.lease_timeout,
            "max_attempts": self.store.max_attempts,
            "backoff_base": self.store.backoff_base,
            "backoff_cap": self.store.backoff_cap,
        }
        process = multiprocessing.Process(
            target=_worker_process_entry,
            args=(str(self.store.root), store_kwargs, worker_id, fault),
            daemon=True,
        )
        process.start()
        return worker_id, process

    def _validate_new_results(self, validated: set) -> None:
        """Parse-check freshly committed results; corrupt ones requeue."""
        for unit_id in self.store.ids(DONE):
            if unit_id in validated:
                continue
            if self.store.load_result(unit_id) is not None:
                validated.add(unit_id)

    def _speculate_tail(self) -> None:
        """Near the tail, double-dispatch leases held longer than the bar."""
        counts = self.store.counts()
        if counts[PENDING] or counts[FAILED] or not counts[LEASED]:
            return
        for unit_id in self.store.stragglers(self.speculate_after):
            self.store.speculate(unit_id)

    # -------------------------------------------------------------------- run

    def run(self, units: Sequence[WorkUnit]) -> ServiceSummary:
        """Enqueue ``units`` and drive the store until every one settles."""
        started = time.monotonic()
        journal_start = self.store.journal_offset()
        summary = ServiceSummary(units=len(units))
        unit_ids: List[str] = []
        for unit in units:
            state = self.store.enqueue(unit)
            if unit.unit_id not in unit_ids:
                unit_ids.append(unit.unit_id)
            if state == DONE:
                summary.resumed += 1
        requested = 0 if self.workers is None else max(0, int(self.workers))
        if requested and not self.store.finished(unit_ids):
            try:
                self._run_fleet(unit_ids, requested, summary)
            except _SPAWN_FALLBACK_ERRORS:
                # Restricted sandbox: drain inline over the same store.
                self._run_inline(summary)
        else:
            self._run_inline(summary)
        summary.wall_seconds = time.monotonic() - started
        self._summarise(summary, unit_ids, journal_start)
        return summary

    def _run_inline(self, summary: ServiceSummary) -> None:
        """Process-free drain: in-process workers over the same store.

        A FaultPlan kill raises :exc:`WorkerKilled`; the coordinator treats
        it exactly like an observed process death — force-expires the dead
        worker's leases and "respawns" a fault-free replacement — so chaos
        and resume semantics are testable without spawning anything.
        """
        fault = self.fault_plan
        deaths = 0
        while not self.store.finished():
            summary.workers = max(summary.workers, 1)
            worker_id = f"inline-{uuid.uuid4().hex[:6]}"
            try:
                run_worker(
                    self.store,
                    worker_id=worker_id,
                    fault=fault,
                    exit_when_idle=True,
                    poll_interval=self.poll_interval,
                    _hard_exit=False,
                )
            except WorkerKilled:
                deaths += 1
                summary.worker_deaths += 1
                self.store.expire_worker(worker_id)
                if deaths > self.respawn_limit:
                    raise ServiceError(
                        "fault plan killed more workers than the respawn "
                        f"limit ({self.respawn_limit}) allows"
                    )
            fault = None  # replacements run fault-free
            validated: set = set()
            self._validate_new_results(validated)
            if not self.store.finished():
                # Stale leases (earlier run / killed worker) or backoff
                # windows: let recovery clocks advance instead of hot-spinning.
                time.sleep(self.poll_interval)

    def _run_fleet(
        self, unit_ids: List[str], requested: int, summary: ServiceSummary
    ) -> None:
        fleet: Dict[str, object] = {}
        validated: set = set()
        respawns = 0
        last_progress = time.monotonic()
        last_done = -1
        try:
            for index in range(requested):
                worker_id, process = self._spawn(
                    index, self.fault_plan if index == 0 else None
                )
                fleet[worker_id] = process
            summary.workers = len(fleet)
            while not self.store.finished(unit_ids):
                self.store.recover()
                self._validate_new_results(validated)
                self._speculate_tail()
                for worker_id, process in list(fleet.items()):
                    if process.is_alive():
                        continue
                    del fleet[worker_id]
                    if process.exitcode not in (0, None):
                        summary.worker_deaths += 1
                        self.store.expire_worker(worker_id)
                counts = self.store.counts()
                outstanding = counts[PENDING] + counts[LEASED] + counts[FAILED]
                if outstanding and not fleet and respawns < self.respawn_limit:
                    respawns += 1
                    summary.respawns += 1
                    worker_id, process = self._spawn(requested + respawns, None)
                    fleet[worker_id] = process
                done_now = counts[DONE] + counts[QUARANTINED]
                if done_now != last_done:
                    last_done = done_now
                    last_progress = time.monotonic()
                elif time.monotonic() - last_progress > self.stall_timeout:
                    raise ServiceError(
                        f"campaign stalled: no unit settled in "
                        f"{self.stall_timeout:.0f}s ({counts})"
                    )
                time.sleep(self.poll_interval)
            self._validate_new_results(validated)
            if not self.store.finished(unit_ids):
                # A corrupt result was requeued at the last validation pass.
                self._run_inline(summary)
        finally:
            for process in fleet.values():
                process.join(timeout=5.0)
                if process.is_alive():  # pragma: no cover - hung worker
                    process.terminate()

    def _summarise(
        self, summary: ServiceSummary, unit_ids: List[str], journal_start: int
    ) -> None:
        events = self.store.journal_entries(offset=journal_start)
        tally: Dict[str, int] = {}
        for event in events:
            tally[event.get("event", "?")] = tally.get(event.get("event", "?"), 0) + 1
        summary.lease_expired = tally.get("lease-expired", 0)
        summary.retries = tally.get("retry", 0)
        summary.speculated = tally.get("speculate", 0)
        summary.fenced_commits = tally.get("commit-fenced", 0) + tally.get(
            "fail-fenced", 0
        )
        summary.corrupt_results = tally.get("result-corrupt", 0)
        summary.redispatched = (
            tally.get("requeue", 0)
            + summary.retries
            + summary.speculated
            + summary.corrupt_results
        )
        summary.worker_deaths = max(
            summary.worker_deaths, tally.get("worker-killed", 0)
        )
        summary.done = sum(
            1 for unit_id in unit_ids if self.store.find(unit_id) == DONE
        )
        summary.quarantined = [
            unit_id
            for unit_id in unit_ids
            if self.store.find(unit_id) == QUARANTINED
        ]


#: Errors that demote process spawning to the inline drain (mirrors the
#: sweep executor's pool fallback).
_SPAWN_FALLBACK_ERRORS = (OSError, ImportError, RuntimeError, pickle.PicklingError)


# ------------------------------------------------------------ campaign fronts


def _quarantine_error(store: JobStore, summary: ServiceSummary) -> ServiceError:
    details = []
    for unit_id in summary.quarantined[:5]:
        try:
            unit = store.unit(unit_id)
            details.append(f"{unit_id[:12]} ({unit.description}): {unit.last_error}")
        except Exception:  # pragma: no cover - ticket unreadable
            details.append(unit_id)
    return ServiceError(
        f"{len(summary.quarantined)} poison unit(s) quarantined after "
        f"{store.max_attempts} attempts (artifacts under "
        f"{store.artifacts_dir}): " + "; ".join(details)
    )


def _run_units(
    units: Sequence[WorkUnit],
    service,
    workers: Optional[int],
    fault_plan: Optional[FaultPlan],
    strict: bool,
    decode,
) -> Tuple[List, ServiceSummary]:
    """Drive ``units`` through the service; decode results in input order."""
    config = resolve_service(service)
    store = config.job_store()
    summary = CampaignService(
        store,
        workers=config.workers if workers is None else workers,
        fault_plan=config.fault_plan if fault_plan is None else fault_plan,
        stall_timeout=config.stall_timeout,
        speculate_after=config.speculate_after,
    ).run(units)
    if strict and summary.quarantined:
        raise _quarantine_error(store, summary)
    decoded = []
    for unit in units:
        result = store.load_result(unit.unit_id)
        decoded.append(decode(result) if result is not None else None)
    if strict and any(item is None for item in decoded):
        raise ServiceError(
            "service campaign finished but some results are unreadable; "
            f"inspect {store.root}"
        )
    return decoded, summary


def run_service_sweep(
    specs: Sequence,
    service,
    workers: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    strict: bool = True,
) -> Tuple[List[Optional[SweepPoint]], ServiceSummary]:
    """Run sweep points through the durable campaign service.

    Returns results in input order plus the run summary.  With ``strict``
    (the library default) a poison unit raises :exc:`ServiceError` *after*
    the rest of the campaign completed — everything computed is durably in
    the store, so a retry costs only the quarantined units.  ``strict=False``
    (the ``serve`` CLI) leaves ``None`` holes and reports instead.
    """
    units = [unit_for_spec(spec) for spec in specs]
    return _run_units(units, service, workers, fault_plan, strict, point_from_result)


def run_service_campaign(
    tasks: Sequence,
    service,
    workers: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    strict: bool = True,
) -> Tuple[List[object], ServiceSummary]:
    """Run verification tasks through the durable campaign service."""
    units = [unit_for_task(task) for task in tasks]
    return _run_units(units, service, workers, fault_plan, strict, outcome_from_result)
