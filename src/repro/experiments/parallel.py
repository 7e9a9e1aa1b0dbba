"""Batched parallel sweep executor with an on-disk result cache.

Every figure in the paper's evaluation is an embarrassingly parallel sweep of
independent ``simulate()`` runs — (protocol, x-value, seed) points that share
nothing *semantically* but share almost everything *structurally*.  This
module fans those points across a process pool in batches:

* :class:`PointSpec` is a picklable description of one sweep point (the same
  arguments :func:`repro.experiments.runner.run_point` takes),
* :func:`run_sweep` executes a list of specs — serially, or across
  ``workers`` processes — returning :class:`SweepPoint` results in input
  order, optionally memoised in an on-disk JSON cache keyed by a hash of the
  full configuration,
* :func:`sweep_curves` groups flat results back into the per-protocol curve
  dictionaries the figure drivers consume.

Execution is *batched*: specs are chunked by their batch key — (protocol,
processor count) — and each chunk runs on a
:class:`~repro.experiments.batch.BatchRunner` that keeps one constructed
system per key, resets it between points, and pools hot allocations in a
shared :class:`~repro.sim.arena.SimulationArena`.  Worker processes hold one
runner for their whole life, so even chunks arriving later skip system
construction.  Completed chunks stream back (and into the cache) as they
finish rather than at sweep end.

Determinism: each point is seeded from its own spec (``scale.seeds``), never
from worker identity, scheduling order, or the reset history of the system it
runs on — a reset system is contractually indistinguishable from a fresh one
(see the reset-equivalence tests), so ``run_sweep(workers=1)`` and
``run_sweep(workers=N)`` produce identical results point for point, as does
``batch=False``.

The executor falls back to serial execution when the requested worker count
is ``<= 1``, when a spec is not picklable (e.g. an ad-hoc workload closure),
or when the platform refuses to start a process pool (restricted sandboxes).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import logging
import os
import pickle
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

logger = logging.getLogger(__name__)

from .. import _core
from ..common.config import ProtocolName
from ..system.multiprocessor import RunResult
from .batch import BatchRunner, spec_batch_key
from .runner import ExperimentScale, SweepPoint, run_point

#: Bump when the simulation core changes in a way that invalidates cached
#: sweep results.
CACHE_VERSION = 1

#: Environment variable consulted when ``workers`` is not given explicitly.
WORKERS_ENV = "REPRO_SWEEP_WORKERS"

#: Exceptions that demote a process-pool attempt to the serial fallback path:
#: restricted sandboxes (no semaphores / fork), missing multiprocessing
#: support, and payloads that turn out not to pickle.  Shared with the
#: verification campaign executor, which mirrors this executor's fallback
#: behaviour.
POOL_FALLBACK_ERRORS = (
    OSError,
    ImportError,
    RuntimeError,
    pickle.PicklingError,
    AttributeError,
    TypeError,
)

#: Environment variable consulted when ``cache_dir`` is not given explicitly:
#: point it at a directory and every sweep (including the PAPER-scale figure
#: drivers) memoises its points there, so an interrupted reproduction resumes
#: from the completed points instead of recomputing them.
CACHE_ENV = "REPRO_SWEEP_CACHE"

#: Environment variable supplying the default per-task wall-clock timeout (in
#: seconds) for the process-pool paths.  A pool task that exceeds it is
#: cancelled (abandoned if already running), logged, and retried serially, so
#: one hung point degrades to a slow point instead of stalling the sweep.
TASK_TIMEOUT_ENV = "REPRO_TASK_TIMEOUT"


def default_task_timeout() -> Optional[float]:
    """Per-task pool timeout from $REPRO_TASK_TIMEOUT, or None (disabled)."""
    env = os.environ.get(TASK_TIMEOUT_ENV)
    if not env:
        return None
    try:
        value = float(env)
    except ValueError:
        return None
    return value if value > 0 else None


def resolve_task_timeout(task_timeout) -> Optional[float]:
    """Resolve an explicit ``task_timeout`` argument against the env default.

    ``None`` defers to $REPRO_TASK_TIMEOUT; ``False`` (or 0) disables the
    timeout outright, env var included — mirroring ``cache_dir``'s
    ``None``/``False`` convention.
    """
    if task_timeout is None:
        return default_task_timeout()
    if task_timeout is False or not task_timeout:
        return None
    return float(task_timeout)


def drain_futures(
    futures: Dict, on_result: Callable, timeout: Optional[float], poll: float = 0.25
) -> List:
    """Collect pool futures, enforcing a per-task wall-clock deadline.

    ``futures`` maps Future -> payload; ``on_result(payload, future)`` is
    called for each completion (exceptions from ``future.result()``
    propagate to the caller's fallback handling).  Returns the payloads of
    futures that exceeded ``timeout`` — cancelled if still queued, abandoned
    if running — which the caller retries serially.  With ``timeout=None``
    this is plain ``as_completed`` collection.
    """
    from concurrent.futures import as_completed, wait as futures_wait

    if timeout is None:
        for future in as_completed(futures):
            on_result(futures[future], future)
        return []
    deadlines = {future: time.monotonic() + timeout for future in futures}
    pending = set(futures)
    timed_out: List = []
    while pending:
        done, pending = futures_wait(pending, timeout=poll)
        for future in done:
            on_result(futures[future], future)
        now = time.monotonic()
        expired = {future for future in pending if now >= deadlines[future]}
        for future in expired:
            future.cancel()
            timed_out.append(futures[future])
        pending -= expired
    return timed_out


def shutdown_pool(pool, abandoned: bool) -> None:
    """Dispose of a process pool, harshly if hung tasks were abandoned.

    The normal path waits for workers like the context manager would.  After
    a task timeout the pool may hold a wedged worker forever, so the
    abandoned path skips the wait, cancels queued work, and terminates the
    worker processes — leaking nothing into interpreter shutdown.
    """
    if not abandoned:
        pool.shutdown(wait=True)
        return
    # Kill the workers *before* shutdown() discards the process table: the
    # executor's management thread then observes the dead sentinels, marks
    # the pool broken, and exits — otherwise the interpreter's atexit hook
    # would join it forever behind the wedged task.
    for process in list((getattr(pool, "_processes", None) or {}).values()):
        try:
            process.terminate()
        except (OSError, AttributeError):  # pragma: no cover - racing exit
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def chunk_indices(
    indices: Sequence[int], key: Callable[[int], object], workers: int
) -> List[List[int]]:
    """Group indices by ``key(index)``, then slice for load balance.

    Keeping a chunk within one key means the worker that runs it builds (or
    reuses) exactly one system; slicing keys into roughly
    ``total / workers``-sized pieces keeps all workers busy even when one key
    dominates.
    """
    by_key: Dict[object, List[int]] = {}
    for index in indices:
        by_key.setdefault(key(index), []).append(index)
    chunk_size = max(1, -(-len(indices) // max(1, workers)))
    chunks: List[List[int]] = []
    for group in by_key.values():
        for start in range(0, len(group), chunk_size):
            chunks.append(group[start : start + chunk_size])
    return chunks


def run_pool(
    entry: Callable[[List], List],
    items: Sequence,
    chunks: List[List[int]],
    workers: int,
    timeout: Optional[float],
    on_result: Callable[[int, object], None],
    what: str,
) -> int:
    """Run ``chunks`` of ``items`` on a process pool of ``workers`` processes.

    ``entry`` is a picklable module-level function mapping a list of items to
    their results; ``on_result(index, result)`` receives each result as its
    chunk completes.  A chunk that exceeds ``timeout`` is abandoned and
    logged.  Returns ``workers``, or 0 when the platform refused the pool
    (:data:`POOL_FALLBACK_ERRORS`).  Either way the caller runs whatever
    ``on_result`` never received serially, so results are identical to a
    serial run.
    """
    try:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
        abandoned = False
        try:
            futures = {
                pool.submit(entry, [items[i] for i in chunk]): chunk
                for chunk in chunks
            }

            def collect(chunk: List[int], future) -> None:
                for index, result in zip(chunk, future.result()):
                    on_result(index, result)

            timed_out = drain_futures(futures, collect, timeout)
            if timed_out:
                abandoned = True
                logger.warning(
                    "%d %s exceeded the %.1fs task timeout; abandoning their "
                    "pool tasks and retrying serially",
                    sum(len(chunk) for chunk in timed_out),
                    what,
                    timeout,
                )
        finally:
            shutdown_pool(pool, abandoned)
    except POOL_FALLBACK_ERRORS:
        # Restricted environments (no semaphores / fork) and payloads that
        # turn out not to pickle leave the rest to the caller's serial path
        # (results the pool did complete are kept).  A genuine simulation
        # error re-raises from that serial run, so broad catching here
        # cannot mask it.
        return 0
    return workers


def available_workers() -> int:
    """Worker count to use by default: $REPRO_SWEEP_WORKERS or the CPU count."""
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def default_cache_dir() -> Optional[str]:
    """Cache directory to use by default: $REPRO_SWEEP_CACHE, or None."""
    env = os.environ.get(CACHE_ENV)
    return env if env else None


@dataclass(frozen=True)
class PointSpec:
    """One sweep point: everything :func:`run_point` needs, picklable."""

    scale: ExperimentScale
    protocol: ProtocolName
    bandwidth: float
    workload: object  # a workload spec callable (seed -> Workload)
    x_value: Optional[float] = None
    num_processors: Optional[int] = None
    threshold: float = 0.75
    broadcast_cost_factor: float = 1.0
    cache_capacity_blocks: Optional[int] = None

    def run(self) -> SweepPoint:
        """Execute this point (in whatever process we happen to be in)."""
        return run_point(
            self.scale,
            self.protocol,
            self.bandwidth,
            self.workload,
            x_value=self.x_value,
            num_processors=self.num_processors,
            threshold=self.threshold,
            broadcast_cost_factor=self.broadcast_cost_factor,
            cache_capacity_blocks=self.cache_capacity_blocks,
        )

    # ------------------------------------------------------------- caching

    def is_portable(self) -> bool:
        """True when the spec can be shipped to a worker and cached on disk."""
        return hasattr(self.workload, "cache_token")

    def cache_key(self) -> str:
        """Stable hash of the full point configuration."""
        scale = dataclasses.asdict(self.scale)
        scale["seeds"] = list(self.scale.seeds)
        payload = {
            "version": CACHE_VERSION,
            # The two backends are contractually bit-identical (golden-trace
            # tests), but a cached point must still say which core computed
            # it: a benchmark or bisection that pins $REPRO_BACKEND must
            # never be served results the other backend produced.
            "backend": _core.active_backend(),
            "scale": scale,
            "protocol": str(self.protocol),
            "bandwidth": self.bandwidth,
            "workload": self.workload.cache_token(),
            "x_value": self.x_value,
            "num_processors": self.num_processors,
            "threshold": self.threshold,
            "broadcast_cost_factor": self.broadcast_cost_factor,
            "cache_capacity_blocks": self.cache_capacity_blocks,
        }
        blob = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()


# ------------------------------------------------------------- serialisation


def _point_to_json(point: SweepPoint) -> Dict:
    data = dataclasses.asdict(point)
    data["protocol"] = str(point.protocol)
    for result in data["results"]:
        result["protocol"] = str(result["protocol"])
    return data


def _point_from_json(data: Dict) -> SweepPoint:
    results = [
        RunResult(**{**r, "protocol": ProtocolName(r["protocol"])})
        for r in data["results"]
    ]
    return SweepPoint(
        protocol=ProtocolName(data["protocol"]),
        x=data["x"],
        performance=data["performance"],
        performance_per_processor=data["performance_per_processor"],
        mean_miss_latency=data["mean_miss_latency"],
        link_utilization=data["link_utilization"],
        broadcast_fraction=data["broadcast_fraction"],
        retries=data["retries"],
        results=results,
    )


class SweepCache:
    """On-disk JSON store of completed sweep points, keyed by config hash."""

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory).expanduser()
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def load(self, key: str) -> Optional[SweepPoint]:
        path = self._path(key)
        if not path.exists():
            return None
        try:
            return _point_from_json(json.loads(path.read_text()))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            # Truncated or garbled entry (interrupted write from a pre-atomic
            # cache, disk trouble, stray edits): quarantine it for inspection
            # instead of raising mid-sweep, and recompute the point.
            quarantined = Path(str(path) + ".corrupt")
            try:
                os.replace(path, quarantined)
                logger.warning(
                    "quarantined corrupt sweep-cache entry %s -> %s; "
                    "recomputing the point",
                    path.name,
                    quarantined.name,
                )
            except OSError:  # pragma: no cover - lost a race; entry is gone
                path.unlink(missing_ok=True)
            return None

    def store(self, key: str, point: SweepPoint) -> None:
        """Atomically persist one completed point.

        The JSON is written to a uniquely named temp file in the cache
        directory and ``os.replace``-d into place, so an interrupted (or
        concurrent) PAPER-scale run can never leave a torn or half-written
        cache entry — the entry either exists complete or not at all.
        """
        # "backend" is envelope metadata for humans inspecting a cache
        # directory; _point_from_json reads explicit keys, so loads ignore it
        # (the cache *key* already encodes the backend).
        payload = json.dumps(
            {"backend": _core.active_backend(), **_point_to_json(point)}
        )
        fd, tmp_name = tempfile.mkstemp(
            dir=self.directory, prefix=f".{key[:16]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp_name, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            raise


def _run_specs(specs: List[PointSpec]) -> List[SweepPoint]:
    """Module-level worker entry point for unbatched (build-per-point) runs."""
    return [spec.run() for spec in specs]


#: Per-process batch runner: worker processes live for the whole pool, so one
#: runner per process lets late-arriving chunks reuse systems (and warm object
#: pools) built by earlier chunks with the same batch key.
_PROCESS_RUNNER: Optional[BatchRunner] = None


def process_runner() -> BatchRunner:
    global _PROCESS_RUNNER
    if _PROCESS_RUNNER is None:
        _PROCESS_RUNNER = BatchRunner()
    return _PROCESS_RUNNER


def _run_chunk(specs: List[PointSpec]) -> List[SweepPoint]:
    """Module-level worker entry point for one batched chunk of specs."""
    return process_runner().run_specs(specs)


# ------------------------------------------------------------------ executor


def run_sweep(
    specs: Sequence[PointSpec],
    workers: Optional[int] = None,
    cache_dir: Union[os.PathLike, str, bool, None] = None,
    batch: bool = True,
    service=None,
    task_timeout: Union[float, bool, None] = None,
) -> List[SweepPoint]:
    """Run every spec and return results in input order.

    ``workers`` > 1 fans the uncached points across a process pool; ``None``
    or 1 runs serially (``0`` means "auto": $REPRO_SWEEP_WORKERS or the CPU
    count).  ``cache_dir`` enables the on-disk result cache, so repeated
    figure runs skip completed points; when it is not given, the
    $REPRO_SWEEP_CACHE environment variable supplies the default, so
    interrupted PAPER-scale sweeps resume automatically — pass
    ``cache_dir=False`` to disable caching outright, env var included
    (benchmarks that *time* sweeps must actually run them).  Completed
    points are persisted as they finish, not at sweep end.

    ``batch=True`` (the default) executes points on pooled, resettable
    systems — one construction per (protocol, processor count) per worker —
    which is wall-time equivalent work to ``batch=False``'s
    build-per-point path but substantially faster; results are identical
    either way.

    ``service`` routes the sweep through the fault-tolerant campaign service
    instead of the ad-hoc pool: pass a store directory, a
    :class:`~repro.experiments.jobstore.JobStore`, or a
    :class:`~repro.experiments.service.ServiceConfig`.  Points become durable
    leased work units — worker death, retries, resume and poison quarantine
    all apply — and ``workers`` counts pull-worker processes (``None``/1
    drains in-process).  Results are field-identical to the serial path.

    ``task_timeout`` (seconds; default $REPRO_TASK_TIMEOUT) bounds each pool
    task's wall clock: a hung task is cancelled, logged, and retried
    serially rather than stalling the whole sweep.
    """
    if workers == 0:
        workers = available_workers()
    workers = 1 if workers is None else max(1, workers)
    timeout = resolve_task_timeout(task_timeout)

    if cache_dir is None or cache_dir is True:
        # True is the symmetric spelling of "use the default cache" (False
        # disables it); both resolve through $REPRO_SWEEP_CACHE.
        cache_dir = default_cache_dir()
    elif cache_dir is False:
        cache_dir = None
    cache = SweepCache(Path(cache_dir)) if cache_dir is not None else None
    results: List[Optional[SweepPoint]] = [None] * len(specs)
    pending: List[int] = []

    for index, spec in enumerate(specs):
        if cache is not None and spec.is_portable():
            cached = cache.load(spec.cache_key())
            if cached is not None:
                results[index] = cached
                continue
        pending.append(index)

    def finish(index: int, point: SweepPoint) -> None:
        """Record one computed point and stream it into the cache."""
        results[index] = point
        if cache is not None and specs[index].is_portable():
            cache.store(specs[index].cache_key(), point)

    if service is not None:
        # The durable-store path: portable points become leased work units;
        # ad-hoc (unpicklable) specs keep the in-process serial path below.
        from .service import run_service_sweep

        service_indices = [i for i in pending if specs[i].is_portable()]
        if service_indices:
            points, _summary = run_service_sweep(
                [specs[i] for i in service_indices],
                service,
                workers=None if workers <= 1 else workers,
            )
            for index, point in zip(service_indices, points):
                finish(index, point)
        parallel_indices: List[int] = []
        serial_indices = [i for i in pending if not specs[i].is_portable()]
    else:
        parallel_indices = [
            i for i in pending if workers > 1 and specs[i].is_portable()
        ]
        parallel_set = set(parallel_indices)
        serial_indices = [i for i in pending if i not in parallel_set]

    if parallel_indices:
        max_workers = min(workers, len(parallel_indices))
        if batch:
            chunks = chunk_indices(
                parallel_indices, lambda i: spec_batch_key(specs[i]), max_workers
            )
        else:
            chunks = [[i] for i in parallel_indices]
        run_pool(
            _run_chunk if batch else _run_specs,
            specs,
            chunks,
            max_workers,
            timeout,
            finish,
            "sweep point(s)",
        )
        # Timed-out points and a refused pool both leave holes; the serial
        # loop skips every point the pool did finish.
        serial_indices = sorted({*parallel_indices, *serial_indices})

    if serial_indices:
        runner = BatchRunner() if batch else None
        guard = (
            runner.arena.runtime()
            if runner is not None and runner.arena is not None
            else contextlib.nullcontext()
        )
        with guard:
            for index in serial_indices:
                if results[index] is None:
                    point = (
                        runner.run_spec(specs[index])
                        if runner is not None
                        else specs[index].run()
                    )
                    finish(index, point)

    return results  # type: ignore[return-value]


def sweep_curves(
    specs: Sequence[PointSpec],
    points: Sequence[SweepPoint],
    protocols: Sequence[ProtocolName],
) -> Dict[ProtocolName, List[SweepPoint]]:
    """Group flat (spec, point) pairs into per-protocol curves, input-ordered."""
    curves: Dict[ProtocolName, List[SweepPoint]] = {p: [] for p in protocols}
    for spec, point in zip(specs, points):
        curves[spec.protocol].append(point)
    return curves
