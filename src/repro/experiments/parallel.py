"""Sweep points and the one rule that decides how a list of units runs.

Every figure in the paper's evaluation is an embarrassingly parallel sweep of
independent ``simulate()`` runs — (protocol, x-value, seed) points that share
nothing *semantically* but share almost everything *structurally*:

* :class:`PointSpec` is a picklable description of one sweep point (the same
  arguments :func:`repro.experiments.runner.run_point` takes), and its
  :meth:`~PointSpec.cache_key` is a hash of the full configuration,
* :func:`run_units` is the single dispatch rule for sweep points and
  verification tasks alike (see below),
* :func:`run_sweep` runs a list of specs through it, returning
  :class:`SweepPoint` results in input order (a scenario's
  :class:`~repro.experiments.study.ResultFrame` groups them into curves).

The dispatch rule: with no store and ``workers <= 1`` (counting at most one
worker per portable unit), units run serially on one
:class:`~repro.experiments.batch.BatchRunner` — one constructed system per
(protocol, processor count), reset between points, hot objects pooled in a
shared arena and the cyclic GC parked for the whole loop.  Every other run
goes through the job-store service (:mod:`repro.experiments.service`): the
units are enqueued in the given store, or in a temporary one when only
``workers > 1`` was asked for, and drained in-process (``workers <= 1``) or
by that many pull-worker processes.  The store is also the result cache: a
unit already ``done`` there is a cache hit, so a re-run against the same
store recomputes nothing.  Units that cannot leave the process (ad-hoc
workload closures) always run serially.

Determinism: each point is seeded from its own spec (``scale.seeds``), never
from worker identity, scheduling order, or the reset history of the system it
runs on — a reset system is contractually indistinguishable from a fresh one
(see the reset-equivalence tests), so ``run_sweep(workers=1)`` and
``run_sweep(workers=N)`` produce identical results point for point.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .. import _core
from ..common.config import ProtocolName
from ..errors import ConfigurationError
from ..system.multiprocessor import RunResult
from .batch import BatchRunner
from .runner import ExperimentScale, SweepPoint
from .service import ServiceSummary, run_service_sweep

#: Bump when the simulation core changes in a way that invalidates cached
#: sweep results.
CACHE_VERSION = 1

#: Environment variable consulted when ``workers`` is not given explicitly.
WORKERS_ENV = "REPRO_SWEEP_WORKERS"

#: Environment variable consulted when ``cache_dir`` is not given explicitly:
#: point it at a job-store directory and every sweep (including the
#: PAPER-scale figure scenarios) keeps its points there, so an interrupted
#: reproduction resumes from the completed points instead of recomputing them.
CACHE_ENV = "REPRO_SWEEP_CACHE"


def available_workers() -> int:
    """Worker count to use by default: $REPRO_SWEEP_WORKERS or the CPU count.

    A value that does not parse as an integer raises
    :class:`ConfigurationError` naming the variable and the value.
    """
    env = os.environ.get(WORKERS_ENV)
    if not env:
        return os.cpu_count() or 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ConfigurationError(
            f"${WORKERS_ENV}={env!r} is not a valid int"
        ) from None


def default_cache_dir() -> Optional[str]:
    """Store directory to use by default: $REPRO_SWEEP_CACHE, or None."""
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

    # ------------------------------------------------------------- caching

    def is_portable(self) -> bool:
        """True when the spec can become a job-store unit (see :func:`run_units`)."""
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


# ------------------------------------------------------------------ executor


def run_units(
    items: Sequence,
    run_serial: Callable[[object, BatchRunner], object],
    run_service: Callable,
    workers: Optional[int] = None,
    store=None,
    portable: Callable[[object], bool] = lambda item: True,
) -> Tuple[List, Optional[ServiceSummary]]:
    """Run ``items`` and return their results in input order: the one rule.

    ``workers`` of ``None`` or 1 means one worker; ``0`` means "auto"
    ($REPRO_SWEEP_WORKERS or the CPU count).  With no ``store`` and one
    worker — or fewer than two portable items to share among the workers —
    ``run_serial(item, runner)`` runs every item on one :class:`BatchRunner`
    under its arena guard.  Otherwise
    ``run_service(items, store, workers=...)`` — :func:`run_service_sweep` or
    :func:`~repro.experiments.service.run_service_campaign` — runs the
    ``portable`` items through the job-store service: in ``store`` (a
    directory, :class:`~repro.experiments.jobstore.JobStore` or
    :class:`~repro.experiments.service.ServiceConfig`) when given, else in a
    temporary store removed afterwards; ``workers > 1`` spawns a fleet of
    pull-workers, one worker drains in-process.  Items that are not portable
    still run serially here.  The second value is the service summary, or
    None when nothing went through the service.
    """
    if workers == 0:
        workers = available_workers()
    workers = 1 if workers is None else max(1, workers)
    results: List = [None] * len(items)
    summary = None
    queued = [index for index, item in enumerate(items) if portable(item)]
    fleet = min(workers, len(queued))
    if store is None and fleet <= 1:
        queued = []  # one worker and nothing to cache: the serial loop
    if queued:
        with (
            tempfile.TemporaryDirectory(prefix="repro-units-")
            if store is None
            else contextlib.nullcontext(store)
        ) as store:
            outputs, summary = run_service(
                [items[index] for index in queued],
                store,
                workers=fleet if fleet > 1 else None,
            )
        for index, output in zip(queued, outputs):
            results[index] = output
    local = sorted(set(range(len(items))).difference(queued))
    if local:
        runner = BatchRunner()
        with runner.arena.runtime():
            for index in local:
                results[index] = run_serial(items[index], runner)
    return results, summary


def run_sweep(
    specs: Sequence[PointSpec],
    workers: Optional[int] = None,
    cache_dir: Union[os.PathLike, str, bool, None] = None,
) -> List[SweepPoint]:
    """Run every spec and return results in input order (see :func:`run_units`).

    ``cache_dir`` names a job-store directory that doubles as the result
    cache: points already ``done`` there are not re-simulated, and every
    computed point is committed there as it finishes, so an interrupted
    sweep resumes where it stopped.  When it is not given, the
    $REPRO_SWEEP_CACHE environment variable supplies the default — pass
    ``cache_dir=False`` to disable caching outright, env var included
    (benchmarks that *time* sweeps must actually run them).  A point that
    fails on a store-backed run is retried, then quarantined, and the sweep
    raises :class:`~repro.errors.ServiceError` naming the error; an uncached
    serial run raises the error directly.
    """
    if cache_dir is None or cache_dir is True:
        # True is the symmetric spelling of "use the default cache" (False
        # disables it); both resolve through $REPRO_SWEEP_CACHE.
        cache_dir = default_cache_dir()
    elif cache_dir is False:
        cache_dir = None
    points, _summary = run_units(
        specs,
        lambda spec, runner: runner.run_spec(spec),
        run_service_sweep,
        workers=workers,
        store=cache_dir,
        portable=PointSpec.is_portable,
    )
    return points
