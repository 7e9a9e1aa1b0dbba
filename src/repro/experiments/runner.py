"""Sweep points: scales, per-point configurations, workload specs.

Every figure in the paper's evaluation is a sweep: vary one knob (available
bandwidth, utilization threshold, processor count, think time, workload) and
run the three protocols at each point.  The scenarios of
:mod:`repro.experiments.scenario` declare those sweeps; this module holds
what one point of them is.  :class:`ExperimentScale` controls how large the
sweeps are — ``QUICK`` keeps the test suite and CI fast, ``PAPER``
approaches the paper's configuration (64 processors, long runs) for offline
reproduction runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from ..common.config import AdaptiveConfig, ProtocolName, SystemConfig
from ..system.multiprocessor import RunResult, simulate
from ..workloads.base import Workload
from ..workloads.microbenchmark import LockingMicrobenchmark
from ..workloads.synthetic import SyntheticCommercialWorkload

#: The three protocols compared in every figure.
PROTOCOLS = (ProtocolName.SNOOPING, ProtocolName.DIRECTORY, ProtocolName.BASH)


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs controlling how expensive the reproduction sweeps are."""

    name: str
    microbenchmark_processors: int
    workload_processors: int
    acquires_per_processor: int
    operations_per_processor: int
    num_locks: int
    bandwidth_points: Sequence[float]
    workload_bandwidth_points: Sequence[float]
    processor_counts: Sequence[int]
    think_times: Sequence[int]
    sampling_interval: int
    policy_counter_bits: int
    seeds: Sequence[int]

    def adaptive_config(self, threshold: float = 0.75) -> AdaptiveConfig:
        """Adaptive mechanism parameters scaled to the run length.

        The paper's 512-cycle interval and 8-bit counter need on the order of
        a thousand misses to swing across their full range; the QUICK scale
        shrinks both so the mechanism reaches its operating point within the
        its shorter runs.
        """
        return AdaptiveConfig(
            utilization_threshold=threshold,
            sampling_interval=self.sampling_interval,
            policy_counter_bits=self.policy_counter_bits,
        )


#: Fast sweeps for the test suite and CI.
QUICK = ExperimentScale(
    name="quick",
    microbenchmark_processors=16,
    workload_processors=8,
    acquires_per_processor=60,
    operations_per_processor=60,
    num_locks=1024,
    bandwidth_points=(200, 400, 800, 1600, 3200, 6400, 12800),
    workload_bandwidth_points=(800, 1600, 3200, 6400),
    processor_counts=(4, 8, 16, 32),
    think_times=(0, 200, 400, 800),
    sampling_interval=128,
    policy_counter_bits=6,
    seeds=(1,),
)

#: Larger sweeps approximating the paper's configuration (minutes of runtime).
PAPER = ExperimentScale(
    name="paper",
    microbenchmark_processors=64,
    workload_processors=16,
    acquires_per_processor=300,
    operations_per_processor=300,
    num_locks=4096,
    bandwidth_points=(100, 200, 400, 800, 1600, 3200, 6400, 12800, 25600),
    workload_bandwidth_points=(600, 1200, 2400, 4800, 9600),
    processor_counts=(4, 8, 16, 32, 64, 128, 256),
    think_times=(0, 100, 200, 400, 600, 800, 1000),
    sampling_interval=512,
    policy_counter_bits=8,
    seeds=(1, 2, 3),
)


@dataclass
class SweepPoint:
    """One (protocol, x-value) measurement averaged over seeds."""

    protocol: ProtocolName
    x: float
    performance: float
    performance_per_processor: float
    mean_miss_latency: float
    link_utilization: float
    broadcast_fraction: float
    retries: int
    results: List[RunResult]


def microbenchmark_config(
    scale: ExperimentScale,
    protocol: ProtocolName,
    bandwidth: float,
    num_processors: Optional[int] = None,
    threshold: float = 0.75,
    broadcast_cost_factor: float = 1.0,
    seed: int = 1,
) -> SystemConfig:
    """System configuration for a microbenchmark run at one sweep point."""
    return SystemConfig(
        num_processors=(
            scale.microbenchmark_processors if num_processors is None else num_processors
        ),
        protocol=protocol,
        bandwidth_mb_per_second=bandwidth,
        broadcast_cost_factor=broadcast_cost_factor,
        adaptive=scale.adaptive_config(threshold),
        random_seed=seed,
    )


def point_configs(
    scale: ExperimentScale,
    protocol: ProtocolName,
    bandwidth: float,
    num_processors: Optional[int] = None,
    threshold: float = 0.75,
    broadcast_cost_factor: float = 1.0,
    cache_capacity_blocks: Optional[int] = None,
) -> List[SystemConfig]:
    """One :class:`SystemConfig` per seed of the scale, for one sweep point."""
    configs: List[SystemConfig] = []
    for seed in scale.seeds:
        config = microbenchmark_config(
            scale,
            protocol,
            bandwidth,
            num_processors=num_processors,
            threshold=threshold,
            broadcast_cost_factor=broadcast_cost_factor,
            seed=seed,
        )
        if cache_capacity_blocks is not None:
            config = replace(config, cache_capacity_blocks=cache_capacity_blocks)
        configs.append(config)
    return configs


def aggregate_point(
    protocol: ProtocolName, x: float, results: List[RunResult]
) -> SweepPoint:
    """Average per-seed :class:`RunResult`\\ s into one :class:`SweepPoint`."""
    count = len(results)
    return SweepPoint(
        protocol=protocol,
        x=x,
        performance=sum(r.performance for r in results) / count,
        performance_per_processor=sum(
            r.performance_per_processor for r in results
        )
        / count,
        mean_miss_latency=sum(r.mean_miss_latency for r in results) / count,
        link_utilization=sum(r.mean_link_utilization for r in results) / count,
        broadcast_fraction=sum(r.broadcast_fraction for r in results) / count,
        retries=int(sum(r.retries for r in results) / count),
        results=results,
    )


def run_point(
    scale: ExperimentScale,
    protocol: ProtocolName,
    bandwidth: float,
    workload_factory,
    x_value: Optional[float] = None,
    num_processors: Optional[int] = None,
    threshold: float = 0.75,
    broadcast_cost_factor: float = 1.0,
    cache_capacity_blocks: Optional[int] = None,
) -> SweepPoint:
    """Run one sweep point for one protocol, averaging over the scale's seeds.

    Builds a fresh system per seed.  The batched sweep executor
    (:class:`repro.experiments.batch.BatchRunner`) produces identical points
    while reusing one constructed system per (protocol, processor count).
    """
    configs = point_configs(
        scale,
        protocol,
        bandwidth,
        num_processors=num_processors,
        threshold=threshold,
        broadcast_cost_factor=broadcast_cost_factor,
        cache_capacity_blocks=cache_capacity_blocks,
    )
    results = [
        simulate(config, workload_factory(config.random_seed)) for config in configs
    ]
    return aggregate_point(protocol, bandwidth if x_value is None else x_value, results)


@dataclass(frozen=True)
class LockingWorkloadSpec:
    """Picklable description of a locking-microbenchmark workload.

    Calling the spec with a seed builds a fresh workload, so it drops into the
    ``workload_factory`` slot of :func:`run_point` while remaining cheap to
    ship to worker processes and stable to hash for the result cache.
    """

    num_locks: int
    acquires_per_processor: int
    think_cycles: int = 0
    think_jitter: int = 16

    def __call__(self, seed: int) -> Workload:
        return LockingMicrobenchmark(
            num_locks=self.num_locks,
            acquires_per_processor=self.acquires_per_processor,
            think_cycles=self.think_cycles,
            think_jitter=self.think_jitter,
        )

    def cache_token(self) -> str:
        """Stable identity for the on-disk sweep cache."""
        return repr(self)


@dataclass(frozen=True)
class SyntheticWorkloadSpec:
    """Picklable description of a synthetic commercial workload."""

    preset_name: str
    operations_per_processor: int

    def __call__(self, seed: int) -> Workload:
        return SyntheticCommercialWorkload(
            self.preset_name,
            operations_per_processor=self.operations_per_processor,
        )

    def cache_token(self) -> str:
        """Stable identity for the on-disk sweep cache."""
        return repr(self)


def microbenchmark_factory(
    scale: ExperimentScale, think_cycles: int = 0
) -> LockingWorkloadSpec:
    """Factory building a fresh locking microbenchmark per seed."""
    return LockingWorkloadSpec(
        num_locks=scale.num_locks,
        acquires_per_processor=scale.acquires_per_processor,
        think_cycles=think_cycles,
        think_jitter=16,
    )


def synthetic_factory(scale: ExperimentScale, preset_name: str) -> SyntheticWorkloadSpec:
    """Factory building a fresh synthetic commercial workload per seed."""
    return SyntheticWorkloadSpec(
        preset_name, operations_per_processor=scale.operations_per_processor
    )
