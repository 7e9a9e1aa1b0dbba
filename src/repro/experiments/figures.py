"""Per-figure experiment drivers.

Each ``figure_*`` function regenerates the data behind one figure or table of
the paper's evaluation and returns it as plain Python structures (dicts and
lists) so that tests, benchmarks and the example scripts can all consume it.
The mapping from paper artefact to function:

========  ==========================================================
Figure 1  ``figure1_microbenchmark_performance`` (absolute curves)
Figure 2  ``figure2_queueing_delay``
Figure 3  ``figure3_utilization_counter``
Figure 4  ``figure4_transaction_walkthrough``
Figure 5  ``figure5_normalized_performance``
Figure 6  ``figure6_link_utilization``
Figure 7  ``figure7_threshold_sensitivity``
Figure 8  ``figure8_system_size``
Figure 9  ``figure9_think_time``
Figure 10 ``figure10_workloads``
Figure 11 ``figure11_workloads_4x_broadcast``
Figure 12 ``figure12_workload_bars``
Table 1   ``table1_complexity``
========  ==========================================================

Since the scenario-engine refactor these drivers are thin wrappers over the
:data:`repro.experiments.scenario.SCENARIOS` registry: each sweep figure is a
declarative :class:`~repro.experiments.scenario.GridScenario` expanded and
executed by :class:`~repro.experiments.study.StudyGrid`, and the drivers
merely translate their legacy keyword arguments into axis/fixed overrides.
Their outputs are pinned field-identical to the pre-engine implementations
(``tests/experiments/test_figure_snapshots.py``), and every driver now
threads ``workers``/``cache_dir`` through to the sweep executor.  The same
scenarios run from the command line: ``python -m repro run figure1``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..common.config import ProtocolName, SystemConfig
from ..protocols.bash.adaptive import utilization_counter_trace
from ..protocols.complexity import PAPER_TABLE_1, complexity_table
from ..queueing.mva import delay_versus_utilization
from ..system.multiprocessor import MultiprocessorSystem
from ..workloads.base import MemoryOperation
from ..workloads.presets import WORKLOAD_ORDER
from ..workloads.trace import TraceWorkload
from .runner import (
    PROTOCOLS,
    QUICK,
    ExperimentScale,
    SweepPoint,
    normalize_to,
)
from .scenario import link_utilization_curves, run_scenario

Curves = Dict[ProtocolName, List[SweepPoint]]


# --------------------------------------------------------------------- Fig 1/5


def figure1_microbenchmark_performance(
    scale: ExperimentScale = QUICK,
    bandwidths: Optional[Sequence[float]] = None,
    num_processors: Optional[int] = None,
    workers: Optional[int] = None,
    cache_dir=None,
) -> Curves:
    """Performance vs available bandwidth for the locking microbenchmark.

    ``workers``/``cache_dir`` fan the sweep across processes and keep
    completed points in a job store (see :mod:`repro.experiments.parallel`).
    """
    return run_scenario(
        "figure1",
        scale=scale,
        workers=workers,
        cache_dir=cache_dir,
        axes={"bandwidth": tuple(bandwidths)} if bandwidths else None,
        fixed=(
            {"num_processors": num_processors} if num_processors is not None else None
        ),
    ).data


def figure5_normalized_performance(
    curves: Optional[Curves] = None,
    scale: ExperimentScale = QUICK,
    workers: Optional[int] = None,
    cache_dir=None,
) -> Dict[ProtocolName, List[float]]:
    """The Figure 1 data normalised to BASH (Figure 5).

    When ``curves`` is not supplied, the Figure 1 sweep runs through the
    scenario engine with ``workers``/``cache_dir`` forwarded (historically it
    re-ran serially and uncached regardless of what the caller asked for).
    """
    if curves is not None:
        return normalize_to(curves, ProtocolName.BASH)
    return run_scenario(
        "figure5", scale=scale, workers=workers, cache_dir=cache_dir
    ).data


# ----------------------------------------------------------------------- Fig 2


def figure2_queueing_delay(customers: int = 16) -> List[Dict[str, float]]:
    """Mean queueing delay vs utilization for the closed queueing network."""
    points = delay_versus_utilization(customers=customers)
    return [
        {
            "think_time": point.think_time,
            "utilization": point.utilization,
            "queueing_delay": point.queueing_delay,
        }
        for point in points
    ]


# ----------------------------------------------------------------------- Fig 3


def figure3_utilization_counter() -> Dict[str, List]:
    """The utilization-counter walk-through of Figure 3.

    The paper's example observes the link over seven cycles (busy on four of
    them) with a 75 % target, ending at -5.
    """
    pattern = [False, True, True, False, True, False, True]
    values = utilization_counter_trace(pattern)
    return {"busy_pattern": pattern, "counter_values": values}


# ----------------------------------------------------------------------- Fig 4


def figure4_transaction_walkthrough(
    bandwidth: float = 100_000.0,
) -> Dict[str, Dict[str, float]]:
    """Latency and message counts of the two Figure 4 transaction examples.

    (a)/(b)/(c): P0 obtains exclusive access to a block owned by memory.
    (d)/(e)/(f): P0 obtains exclusive access to a block owned by P1 with P3
    sharing.  The bandwidth is set very high so the latencies reported are the
    uncontended protocol latencies of Section 4.2.
    """
    results: Dict[str, Dict[str, float]] = {}
    for protocol in PROTOCOLS:
        results[f"{protocol}:memory-to-cache"] = _single_transfer(
            protocol, bandwidth, cache_owned=False
        )
        results[f"{protocol}:cache-to-cache"] = _single_transfer(
            protocol, bandwidth, cache_owned=True
        )
    return results


def _single_transfer(
    protocol: ProtocolName, bandwidth: float, cache_owned: bool
) -> Dict[str, float]:
    """Measure one GETM by P0, optionally after P1 takes ownership and P3 shares."""
    config = SystemConfig(
        num_processors=4,
        protocol=protocol,
        bandwidth_mb_per_second=bandwidth,
        random_seed=1,
    )
    block = config.cache_block_bytes * 4  # homed at node 0
    operations: Dict[int, List[MemoryOperation]] = {n: [] for n in range(4)}
    if cache_owned:
        operations[1] = [MemoryOperation(address=block, is_write=True)]
        operations[3] = [MemoryOperation(address=block, is_write=False, think_cycles=600)]
        operations[0] = [MemoryOperation(address=block, is_write=True, think_cycles=2000)]
    else:
        operations[0] = [MemoryOperation(address=block, is_write=True)]
    system = MultiprocessorSystem(config, TraceWorkload(operations))
    result = system.run(max_cycles=1_000_000)
    ordered = result.stats.get("network.ordered.messages", 0)
    unordered = result.stats.get("network.unordered.messages", 0)
    p0_latency = 0.0
    for name, value in result.stats.items():
        if name == "cache0.miss_latency":
            p0_latency = value
    return {
        "requester_miss_latency": p0_latency,
        "mean_miss_latency": result.mean_miss_latency,
        "ordered_messages": ordered,
        "unordered_messages": unordered,
    }


# ----------------------------------------------------------------------- Fig 6


def figure6_link_utilization(
    curves: Optional[Curves] = None,
    scale: ExperimentScale = QUICK,
    workers: Optional[int] = None,
    cache_dir=None,
) -> Dict[ProtocolName, List[Dict[str, float]]]:
    """Endpoint link utilization vs available bandwidth (Figure 6)."""
    if curves is not None:
        return link_utilization_curves(curves)
    return run_scenario(
        "figure6", scale=scale, workers=workers, cache_dir=cache_dir
    ).data


# ----------------------------------------------------------------------- Fig 7


def figure7_threshold_sensitivity(
    scale: ExperimentScale = QUICK,
    thresholds: Sequence[float] = (0.55, 0.75, 0.95),
    bandwidths: Optional[Sequence[float]] = None,
    workers: Optional[int] = None,
    cache_dir=None,
) -> Dict[float, List[SweepPoint]]:
    """BASH performance vs bandwidth for several utilization thresholds."""
    axes = {"threshold": tuple(thresholds)}
    if bandwidths:
        axes["bandwidth"] = tuple(bandwidths)
    return run_scenario(
        "figure7", scale=scale, workers=workers, cache_dir=cache_dir, axes=axes
    ).data


# ----------------------------------------------------------------------- Fig 8


def figure8_system_size(
    scale: ExperimentScale = QUICK,
    processor_counts: Optional[Sequence[int]] = None,
    bandwidth_per_processor: float = 1600.0,
    workers: Optional[int] = None,
    cache_dir=None,
) -> Curves:
    """Performance per processor vs system size at fixed per-processor bandwidth."""
    return run_scenario(
        "figure8",
        scale=scale,
        workers=workers,
        cache_dir=cache_dir,
        axes=(
            {"num_processors": tuple(processor_counts)} if processor_counts else None
        ),
        fixed={"bandwidth": bandwidth_per_processor},
    ).data


# ----------------------------------------------------------------------- Fig 9


def figure9_think_time(
    scale: ExperimentScale = QUICK,
    think_times: Optional[Sequence[int]] = None,
    bandwidth: float = 1600.0,
    num_processors: Optional[int] = None,
    workers: Optional[int] = None,
    cache_dir=None,
) -> Curves:
    """Average miss latency vs think time (workload intensity, Figure 9)."""
    fixed: Dict[str, object] = {"bandwidth": bandwidth}
    if num_processors is not None:
        fixed["num_processors"] = num_processors
    return run_scenario(
        "figure9",
        scale=scale,
        workers=workers,
        cache_dir=cache_dir,
        axes=(
            {"think_time": tuple(think_times)} if think_times is not None else None
        ),
        fixed=fixed,
    ).data


# ----------------------------------------------------------------- Fig 10 / 11


def _workload_axis(
    workloads: Sequence[str], include_microbenchmark: bool
) -> tuple:
    prefix = ("microbenchmark",) if include_microbenchmark else ()
    return prefix + tuple(workloads)


def figure10_workloads(
    scale: ExperimentScale = QUICK,
    workloads: Sequence[str] = WORKLOAD_ORDER,
    bandwidths: Optional[Sequence[float]] = None,
    broadcast_cost_factor: float = 1.0,
    include_microbenchmark: bool = True,
    workers: Optional[int] = None,
    cache_dir=None,
) -> Dict[str, Curves]:
    """Performance vs bandwidth for the commercial workloads (16 processors)."""
    axes: Dict[str, tuple] = {
        "workload": _workload_axis(workloads, include_microbenchmark)
    }
    if bandwidths:
        axes["bandwidth"] = tuple(bandwidths)
    return run_scenario(
        "figure10",
        scale=scale,
        workers=workers,
        cache_dir=cache_dir,
        axes=axes,
        fixed={"broadcast_cost_factor": broadcast_cost_factor},
    ).data


def figure11_workloads_4x_broadcast(
    scale: ExperimentScale = QUICK,
    workloads: Sequence[str] = WORKLOAD_ORDER,
    bandwidths: Optional[Sequence[float]] = None,
    include_microbenchmark: bool = True,
    workers: Optional[int] = None,
    cache_dir=None,
) -> Dict[str, Curves]:
    """Figure 10 repeated with a 4x broadcast bandwidth cost (larger-system proxy)."""
    axes: Dict[str, tuple] = {
        "workload": _workload_axis(workloads, include_microbenchmark)
    }
    if bandwidths:
        axes["bandwidth"] = tuple(bandwidths)
    return run_scenario(
        "figure11", scale=scale, workers=workers, cache_dir=cache_dir, axes=axes
    ).data


# ---------------------------------------------------------------------- Fig 12


def figure12_workload_bars(
    scale: ExperimentScale = QUICK,
    workloads: Sequence[str] = WORKLOAD_ORDER,
    bandwidth: float = 1600.0,
    workers: Optional[int] = None,
    cache_dir=None,
) -> Dict[str, Dict[str, float]]:
    """Per-workload performance at 1600 MB/s with 4x broadcast cost, vs BASH.

    Returns, per workload, each protocol's performance normalised to BASH
    (the bar chart of Figure 12).
    """
    return run_scenario(
        "figure12",
        scale=scale,
        workers=workers,
        cache_dir=cache_dir,
        axes={"workload": tuple(workloads)},
        fixed={"bandwidth": bandwidth},
    ).data


# --------------------------------------------------------------------- Table 1


def table1_complexity() -> Dict[str, Dict[str, Dict[str, int]]]:
    """This repo's protocol complexity counts alongside the published Table 1."""
    return {"reproduction": complexity_table(), "paper": PAPER_TABLE_1}
