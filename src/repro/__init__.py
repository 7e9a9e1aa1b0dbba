"""repro — a reproduction of "Bandwidth Adaptive Snooping" (HPCA 2002).

The package implements the paper's Bandwidth Adaptive Snooping Hybrid (BASH)
coherence protocol, its Snooping and Directory baselines, the memory-system
timing simulator used to evaluate them, the locking microbenchmark and
synthetic stand-ins for the paper's commercial workloads, and the experiment
harness that regenerates every figure and table of the evaluation.

Quick start::

    from repro import SystemConfig, ProtocolName, LockingMicrobenchmark, simulate

    config = SystemConfig(num_processors=16, protocol=ProtocolName.BASH,
                          bandwidth_mb_per_second=1600)
    result = simulate(config, LockingMicrobenchmark(acquires_per_processor=50))
    print(result.performance, result.mean_miss_latency)
"""

from typing import TYPE_CHECKING

from ._exports import lazy_exports

if TYPE_CHECKING:
    from .common.config import AdaptiveConfig, LatencyConfig, ProtocolName, SystemConfig
    from .protocols.bash.adaptive import BandwidthAdaptiveMechanism
    from .protocols.complexity import complexity_table, format_table
    from .system.multiprocessor import MultiprocessorSystem, RunResult, simulate
    from .workloads.microbenchmark import LockingMicrobenchmark
    from .workloads.presets import WORKLOAD_PRESETS
    from .workloads.synthetic import SyntheticCommercialWorkload

__version__ = "1.0.0"

__all__ = [
    "AdaptiveConfig",
    "LatencyConfig",
    "ProtocolName",
    "SystemConfig",
    "BandwidthAdaptiveMechanism",
    "MultiprocessorSystem",
    "RunResult",
    "simulate",
    "LockingMicrobenchmark",
    "SyntheticCommercialWorkload",
    "WORKLOAD_PRESETS",
    "complexity_table",
    "format_table",
    "__version__",
]

# The public names load their modules on first use, so ``import repro``
# costs no simulator imports (see ``repro._exports``).
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".common.config": (
            "AdaptiveConfig",
            "LatencyConfig",
            "ProtocolName",
            "SystemConfig",
        ),
        ".protocols.bash.adaptive": ("BandwidthAdaptiveMechanism",),
        ".protocols.complexity": ("complexity_table", "format_table"),
        ".system.multiprocessor": ("MultiprocessorSystem", "RunResult", "simulate"),
        ".workloads.microbenchmark": ("LockingMicrobenchmark",),
        ".workloads.presets": ("WORKLOAD_PRESETS",),
        ".workloads.synthetic": ("SyntheticCommercialWorkload",),
    },
)
