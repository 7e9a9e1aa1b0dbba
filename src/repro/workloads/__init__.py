"""Workloads: the locking microbenchmark, synthetic commercial workloads, traces.

The names below load their modules on first use (see ``repro._exports``): a
run of one workload family loads only that family's module.
"""

from typing import TYPE_CHECKING

from .._exports import lazy_exports

if TYPE_CHECKING:
    from .base import MemoryOperation, Workload
    from .microbenchmark import LockingMicrobenchmark
    from .patterns import (
        MigratoryWorkload,
        MigratoryWorkloadSpec,
        MixedTraceWorkloadSpec,
        ProducerConsumerWorkload,
        ProducerConsumerWorkloadSpec,
        ReadMostlyWorkload,
        ReadMostlyWorkloadSpec,
        build_mixed_trace,
    )
    from .presets import WORKLOAD_ORDER, WORKLOAD_PRESETS, WorkloadPreset, preset
    from .streaming import (
        GeneratedOpStream,
        JsonlTraceReader,
        OperationStream,
        StreamingTraceFileSpec,
        StreamingTraceWorkload,
        StreamingTrafficSpec,
        write_trace_jsonl,
    )
    from .synthetic import SyntheticCommercialWorkload
    from .trace import TraceWorkload
    from .traffic import (
        BurstyTrafficSpec,
        DiurnalTrafficSpec,
        MultiTenantTrafficSpec,
        OpenLoopHomeWorkload,
        TrafficWorkload,
        ZipfianTrafficSpec,
        ZipfSampler,
        build_traffic_trace,
        traffic_operation_stream,
    )

__all__ = [
    "GeneratedOpStream",
    "JsonlTraceReader",
    "OperationStream",
    "StreamingTraceFileSpec",
    "StreamingTraceWorkload",
    "StreamingTrafficSpec",
    "write_trace_jsonl",
    "BurstyTrafficSpec",
    "DiurnalTrafficSpec",
    "MultiTenantTrafficSpec",
    "OpenLoopHomeWorkload",
    "TrafficWorkload",
    "ZipfianTrafficSpec",
    "ZipfSampler",
    "build_traffic_trace",
    "traffic_operation_stream",
    "MemoryOperation",
    "Workload",
    "LockingMicrobenchmark",
    "SyntheticCommercialWorkload",
    "TraceWorkload",
    "MigratoryWorkload",
    "MigratoryWorkloadSpec",
    "MixedTraceWorkloadSpec",
    "ProducerConsumerWorkload",
    "ProducerConsumerWorkloadSpec",
    "ReadMostlyWorkload",
    "ReadMostlyWorkloadSpec",
    "build_mixed_trace",
    "WorkloadPreset",
    "WORKLOAD_PRESETS",
    "WORKLOAD_ORDER",
    "preset",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".base": ("MemoryOperation", "Workload"),
        ".microbenchmark": ("LockingMicrobenchmark",),
        ".patterns": (
            "MigratoryWorkload",
            "MigratoryWorkloadSpec",
            "MixedTraceWorkloadSpec",
            "ProducerConsumerWorkload",
            "ProducerConsumerWorkloadSpec",
            "ReadMostlyWorkload",
            "ReadMostlyWorkloadSpec",
            "build_mixed_trace",
        ),
        ".presets": ("WORKLOAD_ORDER", "WORKLOAD_PRESETS", "WorkloadPreset", "preset"),
        ".streaming": (
            "GeneratedOpStream",
            "JsonlTraceReader",
            "OperationStream",
            "StreamingTraceFileSpec",
            "StreamingTraceWorkload",
            "StreamingTrafficSpec",
            "write_trace_jsonl",
        ),
        ".synthetic": ("SyntheticCommercialWorkload",),
        ".trace": ("TraceWorkload",),
        ".traffic": (
            "BurstyTrafficSpec",
            "DiurnalTrafficSpec",
            "MultiTenantTrafficSpec",
            "OpenLoopHomeWorkload",
            "TrafficWorkload",
            "ZipfianTrafficSpec",
            "ZipfSampler",
            "build_traffic_trace",
            "traffic_operation_stream",
        ),
    },
)
