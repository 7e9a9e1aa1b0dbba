"""Queueing-theory substrate for Figure 2.

The names below load their modules on first use (see ``repro._exports``):
the analytic model does not load the simulator the validation runs.
"""

from typing import TYPE_CHECKING

from .._exports import lazy_exports

if TYPE_CHECKING:
    from .mva import QueueingPoint, delay_versus_utilization, knee_utilization, mva_single_station
    from .simulation import QueueingSimulationResult, simulate_closed_network
    from .validation import (
        DELAY_BAND,
        THROUGHPUT_TOLERANCE,
        TrafficValidationPoint,
        TrafficValidationResult,
        UTILIZATION_TOLERANCE,
        calibrate_uncontended_response,
        run_traffic_validation,
        service_time_cycles,
        validate_traffic_point,
    )

__all__ = [
    "DELAY_BAND",
    "QueueingPoint",
    "THROUGHPUT_TOLERANCE",
    "UTILIZATION_TOLERANCE",
    "delay_versus_utilization",
    "knee_utilization",
    "mva_single_station",
    "QueueingSimulationResult",
    "simulate_closed_network",
    "TrafficValidationPoint",
    "TrafficValidationResult",
    "calibrate_uncontended_response",
    "run_traffic_validation",
    "service_time_cycles",
    "validate_traffic_point",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".mva": (
            "QueueingPoint",
            "delay_versus_utilization",
            "knee_utilization",
            "mva_single_station",
        ),
        ".simulation": ("QueueingSimulationResult", "simulate_closed_network"),
        ".validation": (
            "DELAY_BAND",
            "THROUGHPUT_TOLERANCE",
            "TrafficValidationPoint",
            "TrafficValidationResult",
            "UTILIZATION_TOLERANCE",
            "calibrate_uncontended_response",
            "run_traffic_validation",
            "service_time_cycles",
            "validate_traffic_point",
        ),
    },
)
