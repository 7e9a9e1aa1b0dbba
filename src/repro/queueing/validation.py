"""Cross-validating the simulator against the exact MVA model of Figure 2.

:mod:`repro.queueing.mva` solves the paper's closed machine-repairman network
analytically; until now nothing tied that model back to the event-driven
simulator.  This module closes the loop by constructing a simulated operating
point that *is* that network, then comparing measured against predicted
behaviour — an independent correctness oracle at load levels where no golden
trace exists.

**The mapping.**  :class:`repro.workloads.traffic.OpenLoopHomeWorkload` makes
``N`` customer nodes cycle between exponential think time and a cold private
read whose home is one fixed node, under the Directory protocol (no
broadcasts).  Every miss is served by the home memory: the home's *outbound*
endpoint link transmits one DATA response plus one MARKER per miss, FIFO —
the single service station.  Everything else a miss traverses (requester
links, request transit, DRAM, network traversals) is a fixed-latency,
infinite-server path, so it folds into the model's think time:

* service time ``S`` = home out-link occupancy of DATA + MARKER (deterministic,
  ``ceil(bytes / bytes_per_cycle)`` each);
* fixed path ``F`` = uncontended response time minus ``S``, *calibrated* by a
  one-customer run of the same configuration (no queueing at N=1);
* MVA point = ``mva_single_station(N, S, Z + F)`` where ``Z`` is the
  workload's mean think time.

**Tolerances (documented contract).**  MVA is exact for exponential service;
the simulator's service times are deterministic.  Utilisation obeys
``U = X * S`` for *any* service distribution, and a closed network's
throughput is only mildly sensitive to service variability, so measured
utilisation must match MVA within ``UTILIZATION_TOLERANCE`` (absolute).
Queueing delay is distribution-sensitive (an M/D/1-style station queues about
half as long as M/M/1 at equal utilisation), so measured delay is asserted
inside ``DELAY_BAND`` x the MVA prediction plus a small absolute slack —
tight enough to catch a wrong queueing discipline or a mis-accounted service
time, loose enough for the deterministic-service gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..common.config import ProtocolName, SystemConfig
from ..common.units import transfer_cycles
from ..errors import VerificationError
from ..system.multiprocessor import MultiprocessorSystem
from ..workloads.traffic import OpenLoopHomeWorkload
from .mva import QueueingPoint, mva_single_station

#: Measured vs MVA utilisation must agree within this absolute tolerance.
UTILIZATION_TOLERANCE = 0.10

#: Measured queueing delay must fall inside DELAY_BAND x MVA prediction,
#: widened by DELAY_SLACK_SERVICE x S cycles of absolute slack (deterministic
#: service queues shorter than the exponential model; see module docstring).
DELAY_BAND = (0.20, 1.35)
DELAY_SLACK_SERVICE = 0.50

#: Relative tolerance on throughput (cycles^-1), same physics as utilisation.
THROUGHPUT_TOLERANCE = 0.12


@dataclass(frozen=True)
class TrafficValidationPoint:
    """Simulator vs analytic model at one open-loop traffic point."""

    customers: int
    think_time: float
    service_time: float
    fixed_path: float
    measured_utilization: float
    measured_throughput: float
    measured_queueing_delay: float
    measured_response_time: float
    predicted: QueueingPoint
    operations: int
    cycles: int

    @property
    def utilization_error(self) -> float:
        return abs(self.measured_utilization - self.predicted.utilization)

    @property
    def throughput_error(self) -> float:
        if self.predicted.throughput <= 0:
            return 0.0
        return abs(
            self.measured_throughput - self.predicted.throughput
        ) / self.predicted.throughput

    @property
    def delay_within_band(self) -> bool:
        low, high = DELAY_BAND
        slack = DELAY_SLACK_SERVICE * self.service_time
        predicted = self.predicted.queueing_delay
        return (
            low * predicted - slack
            <= self.measured_queueing_delay
            <= high * predicted + slack
        )

    @property
    def ok(self) -> bool:
        return (
            self.utilization_error <= UTILIZATION_TOLERANCE
            and self.throughput_error <= THROUGHPUT_TOLERANCE
            and self.delay_within_band
        )

    def failures(self) -> List[str]:
        problems: List[str] = []
        if self.utilization_error > UTILIZATION_TOLERANCE:
            problems.append(
                f"Z={self.think_time}: utilisation {self.measured_utilization:.3f} "
                f"vs MVA {self.predicted.utilization:.3f} "
                f"(|err| {self.utilization_error:.3f} > {UTILIZATION_TOLERANCE})"
            )
        if self.throughput_error > THROUGHPUT_TOLERANCE:
            problems.append(
                f"Z={self.think_time}: throughput {self.measured_throughput:.6f} "
                f"vs MVA {self.predicted.throughput:.6f} "
                f"(rel err {self.throughput_error:.3f} > {THROUGHPUT_TOLERANCE})"
            )
        if not self.delay_within_band:
            problems.append(
                f"Z={self.think_time}: queueing delay "
                f"{self.measured_queueing_delay:.1f} outside "
                f"{DELAY_BAND} x MVA {self.predicted.queueing_delay:.1f} "
                f"(+/- {DELAY_SLACK_SERVICE} x S={self.service_time})"
            )
        return problems

    def to_jsonable(self) -> Dict:
        return {
            "customers": self.customers,
            "think_time": self.think_time,
            "service_time": self.service_time,
            "fixed_path": self.fixed_path,
            "measured": {
                "utilization": self.measured_utilization,
                "throughput": self.measured_throughput,
                "queueing_delay": self.measured_queueing_delay,
                "response_time": self.measured_response_time,
            },
            "mva": {
                "utilization": self.predicted.utilization,
                "throughput": self.predicted.throughput,
                "queueing_delay": self.predicted.queueing_delay,
                "response_time": self.predicted.response_time,
            },
            "utilization_error": self.utilization_error,
            "throughput_error": self.throughput_error,
            "delay_within_band": self.delay_within_band,
            "operations": self.operations,
            "cycles": self.cycles,
            "ok": self.ok,
        }


def _validation_config(
    num_processors: int, bandwidth_mb_per_second: float, seed: int
) -> SystemConfig:
    return SystemConfig(
        num_processors=num_processors,
        protocol=ProtocolName.DIRECTORY,
        bandwidth_mb_per_second=bandwidth_mb_per_second,
        random_seed=seed,
    )


def _run_open_loop(
    config: SystemConfig,
    operations_per_processor: int,
    mean_think: float,
    issuers: int,
    home: int,
    seed: int,
) -> Tuple[float, float, float, int, int]:
    """One simulated point: (utilisation, throughput, miss latency, ops, cycles).

    Utilisation is the home's outbound-link busy fraction measured directly
    from the link's exact busy-period accounting — the very signal BASH's
    adaptive mechanism samples.
    """
    workload = OpenLoopHomeWorkload(
        operations_per_processor,
        mean_think,
        home=home,
        seed=seed,
        issuers=issuers,
    )
    system = MultiprocessorSystem(config, workload)
    result = system.run()
    if result.operations != issuers * operations_per_processor:
        raise VerificationError(
            f"open-loop run completed {result.operations} of "
            f"{issuers * operations_per_processor} operations"
        )
    now = system.simulator.now
    out_link = system.interconnect.links[home].outgoing
    utilization = out_link.busy_time_up_to(now) / now if now else 0.0
    throughput = result.misses / now if now else 0.0
    return (
        utilization,
        throughput,
        result.mean_miss_latency,
        result.operations,
        now,
    )


def service_time_cycles(config: SystemConfig) -> int:
    """The home out-link's deterministic occupancy per served miss.

    Each memory-served Directory miss puts one DATA response and one MARKER
    on the home's outbound link.
    """
    bytes_per_cycle = config.bytes_per_cycle
    data = transfer_cycles(config.data_message_bytes, bytes_per_cycle)
    marker = transfer_cycles(config.request_message_bytes, bytes_per_cycle)
    return data + marker


def validate_traffic_point(
    think_time: float,
    *,
    customers: int = 7,
    num_processors: int = 8,
    operations_per_processor: int = 200,
    bandwidth_mb_per_second: float = 400.0,
    seed: int = 1,
    calibration: Optional[float] = None,
) -> TrafficValidationPoint:
    """Run one open-loop point and compare it against the MVA model.

    ``calibration`` is the uncontended response time (one customer); pass it
    when sweeping several think times to calibrate once, or leave ``None``
    and the function measures it itself.
    """
    if customers >= num_processors:
        raise VerificationError(
            f"need customers < num_processors (one node is the home), got "
            f"{customers} of {num_processors}"
        )
    config = _validation_config(num_processors, bandwidth_mb_per_second, seed)
    service = float(service_time_cycles(config))
    if calibration is None:
        calibration = calibrate_uncontended_response(
            num_processors=num_processors,
            bandwidth_mb_per_second=bandwidth_mb_per_second,
            seed=seed,
        )
    fixed_path = max(0.0, calibration - service)
    utilization, throughput, miss_latency, operations, cycles = _run_open_loop(
        config, operations_per_processor, think_time, customers, home=0, seed=seed
    )
    predicted = mva_single_station(
        customers, service, think_time + fixed_path
    )
    return TrafficValidationPoint(
        customers=customers,
        think_time=think_time,
        service_time=service,
        fixed_path=fixed_path,
        measured_utilization=utilization,
        measured_throughput=throughput,
        measured_queueing_delay=max(0.0, miss_latency - calibration),
        measured_response_time=miss_latency,
        predicted=predicted,
        operations=operations,
        cycles=cycles,
    )


def calibrate_uncontended_response(
    *,
    num_processors: int = 8,
    operations_per_processor: int = 200,
    bandwidth_mb_per_second: float = 400.0,
    seed: int = 1,
) -> float:
    """Measured response time with a single customer (queueing-free)."""
    config = _validation_config(num_processors, bandwidth_mb_per_second, seed)
    _, _, miss_latency, _, _ = _run_open_loop(
        config,
        operations_per_processor,
        mean_think=4.0 * service_time_cycles(config),
        issuers=1,
        home=0,
        seed=seed,
    )
    return miss_latency


@dataclass
class TrafficValidationResult:
    """A think-time sweep of simulator-vs-MVA comparisons."""

    customers: int
    num_processors: int
    bandwidth_mb_per_second: float
    service_time: float
    fixed_path: float
    calibration: float
    points: List[TrafficValidationPoint]

    @property
    def ok(self) -> bool:
        return all(point.ok for point in self.points)

    def failures(self) -> List[str]:
        return [problem for point in self.points for problem in point.failures()]

    def to_jsonable(self) -> Dict:
        return {
            "customers": self.customers,
            "num_processors": self.num_processors,
            "bandwidth_mb_per_second": self.bandwidth_mb_per_second,
            "service_time": self.service_time,
            "fixed_path": self.fixed_path,
            "calibration": self.calibration,
            "tolerances": {
                "utilization_abs": UTILIZATION_TOLERANCE,
                "throughput_rel": THROUGHPUT_TOLERANCE,
                "delay_band": list(DELAY_BAND),
                "delay_slack_service": DELAY_SLACK_SERVICE,
            },
            "ok": self.ok,
            "failures": self.failures(),
            "points": [point.to_jsonable() for point in self.points],
        }


def run_traffic_validation(
    think_times: Sequence[float] = (2000.0, 800.0, 200.0),
    *,
    customers: int = 7,
    num_processors: int = 8,
    operations_per_processor: int = 200,
    bandwidth_mb_per_second: float = 400.0,
    seed: int = 1,
) -> TrafficValidationResult:
    """Sweep think time from light to heavy load and validate every point."""
    config = _validation_config(num_processors, bandwidth_mb_per_second, seed)
    calibration = calibrate_uncontended_response(
        num_processors=num_processors,
        operations_per_processor=operations_per_processor,
        bandwidth_mb_per_second=bandwidth_mb_per_second,
        seed=seed,
    )
    service = float(service_time_cycles(config))
    points = [
        validate_traffic_point(
            think_time,
            customers=customers,
            num_processors=num_processors,
            operations_per_processor=operations_per_processor,
            bandwidth_mb_per_second=bandwidth_mb_per_second,
            seed=seed,
            calibration=calibration,
        )
        for think_time in think_times
    ]
    return TrafficValidationResult(
        customers=customers,
        num_processors=num_processors,
        bandwidth_mb_per_second=bandwidth_mb_per_second,
        service_time=service,
        fixed_path=max(0.0, calibration - service),
        calibration=calibration,
        points=points,
    )
