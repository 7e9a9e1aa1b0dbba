"""Declarative scenario engine: named, grid-driven experiment definitions.

Every figure of the paper's evaluation — and every new study this repo grows —
is the same shape: cross a grid of knobs with the three protocols and compare
the curves.  A :class:`GridScenario` captures that shape declaratively: a
workload factory, a set of :class:`~repro.experiments.study.Axis` definitions,
fixed configuration values, and a presenter mapping the resulting
:class:`~repro.experiments.study.ResultFrame` onto the scenario's published
output shape.  :class:`AnalyticScenario` wraps the handful of non-sweep
artefacts (queueing model, counter walk-through, transaction examples,
complexity table) behind the same interface.

All scenarios live in the :data:`SCENARIOS` registry, the one way to produce
a figure: :func:`run_scenario` runs one by name from Python, ``python -m
repro list`` enumerates them and ``python -m repro run <name>`` executes one,
so PAPER-scale campaigns run, resume (via the sweep cache) and export without
writing Python.  The QUICK-scale outputs are pinned field-identical by
``tests/experiments/test_figure_snapshots.py``.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from ..common.config import ProtocolName
from ..workloads.patterns import (
    MigratoryWorkloadSpec,
    MixedTraceWorkloadSpec,
    ProducerConsumerWorkloadSpec,
    ReadMostlyWorkloadSpec,
)
from ..workloads.presets import WORKLOAD_ORDER
from ..workloads.streaming import StreamingTrafficSpec
from ..workloads.traffic import (
    BurstyTrafficSpec,
    DiurnalTrafficSpec,
    MultiTenantTrafficSpec,
)
from .runner import (
    PAPER,
    PROTOCOLS,
    QUICK,
    ExperimentScale,
    microbenchmark_factory,
    synthetic_factory,
)
from .study import Axis, ResultFrame, StudyError, StudyGrid, to_jsonable

#: Named scales the CLI can select.
SCALES: Dict[str, ExperimentScale] = {}


def register_scale(scale: ExperimentScale) -> ExperimentScale:
    SCALES[scale.name] = scale
    return scale


register_scale(QUICK)
register_scale(PAPER)


def resolve_scale(scale) -> ExperimentScale:
    """Accept an :class:`ExperimentScale` or a registered scale name."""
    if isinstance(scale, ExperimentScale):
        return scale
    try:
        return SCALES[str(scale).lower()]
    except KeyError:
        raise StudyError(
            f"unknown scale {scale!r}; registered scales: {sorted(SCALES)}"
        ) from None


# --------------------------------------------------------------- result type


@dataclass
class ScenarioResult:
    """What running one scenario produced.

    ``data`` is the scenario's published output shape (for the paper
    scenarios, the shape pinned by the figure snapshots); ``frame`` is the
    unified result table behind it (``None`` for analytic scenarios).
    """

    name: str
    scale: str
    data: object
    frame: Optional[ResultFrame] = None
    scenario: Optional[object] = None

    def to_jsonable(self) -> Dict:
        return {
            "scenario": self.name,
            "scale": self.scale,
            "data": to_jsonable(self.data),
            "frame": self.frame.to_json() if self.frame is not None else None,
        }

    def text(self) -> str:
        """Human-readable rendering (the CLI's default output)."""
        if self.scenario is not None and self.scenario.render is not None:
            return self.scenario.render(self)
        if self.frame is not None:
            from .report import format_frame

            scenario = self.scenario
            return format_frame(
                f"{self.name} [{self.scale}]",
                self.frame,
                curve_axis=scenario.curve_axis if scenario else "protocol",
                x_label=scenario.x_axis if scenario else "x",
                value=getattr(scenario, "subject", "performance"),
            )
        return json.dumps(to_jsonable(self.data), indent=2, sort_keys=True)


# ------------------------------------------------------------ scenario kinds


@dataclass(frozen=True)
class GridScenario:
    """A declarative grid study: axes x workload factory -> result frame."""

    name: str
    title: str
    description: str
    axes: Tuple[Axis, ...]
    workload: Callable[[ExperimentScale, Mapping], object]
    x_axis: str = "bandwidth"
    curve_axis: str = "protocol"
    #: The metric the scenario is *about* — what the default text rendering
    #: tabulates (figure 6 is link utilization, figure 9 miss latency, ...).
    subject: str = "performance"
    fixed: Mapping[str, object] = field(default_factory=dict)
    #: Maps the finished frame onto the published output shape.
    present: Optional[Callable[[ResultFrame, ExperimentScale], object]] = None
    #: Optional custom text rendering of a ScenarioResult.
    render: Optional[Callable[[ScenarioResult], str]] = None

    kind = "grid"

    def grid(
        self,
        scale=QUICK,
        axes: Optional[Mapping[str, Iterable]] = None,
        fixed: Optional[Mapping[str, object]] = None,
    ) -> StudyGrid:
        """Expand this scenario into an executable grid at one scale."""
        merged_fixed = dict(self.fixed)
        if fixed:
            merged_fixed.update(fixed)
        return StudyGrid(
            resolve_scale(scale),
            self.axes,
            self.workload,
            x_axis=self.x_axis,
            fixed=merged_fixed,
            axis_overrides=axes,
        )

    def run(
        self,
        scale=QUICK,
        workers: Optional[int] = None,
        cache_dir=None,
        axes: Optional[Mapping[str, Iterable]] = None,
        fixed: Optional[Mapping[str, object]] = None,
    ) -> ScenarioResult:
        scale = resolve_scale(scale)
        frame = self.grid(scale, axes=axes, fixed=fixed).run(
            workers=workers, cache_dir=cache_dir
        )
        try:
            data = (
                self.present(frame, scale)
                if self.present is not None
                else frame.curves(by=self.curve_axis)
            )
        except KeyError as error:
            # E.g. a --axis protocol override dropped the BASH baseline a
            # normalising presenter needs: fail with a clean library error
            # (the CLI renders it) instead of a raw KeyError traceback.
            raise StudyError(
                f"scenario {self.name!r} could not present its results: "
                f"{error.args[0] if error.args else error}"
            ) from error
        return ScenarioResult(
            name=self.name, scale=scale.name, data=data, frame=frame, scenario=self
        )


@dataclass(frozen=True)
class AnalyticScenario:
    """A non-sweep artefact (closed-form model, walkthrough, static table)."""

    name: str
    title: str
    description: str
    compute: Callable[[ExperimentScale], object]
    render: Optional[Callable[[ScenarioResult], str]] = None

    kind = "analytic"

    def run(self, scale=QUICK, **_ignored) -> ScenarioResult:
        """Analytic scenarios ignore workers/cache/axes — they do not sweep."""
        scale = resolve_scale(scale)
        return ScenarioResult(
            name=self.name,
            scale=scale.name,
            data=self.compute(scale),
            frame=None,
            scenario=self,
        )


# ------------------------------------------------------------------ registry

SCENARIOS: Dict[str, object] = {}


def register(scenario) -> object:
    """Add a scenario to the registry (last registration wins)."""
    SCENARIOS[scenario.name] = scenario
    return scenario


def get_scenario(name: str):
    try:
        return SCENARIOS[name]
    except KeyError:
        raise StudyError(
            f"unknown scenario {name!r}; run `python -m repro list` "
            f"(registered: {', '.join(sorted(SCENARIOS))})"
        ) from None


def scenario_names() -> List[str]:
    return sorted(SCENARIOS)


def run_scenario(
    name: str,
    scale=QUICK,
    workers: Optional[int] = None,
    cache_dir=None,
    axes: Optional[Mapping[str, Iterable]] = None,
    fixed: Optional[Mapping[str, object]] = None,
) -> ScenarioResult:
    """Execute a registered scenario by name.

    ``workers`` and ``cache_dir`` (a job-store directory) reach grid sweeps
    through :func:`repro.experiments.parallel.run_sweep`.
    """
    scenario = get_scenario(name)
    if scenario.kind == "grid":
        return scenario.run(
            scale=scale,
            workers=workers,
            cache_dir=cache_dir,
            axes=axes,
            fixed=fixed,
        )
    if axes or fixed:
        raise StudyError(
            f"scenario {name!r} is analytic; axis/fixed overrides do not apply"
        )
    return scenario.run(scale=scale)


# ------------------------------------------------- shared axis definitions

PROTOCOL_AXIS = Axis("protocol", values=PROTOCOLS)
BANDWIDTH_AXIS = Axis("bandwidth", scale_attr="bandwidth_points")
WORKLOAD_BANDWIDTH_AXIS = Axis("bandwidth", scale_attr="workload_bandwidth_points")


def _microbenchmark(scale: ExperimentScale, coords: Mapping) -> object:
    return microbenchmark_factory(scale, think_cycles=coords.get("think_time", 0))


def _named_workload(scale: ExperimentScale, coords: Mapping) -> object:
    name = coords["workload"]
    if name == "microbenchmark":
        return microbenchmark_factory(scale)
    return synthetic_factory(scale, name)


def _workload_processors(scale: ExperimentScale, coords: Mapping) -> int:
    return scale.workload_processors


def _synthetic_cache_blocks(scale: ExperimentScale, coords: Mapping):
    # The commercial-workload sweeps cap the cache (the paper's workloads
    # have working sets); the microbenchmark keeps the default capacity.
    return None if coords["workload"] == "microbenchmark" else 4096


# ------------------------------------------------------ presenter functions
#
# Scenarios whose published shape *is* the per-curve-axis dict need no
# presenter: GridScenario.run defaults to frame.curves(by=curve_axis).


def _present_normalized(frame: ResultFrame, scale) -> Dict[ProtocolName, List[float]]:
    return frame.normalized(name="normalized").curves(by="protocol", value="normalized")


def _present_link_utilization(frame: ResultFrame, scale) -> Dict:
    return {
        protocol: [
            {"bandwidth": point.x, "utilization": point.link_utilization}
            for point in points
        ]
        for protocol, points in frame.curves(by="protocol").items()
    }


def _present_per_workload_curves(frame: ResultFrame, scale) -> Dict[str, Dict]:
    return {
        name: frame.filter(workload=name).curves(by="protocol")
        for name in frame.unique("workload")
    }


def _present_workload_bars(frame: ResultFrame, scale) -> Dict[str, Dict[str, float]]:
    frame = frame.normalized(name="normalized")
    return {
        name: {
            str(protocol): values[0]
            for protocol, values in frame.filter(workload=name)
            .curves(by="protocol", value="normalized")
            .items()
        }
        for name in frame.unique("workload")
    }


def _render_normalized(result: ScenarioResult) -> str:
    from .report import format_normalized

    xs = result.frame.unique("x") if result.frame is not None else []
    return format_normalized(f"{result.name} [{result.scale}]", result.data, xs=xs)


def _render_bars(result: ScenarioResult) -> str:
    from .report import format_bars

    return format_bars(f"{result.name} [{result.scale}]", result.data)


# ----------------------------------------------------- the paper's scenarios

register(
    GridScenario(
        name="figure1",
        title="Performance vs available bandwidth (locking microbenchmark)",
        description=(
            "Figure 1: absolute performance of Snooping, Directory and BASH "
            "across the endpoint-bandwidth sweep."
        ),
        axes=(PROTOCOL_AXIS, BANDWIDTH_AXIS),
        workload=_microbenchmark,
    )
)

register(
    GridScenario(
        name="figure5",
        title="Normalized performance vs bandwidth",
        description=(
            "Figure 5: the Figure 1 sweep normalised point-by-point to BASH."
        ),
        axes=(PROTOCOL_AXIS, BANDWIDTH_AXIS),
        workload=_microbenchmark,
        present=_present_normalized,
        render=_render_normalized,
    )
)

register(
    GridScenario(
        name="figure6",
        title="Endpoint link utilization vs bandwidth",
        description=(
            "Figure 6: mean endpoint link utilization of each protocol "
            "across the Figure 1 sweep."
        ),
        axes=(PROTOCOL_AXIS, BANDWIDTH_AXIS),
        workload=_microbenchmark,
        subject="link_utilization",
        present=_present_link_utilization,
    )
)

register(
    GridScenario(
        name="figure7",
        title="BASH threshold sensitivity",
        description=(
            "Figure 7: BASH performance vs bandwidth for several "
            "utilization thresholds."
        ),
        axes=(Axis("threshold", values=(0.55, 0.75, 0.95)), BANDWIDTH_AXIS),
        workload=_microbenchmark,
        curve_axis="threshold",
        fixed={"protocol": ProtocolName.BASH},
    )
)

register(
    GridScenario(
        name="figure8",
        title="Performance per processor vs system size",
        description=(
            "Figure 8: per-processor performance as the machine grows, at "
            "fixed per-processor bandwidth."
        ),
        axes=(PROTOCOL_AXIS, Axis("num_processors", scale_attr="processor_counts")),
        workload=_microbenchmark,
        x_axis="num_processors",
        subject="performance_per_processor",
        fixed={"bandwidth": 1600.0},
    )
)

register(
    GridScenario(
        name="figure9",
        title="Miss latency vs think time",
        description=(
            "Figure 9: sensitivity to workload intensity — think time "
            "between lock acquires."
        ),
        axes=(PROTOCOL_AXIS, Axis("think_time", scale_attr="think_times")),
        workload=_microbenchmark,
        x_axis="think_time",
        subject="mean_miss_latency",
        fixed={"bandwidth": 1600.0},
    )
)

_FIGURE10 = register(
    GridScenario(
        name="figure10",
        title="Commercial workloads vs bandwidth",
        description=(
            "Figure 10: protocol performance across the synthetic commercial "
            "workloads (plus the microbenchmark)."
        ),
        axes=(
            Axis("workload", values=("microbenchmark",) + WORKLOAD_ORDER),
            PROTOCOL_AXIS,
            WORKLOAD_BANDWIDTH_AXIS,
        ),
        workload=_named_workload,
        fixed={
            "num_processors": _workload_processors,
            "cache_capacity_blocks": _synthetic_cache_blocks,
        },
        present=_present_per_workload_curves,
    )
)

# Figure 11 *is* Figure 10 with one knob changed; deriving it keeps the two
# declarations from drifting apart.
register(
    dataclasses.replace(
        _FIGURE10,
        name="figure11",
        title="Commercial workloads with 4x broadcast cost",
        description=(
            "Figure 11: the Figure 10 sweep with a 4x broadcast bandwidth "
            "cost (larger-system proxy)."
        ),
        fixed={**_FIGURE10.fixed, "broadcast_cost_factor": 4.0},
    )
)

register(
    GridScenario(
        name="figure12",
        title="Per-workload bars at 1600 MB/s, 4x broadcast cost",
        description=(
            "Figure 12: each protocol's performance normalised to BASH, per "
            "workload, at one bandwidth point."
        ),
        axes=(Axis("workload", values=WORKLOAD_ORDER), PROTOCOL_AXIS),
        workload=_named_workload,
        fixed={
            "bandwidth": 1600.0,
            "num_processors": _workload_processors,
            "cache_capacity_blocks": _synthetic_cache_blocks,
            "broadcast_cost_factor": 4.0,
        },
        present=_present_workload_bars,
        render=_render_bars,
    )
)


# The analytic bodies import what they use when they run: none of it is
# needed to build or sweep a system, so importing the registry stays cheap.


def _compute_figure2(scale: ExperimentScale) -> List[Dict[str, float]]:
    from ..queueing.mva import delay_versus_utilization

    return [
        {
            "think_time": point.think_time,
            "utilization": point.utilization,
            "queueing_delay": point.queueing_delay,
        }
        for point in delay_versus_utilization(customers=16)
    ]


def _compute_figure3(scale: ExperimentScale) -> Dict[str, List]:
    # The paper's example observes the link over seven cycles (busy on four
    # of them) with a 75% target, ending at -5.
    from ..protocols.bash.adaptive import utilization_counter_trace

    pattern = [False, True, True, False, True, False, True]
    return {"busy_pattern": pattern, "counter_values": utilization_counter_trace(pattern)}


def _compute_figure4(scale: ExperimentScale) -> Dict[str, Dict[str, float]]:
    # memory-to-cache, (a)/(b)/(c): P0 obtains exclusive access to a block
    # owned by memory.  cache-to-cache, (d)/(e)/(f): P0 obtains exclusive
    # access to a block owned by P1 with P3 sharing.
    return {
        f"{protocol}:{kind}": _single_transfer(protocol, cache_owned)
        for protocol in PROTOCOLS
        for kind, cache_owned in (("memory-to-cache", False), ("cache-to-cache", True))
    }


def _single_transfer(protocol: ProtocolName, cache_owned: bool) -> Dict[str, float]:
    """Measure one GETM by P0, optionally after P1 takes ownership and P3 shares."""
    from ..common.config import SystemConfig
    from ..system.multiprocessor import MultiprocessorSystem
    from ..workloads.base import MemoryOperation
    from ..workloads.trace import TraceWorkload

    config = SystemConfig(
        num_processors=4,
        protocol=protocol,
        # Very high, so the latencies are the uncontended protocol latencies
        # of Section 4.2.
        bandwidth_mb_per_second=100_000.0,
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
    result = MultiprocessorSystem(config, TraceWorkload(operations)).run(
        max_cycles=1_000_000
    )
    return {
        "requester_miss_latency": result.stats.get("cache0.miss_latency", 0.0),
        "mean_miss_latency": result.mean_miss_latency,
        "ordered_messages": result.stats.get("network.ordered.messages", 0),
        "unordered_messages": result.stats.get("network.unordered.messages", 0),
    }


def _compute_table1(scale: ExperimentScale) -> Dict:
    # This repo's protocol complexity counts alongside the published Table 1.
    from ..protocols.complexity import PAPER_TABLE_1, complexity_table

    return {"reproduction": complexity_table(), "paper": PAPER_TABLE_1}


register(
    AnalyticScenario(
        name="figure2",
        title="Queueing delay vs utilization",
        description=(
            "Figure 2: mean queueing delay of the closed M/D/1-style model "
            "as link utilization rises."
        ),
        compute=_compute_figure2,
    )
)

register(
    AnalyticScenario(
        name="figure3",
        title="Utilization counter walk-through",
        description=(
            "Figure 3: the paper's seven-cycle utilization-counter example "
            "(75% target, ending at -5)."
        ),
        compute=_compute_figure3,
    )
)

register(
    AnalyticScenario(
        name="figure4",
        title="Transaction walk-through latencies",
        description=(
            "Figure 4: uncontended latencies and message counts of the "
            "memory-to-cache and cache-to-cache transactions."
        ),
        compute=_compute_figure4,
    )
)

register(
    AnalyticScenario(
        name="table1",
        title="Protocol complexity (Table 1)",
        description=(
            "Table 1: states/events/transitions of the three protocols, "
            "reproduction counts alongside the published ones."
        ),
        compute=_compute_table1,
    )
)


def _compute_verification(scale: ExperimentScale) -> Dict:
    # Imported here, not at module top: the verification campaign imports
    # this package's sweep machinery.
    from ..verification.campaign import run_campaign

    # AnalyticScenario.run drops the sweep-engine knobs (workers, cache dir),
    # so the deep campaign asks for the auto worker count itself — thousands
    # of tasks must not run serially by accident.  `python -m repro verify`
    # is the front end with full control.
    campaign = "quick" if scale.name == "quick" else "deep"
    return run_campaign(campaign, workers=None if campaign == "quick" else 0).to_jsonable()


def _render_verification(result: ScenarioResult) -> str:
    data = result.data
    status = "PASS" if data["ok"] else f"FAIL ({len(data['failures'])} task(s))"
    return (
        f"verification [{data['campaign']}]: {status} — {data['tasks']} tasks, "
        f"{data['differential_traces']} differential traces, "
        f"{data['protocol_runs']} protocol runs, {data['operations']} "
        f"operations in {data['wall_seconds']}s"
    )


register(
    AnalyticScenario(
        name="verification",
        title="Differential protocol-verification campaign",
        description=(
            "Replay recorded random traces through all three protocols, "
            "cross-check final memory images and load observations, and run "
            "mid-run invariant monitoring (quick scale -> quick campaign, "
            "paper scale -> deep campaign); see also `python -m repro verify`."
        ),
        compute=_compute_verification,
        render=_render_verification,
    )
)


# ---------------------------------------------- new (non-paper) scenarios


def _migratory_workload(scale: ExperimentScale, coords: Mapping) -> object:
    return MigratoryWorkloadSpec(
        num_blocks=max(8, scale.num_locks // 64),
        rounds_per_processor=max(4, scale.operations_per_processor // 4),
        think_cycles=coords.get("think_time", 50),
    )


def _producer_consumer_workload(scale: ExperimentScale, coords: Mapping) -> object:
    return ProducerConsumerWorkloadSpec(
        buffer_blocks=8,
        rounds=max(2, scale.operations_per_processor // 16),
        think_cycles=coords.get("think_time", 30),
    )


def _read_mostly_workload(scale: ExperimentScale, coords: Mapping) -> object:
    return ReadMostlyWorkloadSpec(
        shared_blocks=256,
        operations_per_processor=scale.operations_per_processor,
        read_fraction=0.95,
    )


def _mixed_trace_workload(scale: ExperimentScale, coords: Mapping) -> object:
    return MixedTraceWorkloadSpec(
        num_processors=coords["num_processors"],
        operations_per_processor=scale.operations_per_processor,
        shared_blocks=128,
        private_blocks=512,
    )


register(
    GridScenario(
        name="migratory",
        title="Migratory-sharing stress",
        description=(
            "Non-paper scenario: blocks migrate processor-to-processor in "
            "read-modify-write chains — the classic pattern where ownership "
            "transfers dominate and broadcast finds the owner fastest."
        ),
        axes=(PROTOCOL_AXIS, WORKLOAD_BANDWIDTH_AXIS),
        workload=_migratory_workload,
        fixed={"num_processors": _workload_processors},
    )
)

register(
    GridScenario(
        name="producer_consumer",
        title="Producer-consumer pairs",
        description=(
            "Non-paper scenario: processor pairs stream data through shared "
            "buffers — steady one-way cache-to-cache transfer traffic."
        ),
        axes=(PROTOCOL_AXIS, WORKLOAD_BANDWIDTH_AXIS),
        workload=_producer_consumer_workload,
        fixed={"num_processors": _workload_processors},
    )
)

register(
    GridScenario(
        name="web_serving",
        title="Read-mostly web serving",
        description=(
            "Non-paper scenario: a hot read-mostly shared set (95% reads) "
            "with occasional invalidating writes — wide sharing lists that "
            "favour a directory keeping readers cached."
        ),
        axes=(PROTOCOL_AXIS, WORKLOAD_BANDWIDTH_AXIS),
        workload=_read_mostly_workload,
        fixed={"num_processors": _workload_processors},
    )
)

# --------------------------------------- internet-service traffic scenarios


def _zipfian_workload(scale: ExperimentScale, coords: Mapping) -> object:
    # Streaming on purpose: the per-node op stream is generated window by
    # window through StreamingTraceWorkload, never materialised — the same
    # ops ZipfianTrafficSpec would produce (verified by the test suite).
    return StreamingTrafficSpec(
        operations_per_processor=scale.operations_per_processor,
    )


def _diurnal_workload(scale: ExperimentScale, coords: Mapping) -> object:
    return DiurnalTrafficSpec(
        operations_per_processor=scale.operations_per_processor,
    )


def _bursty_workload(scale: ExperimentScale, coords: Mapping) -> object:
    return BurstyTrafficSpec(
        operations_per_processor=scale.operations_per_processor,
    )


def _multi_tenant_workload(scale: ExperimentScale, coords: Mapping) -> object:
    return MultiTenantTrafficSpec(
        operations_per_processor=scale.operations_per_processor,
    )


register(
    GridScenario(
        name="zipfian",
        title="Zipf-popular service traffic (streaming)",
        description=(
            "Non-paper scenario: internet-service reads/writes over a "
            "Zipf-popular key space, generated as a bounded streaming window "
            "per node (workloads.streaming) rather than a materialised trace."
        ),
        axes=(PROTOCOL_AXIS, WORKLOAD_BANDWIDTH_AXIS),
        workload=_zipfian_workload,
        fixed={"num_processors": _workload_processors},
    )
)

register(
    GridScenario(
        name="diurnal",
        title="Diurnal service traffic",
        description=(
            "Non-paper scenario: Zipf-popular traffic whose think times are "
            "modulated by a sinusoidal load curve — the day/night cycle of a "
            "production service compressed into simulated cycles."
        ),
        axes=(PROTOCOL_AXIS, WORKLOAD_BANDWIDTH_AXIS),
        workload=_diurnal_workload,
        fixed={"num_processors": _workload_processors},
    )
)

register(
    GridScenario(
        name="bursty",
        title="Bursty (on/off) service traffic",
        description=(
            "Non-paper scenario: Zipf-popular traffic under an on/off burst "
            "model — flash-crowd intervals where think times shrink by the "
            "burst factor, then quiet periods."
        ),
        axes=(PROTOCOL_AXIS, WORKLOAD_BANDWIDTH_AXIS),
        workload=_bursty_workload,
        fixed={"num_processors": _workload_processors},
    )
)

register(
    GridScenario(
        name="multi_tenant",
        title="Multi-tenant sharded traffic",
        description=(
            "Non-paper scenario: node groups act as tenants with disjoint "
            "Zipf-popular key shards — cross-tenant isolation of the hot "
            "sets, contention only within a tenant's shard."
        ),
        axes=(PROTOCOL_AXIS, WORKLOAD_BANDWIDTH_AXIS),
        workload=_multi_tenant_workload,
        fixed={"num_processors": _workload_processors},
    )
)


def _compute_traffic_validation(scale: ExperimentScale) -> Dict:
    # Imported here, not at module top: queueing.validation drives full
    # simulations through the experiment runner's config types.
    from ..queueing.validation import run_traffic_validation

    if scale.name == "quick":
        think_times = (2000.0, 800.0, 200.0)
        operations = 200
    else:
        think_times = (3000.0, 2000.0, 1200.0, 800.0, 400.0, 200.0)
        operations = 400
    return run_traffic_validation(
        think_times, operations_per_processor=operations
    ).to_jsonable()


def _render_traffic_validation(result: ScenarioResult) -> str:
    data = result.data
    lines = [
        f"traffic_validation [{result.scale}]: "
        + ("PASS" if data["ok"] else "FAIL")
        + f" — {len(data['points'])} open-loop points vs MVA "
        f"(service={data['service_time']:g}cy, "
        f"calibrated R0={data['calibration']:g}cy)"
    ]
    for point in data["points"]:
        lines.append(
            f"  Z={point['think_time']:>6g}cy  "
            f"U={point['measured']['utilization']:.3f} "
            f"(mva {point['mva']['utilization']:.3f}, "
            f"err {point['utilization_error']:.3f})  "
            f"X={point['measured']['throughput']:.5f}/cy "
            f"(rel err {point['throughput_error']:.3f})  "
            f"delay {point['measured']['queueing_delay']:.0f}cy "
            f"(mva {point['mva']['queueing_delay']:.0f}cy)"
        )
    for failure in data["failures"]:
        lines.append(f"  FAIL {failure}")
    return "\n".join(lines)


register(
    AnalyticScenario(
        name="traffic_validation",
        title="Open-loop traffic vs MVA queueing model",
        description=(
            "Cross-validate the simulator against queueing.mva: an open-loop "
            "traffic point (N customers reading cold blocks homed at one "
            "node) is measured and its home-link utilization, throughput and "
            "queueing delay are checked against the machine-repairman MVA "
            "prediction within documented tolerances."
        ),
        compute=_compute_traffic_validation,
        render=_render_traffic_validation,
    )
)


register(
    GridScenario(
        name="mixed_trace",
        title="Mixed deterministic trace replay",
        description=(
            "Non-paper scenario: a deterministic per-processor trace mixing "
            "private streaming, hot shared reads and migratory bursts, "
            "replayed bit-identically against all three protocols via "
            "workloads.trace.TraceWorkload."
        ),
        axes=(PROTOCOL_AXIS, WORKLOAD_BANDWIDTH_AXIS),
        workload=_mixed_trace_workload,
        fixed={"num_processors": _workload_processors},
    )
)
