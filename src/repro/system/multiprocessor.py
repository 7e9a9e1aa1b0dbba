"""The simulated multiprocessor: nodes, interconnect, workload, and metrics."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..common.config import ProtocolName, SystemConfig
from ..errors import SimulationError
from ..interconnect.network import Interconnect
from ..protocols.factory import create_controllers
from ..sim.arena import SimulationArena
from ..sim.simulator import Simulator
from ..workloads.base import Workload
from .node import Node
from .sequencer import Sequencer


@dataclass
class RunResult:
    """Metrics of one completed simulation run.

    ``performance`` is the paper's generic y-axis: operations completed per
    nanosecond for the microbenchmark, instructions per cycle for the
    synthetic workloads (both are throughputs, so normalising either against a
    baseline run gives the plots of Figures 1, 5, 8, 10, 11 and 12).
    """

    protocol: ProtocolName
    num_processors: int
    bandwidth_mb_per_second: float
    cycles: int
    operations: int
    instructions: int
    misses: int
    hits: int
    mean_miss_latency: float
    mean_link_utilization: float
    broadcast_fraction: float
    retries: int
    nacks: int
    stats: Dict[str, float]

    @property
    def operations_per_cycle(self) -> float:
        """Completed memory operations per cycle (per ns)."""
        if self.cycles <= 0:
            return 0.0
        return self.operations / self.cycles

    @property
    def instructions_per_cycle(self) -> float:
        """Aggregate instructions per cycle across all processors."""
        if self.cycles <= 0:
            return 0.0
        return self.instructions / self.cycles

    @property
    def performance(self) -> float:
        """Throughput figure of merit (operations preferred, else instructions)."""
        if self.instructions:
            return self.instructions_per_cycle
        return self.operations_per_cycle

    @property
    def performance_per_processor(self) -> float:
        """Throughput per processor (Figure 8's y-axis)."""
        return self.performance / self.num_processors


#: Structural SystemConfig fields: a built system can only be reset to a
#: configuration that agrees on all of these.  Everything else (bandwidth,
#: broadcast cost factor, adaptive parameters, cache capacity, seed) is a
#: per-sweep-point knob the reset protocol re-arms in place.
_STRUCTURAL_FIELDS = (
    "protocol",
    "num_processors",
    "cache_block_bytes",
    "request_message_bytes",
    "data_message_bytes",
    "latency",
)


class MultiprocessorSystem:
    """Builds and runs one simulated machine for one workload.

    A built system is *resettable*: :meth:`reset` re-arms every component —
    scheduler, statistics, links, networks, controllers, sequencers — for a
    new (seed, bandwidth, threshold, workload) sweep point without rebuilding
    nodes or recompiling dispatch tables, and is contractually
    indistinguishable from constructing a fresh system (the reset-equivalence
    tests pin this field-for-field on :class:`RunResult` and bit-for-bit on
    the golden event traces).

    Passing a :class:`~repro.sim.arena.SimulationArena` pools the hot
    allocations (single-delivery messages, completed transactions) across
    resets and disables the cyclic GC around :meth:`run`.
    """

    def __init__(
        self,
        config: SystemConfig,
        workload: Workload,
        arena: Optional[SimulationArena] = None,
    ) -> None:
        self.config = config
        self.workload = workload
        self.arena = arena
        self.simulator = Simulator()
        self.stats = self.simulator.stats
        # Attach the arena before any component is built: controllers and
        # networks prebind their pooled allocation paths at construction.
        self.simulator.scheduler.arena = arena
        self.rng = random.Random(config.random_seed)
        self.interconnect = Interconnect(config, self.simulator.scheduler, self.stats)
        self.nodes: List[Node] = []
        workload.bind(config.num_processors, config.cache_block_bytes, self.rng)
        for node_id in range(config.num_processors):
            cache, memory = create_controllers(
                node_id, config, self.interconnect, self.simulator.scheduler, self.stats
            )
            sequencer = Sequencer(
                node_id,
                config,
                cache,
                workload,
                self.simulator.scheduler,
                self.stats,
                self.rng,
            )
            node = Node(node_id, cache, memory, sequencer)
            self.nodes.append(node)
            self.interconnect.attach_node(node_id, node)
        # The workload-finished check runs once per fired event, so it must be
        # as cheap as possible: count down running sequencers and flip a stop
        # cell the scheduler polls with a C-level subscript (see
        # Scheduler.run's stop_flag).
        self._running_sequencers = len(self.nodes)
        self._stop_cell = [False]
        for node in self.nodes:
            node.sequencer.on_done = self._note_sequencer_done
        # Statistics registered up to here are the construction baseline;
        # reset() zeroes them in place and prunes anything created later.
        self.stats.mark_baseline()

    # ------------------------------------------------------------------ reset

    def reset(
        self, workload: Workload, config: Optional[SystemConfig] = None
    ) -> "MultiprocessorSystem":
        """Re-arm the built system for a new sweep point.

        ``config`` (default: the current one) must agree with the constructed
        system on every structural field; per-point knobs — seed, bandwidth,
        broadcast cost factor, adaptive parameters, cache capacity — may
        differ.  ``workload`` is the fresh per-point workload instance.

        The order below mirrors construction exactly, so event sequence
        numbers (e.g. the BASH sampling events scheduled per node) come out
        identical to a fresh build — a requirement for bit-identical traces.
        """
        if config is None:
            config = self.config
        else:
            for name in _STRUCTURAL_FIELDS:
                if getattr(config, name) != getattr(self.config, name):
                    raise SimulationError(
                        f"cannot reset across structural config change "
                        f"{name!r}: {getattr(self.config, name)!r} -> "
                        f"{getattr(config, name)!r}; build a new system"
                    )
            self.config = config
        self.simulator.reset()
        self.rng.seed(config.random_seed)
        self.interconnect.reset(config)
        self.workload = workload
        workload.bind(config.num_processors, config.cache_block_bytes, self.rng)
        for node in self.nodes:
            node.cache_controller.reset_state(config)
            node.memory_controller.reset_state(config)
            node.sequencer.reset(config, workload)
        self._running_sequencers = len(self.nodes)
        self._stop_cell[0] = False
        return self

    # ----------------------------------------------------------------- running

    def run(
        self,
        max_cycles: int = 50_000_000,
        max_events: int = 20_000_000,
    ) -> RunResult:
        """Run until the workload completes on every processor."""
        if self.arena is not None:
            with self.arena.runtime():
                return self._run(max_cycles, max_events)
        return self._run(max_cycles, max_events)

    def _run(self, max_cycles: int, max_events: int) -> RunResult:
        for node in self.nodes:
            node.sequencer.start()
        self._stop_cell[0] = self._running_sequencers == 0
        self.simulator.run(
            until=max_cycles,
            max_events=max_events,
            stop_flag=self._stop_cell,
        )
        if not self._workload_finished() and self.simulator.scheduler.pending == 0:
            raise SimulationError(
                "simulation quiesced before the workload finished; a protocol "
                "transaction was lost"
            )
        return self.result()

    def _note_sequencer_done(self) -> None:
        self._running_sequencers -= 1
        if self._running_sequencers == 0:
            self._stop_cell[0] = True

    def _workload_finished(self) -> bool:
        return self._running_sequencers == 0

    # ------------------------------------------------------------ verification

    def final_memory_image(self, addresses=None) -> Dict[int, int]:
        """Per-block data tokens the machine would answer with at quiescence.

        For every block address (the union of cache and directory records, or
        the explicit ``addresses`` iterable), the token of the owning cache —
        or, when no cache owns the block, the home directory's memory copy.
        This is the observable "final memory state" the differential
        verification engine compares across protocols.
        """
        if addresses is None:
            touched = set()
            for node in self.nodes:
                for block in node.cache_controller.blocks:
                    touched.add(block.address)
                touched.update(node.memory_controller.directory.entries().keys())
            addresses = sorted(touched)
        image: Dict[int, int] = {}
        for address in addresses:
            token = 0
            owner_found = False
            for node in self.nodes:
                block = node.cache_controller.blocks.get(address)
                if block is not None and block.state.is_owner:
                    token = block.data_token
                    owner_found = True
                    break
            if not owner_found:
                home = self.nodes[self.config.home_node(address)]
                entry = home.memory_controller.directory.entries().get(address)
                if entry is not None:
                    token = entry.data_token
            image[address] = token
        return image

    def outstanding_transactions(self) -> List:
        """Every in-flight request or writeback, across all cache controllers.

        Used by the verification watchdog's failure dump to show exactly what
        was stuck when progress stopped.
        """
        outstanding = []
        for node in self.nodes:
            cache = node.cache_controller
            outstanding.extend(cache.transactions.values())
            outstanding.extend(cache.writebacks.values())
        return outstanding

    # ----------------------------------------------------------------- metrics

    def mean_endpoint_utilization(self) -> float:
        """Average endpoint link utilization over the whole run (Figure 6)."""
        return self.interconnect.mean_endpoint_utilization(self.simulator.now)

    def broadcast_fraction(self) -> float:
        """Fraction of coherence requests sent as broadcasts."""
        counters = self.stats.counters()
        broadcasts = counters.get("network.ordered.broadcasts", 0)
        multicasts = counters.get("network.ordered.multicasts", 0)
        total = broadcasts + multicasts
        if total == 0:
            return 0.0
        return broadcasts / total

    def result(self) -> RunResult:
        """Snapshot the run's metrics into a :class:`RunResult`."""
        counters = self.stats.counters()
        means = self.stats.means()
        operations = sum(node.sequencer.operations_completed for node in self.nodes)
        instructions = sum(node.sequencer.instructions for node in self.nodes)
        misses = sum(node.sequencer.misses for node in self.nodes)
        hits = sum(node.sequencer.hits for node in self.nodes)
        return RunResult(
            protocol=ProtocolName(self.config.protocol),
            num_processors=self.config.num_processors,
            bandwidth_mb_per_second=self.config.bandwidth_mb_per_second,
            cycles=self.simulator.now,
            operations=operations,
            instructions=instructions,
            misses=misses,
            hits=hits,
            mean_miss_latency=means.get("system.miss_latency", 0.0),
            mean_link_utilization=self.mean_endpoint_utilization(),
            broadcast_fraction=self.broadcast_fraction(),
            retries=int(counters.get("system.retries", 0)),
            nacks=int(counters.get("system.nacks", 0)),
            stats=self.stats.snapshot(),
        )


def simulate(
    config: SystemConfig,
    workload: Workload,
    max_cycles: int = 50_000_000,
    max_events: int = 20_000_000,
    arena: Optional[SimulationArena] = None,
) -> RunResult:
    """Convenience wrapper: build a system, run the workload, return metrics.

    ``arena`` opts the run into pooled hot-object allocation and run-scoped GC
    control; sweep drivers that execute many points pass one long-lived arena
    so the free lists warm up across runs (see
    :class:`repro.experiments.batch.BatchRunner` for the full reuse path,
    which also keeps the constructed system).
    """
    system = MultiprocessorSystem(config, workload, arena=arena)
    return system.run(max_cycles=max_cycles, max_events=max_events)
