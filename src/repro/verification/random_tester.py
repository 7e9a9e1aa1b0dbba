"""Stand-alone random protocol tester (Section 3.4, "Verification").

The paper gained confidence in Snooping, Directory and BASH by driving each
protocol with a random tester that uses false sharing, random action/check
(store/load) pairs, and widely variable message latencies to push the
controllers through their corner cases.  This module is that tester for the
reproduction: it drives the cache controllers of a small system directly
(bypassing the processor sequencers), concentrating all traffic on a handful
of hot blocks so that racing GETS/GETM/PUTM transactions collide constantly,
and then checks

* the coherence invariants of :mod:`repro.verification.invariants` — both
  mid-run (an :class:`~repro.verification.invariants.InvariantMonitor` fires
  at every transaction completion) and over the quiescent final state, and
* per-block value consistency (every load returns the token written by the
  most recent store ordered before it).

Low link bandwidth plus randomised issue times provide the widely variable
message latencies; ``max_outstanding_per_node`` > 1 adds the multi-miss
concurrency the protocol races need (the high-water mark actually reached is
reported so tests can assert the concurrency really happened).

The tester participates in the campaign engine's reset-reuse: pass
``acquire`` (e.g. :meth:`repro.experiments.batch.BatchRunner.acquire`) and
the underlying system is reset instead of rebuilt between runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..common.config import ProtocolName, SystemConfig
from ..coherence.state import MOSIState
from ..coherence.transaction import Transaction
from ..errors import VerificationError
from ..interconnect.message import MessageType
from ..system.multiprocessor import MultiprocessorSystem
from ..workloads.trace import TraceWorkload
from .consistency import ConsistencyChecker
from .invariants import InvariantMonitor, InvariantReport, check_invariants


@dataclass
class RandomTestResult:
    """Summary of one random-tester campaign."""

    protocol: ProtocolName
    operations_issued: int
    operations_completed: int
    reads: int
    writes: int
    writebacks: int
    retries: int
    nacks: int
    invariant_report: InvariantReport
    consistency_violations: List[str] = field(default_factory=list)
    max_outstanding_observed: int = 0
    midrun_report: Optional[InvariantReport] = None

    @property
    def ok(self) -> bool:
        """True when every check passed and all operations completed."""
        return (
            self.invariant_report.ok
            and (self.midrun_report is None or self.midrun_report.ok)
            and not self.consistency_violations
            and self.operations_completed == self.operations_issued
        )

    def describe_failures(self) -> List[str]:
        """Every failed check as a human-readable string."""
        problems: List[str] = []
        prefix = str(self.protocol)
        if self.operations_completed != self.operations_issued:
            problems.append(
                f"{prefix}: {self.operations_issued - self.operations_completed} "
                f"of {self.operations_issued} random operations never completed"
            )
        if self.midrun_report is not None:
            problems.extend(
                f"{prefix} [mid-run] {v}" for v in self.midrun_report.violations
            )
        problems.extend(
            f"{prefix} [final] {v}" for v in self.invariant_report.violations
        )
        problems.extend(
            f"{prefix} [consistency] {v}" for v in self.consistency_violations
        )
        return problems

    def raise_on_failure(self) -> None:
        """Raise :class:`VerificationError` describing the first failures."""
        if self.operations_completed != self.operations_issued:
            raise VerificationError(
                f"{self.operations_issued - self.operations_completed} of "
                f"{self.operations_issued} random operations never completed "
                f"(protocol {self.protocol})"
            )
        if self.midrun_report is not None:
            self.midrun_report.raise_on_violation()
        self.invariant_report.raise_on_violation()
        if self.consistency_violations:
            summary = "; ".join(self.consistency_violations[:10])
            raise VerificationError(
                f"consistency violations under {self.protocol}: {summary}"
            )


class RandomProtocolTester:
    """Drives one protocol through randomised, heavily conflicting traffic."""

    def __init__(
        self,
        protocol: ProtocolName,
        num_processors: int = 4,
        num_blocks: int = 4,
        operations: int = 400,
        seed: int = 1,
        bandwidth_mb_per_second: float = 400.0,
        max_outstanding_per_node: int = 1,
        midrun_invariants: bool = True,
        acquire: Optional[
            Callable[[SystemConfig, TraceWorkload], MultiprocessorSystem]
        ] = None,
    ) -> None:
        self.protocol = ProtocolName(protocol)
        self.num_processors = num_processors
        self.num_blocks = num_blocks
        self.operations = operations
        self.rng = random.Random(seed)
        self.config = SystemConfig(
            num_processors=num_processors,
            protocol=self.protocol,
            bandwidth_mb_per_second=bandwidth_mb_per_second,
            random_seed=seed,
        )
        empty_traces = {node: [] for node in range(num_processors)}
        if acquire is not None:
            self.system = acquire(self.config, TraceWorkload(empty_traces))
        else:
            self.system = MultiprocessorSystem(self.config, TraceWorkload(empty_traces))
        self.checker = ConsistencyChecker()
        self.monitor = (
            InvariantMonitor(self.system) if midrun_invariants else None
        )
        self.max_outstanding_per_node = max_outstanding_per_node
        self.max_outstanding_observed = 0
        self._outstanding: Dict[int, int] = {n: 0 for n in range(num_processors)}
        self._issued = 0
        self._completed = 0
        self._writebacks = 0
        self._token_counter = 0

    # ----------------------------------------------------------------- driving

    def _address(self, block_index: int) -> int:
        return block_index * self.config.cache_block_bytes

    def _next_token(self) -> int:
        self._token_counter += 1
        return self._token_counter

    def _schedule_next_issue(self, node_id: int) -> None:
        delay = self.rng.randrange(1, 200)
        self.system.simulator.scheduler.schedule_after_fast(
            delay, lambda: self._issue_random(node_id), f"tester-issue-n{node_id}"
        )

    def _note_issue(self, node_id: int) -> None:
        self._issued += 1
        outstanding = self._outstanding[node_id] + 1
        self._outstanding[node_id] = outstanding
        if outstanding > self.max_outstanding_observed:
            self.max_outstanding_observed = outstanding

    def _issue_random(self, node_id: int) -> None:
        if self._issued >= self.operations:
            return
        if self._outstanding[node_id] >= self.max_outstanding_per_node:
            self._schedule_next_issue(node_id)
            return
        cache = self.system.nodes[node_id].cache_controller
        address = self._address(self.rng.randrange(self.num_blocks))
        state = cache.state_of(address)
        if cache.has_outstanding(address):
            self._schedule_next_issue(node_id)
            return
        choice = self.rng.random()
        if choice < 0.15 and state.is_owner:
            self._issue_writeback(node_id, cache, address)
        elif choice < 0.55 and not state.can_write:
            self._issue_write(node_id, cache, address)
        elif not state.has_valid_data:
            self._issue_read(node_id, cache, address)
        elif not state.can_write:
            self._issue_write(node_id, cache, address)
        else:
            # Everything would be a hit; silently drop the block to create a
            # fresh miss (the protocols allow silent S->I; for owned blocks we
            # fall back to a writeback).
            if state is MOSIState.SHARED:
                cache.blocks.lookup(address).invalidate()
                cache.blocks.drop(address)
                self._issue_read(node_id, cache, address)
            else:
                self._issue_writeback(node_id, cache, address)
        self._schedule_next_issue(node_id)

    def _issue_read(self, node_id: int, cache, address: int) -> None:
        self._note_issue(node_id)
        cache.issue_request(
            address,
            MessageType.GETS,
            callback=lambda txn, n=node_id: self._on_read_complete(n, txn),
        )

    def _issue_write(self, node_id: int, cache, address: int) -> None:
        self._note_issue(node_id)
        token = self._next_token()
        cache.issue_request(
            address,
            MessageType.GETM,
            callback=lambda txn, n=node_id: self._on_write_complete(n, txn),
            store_token=token,
        )

    def _issue_writeback(self, node_id: int, cache, address: int) -> None:
        self._note_issue(node_id)
        self._writebacks += 1
        cache.issue_writeback(
            address,
            callback=lambda txn, n=node_id: self._on_writeback_complete(n, txn),
        )

    # -------------------------------------------------------------- completion

    def _note_completion(self, node_id: int, transaction: Transaction) -> None:
        self._completed += 1
        self._outstanding[node_id] -= 1
        if self.monitor is not None:
            self.monitor.on_complete(transaction)

    def _on_read_complete(self, node_id: int, transaction: Transaction) -> None:
        self.checker.record_read(
            node_id,
            transaction.address,
            transaction.received_token,
            transaction.effective_order_seq,
            self.system.simulator.now,
        )
        self._note_completion(node_id, transaction)

    def _on_write_complete(self, node_id: int, transaction: Transaction) -> None:
        self.checker.record_write(
            node_id,
            transaction.address,
            transaction.store_token,
            transaction.effective_order_seq,
            self.system.simulator.now,
        )
        self._note_completion(node_id, transaction)

    def _on_writeback_complete(self, node_id: int, transaction: Transaction) -> None:
        self._note_completion(node_id, transaction)

    # -------------------------------------------------------------------- run

    def run(self, max_cycles: int = 5_000_000) -> RandomTestResult:
        """Run the campaign to completion and apply every check."""
        for node_id in range(self.num_processors):
            self._schedule_next_issue(node_id)
        self.system.simulator.run(
            until=max_cycles,
            stop_when=lambda: (
                self._issued >= self.operations
                and self._completed >= self._issued
                and self.system.simulator.scheduler.pending == 0
            ),
        )
        # Let any in-flight transactions (and the monitor's deferred settle /
        # confirm probes) drain.
        self.system.simulator.run(until=self.system.simulator.now + 200_000)
        counters = self.system.stats.counters()
        invariant_report = check_invariants(self.system, expect_quiescent=True)
        return RandomTestResult(
            protocol=self.protocol,
            operations_issued=self._issued,
            operations_completed=self._completed,
            reads=self.checker.reads,
            writes=self.checker.writes,
            writebacks=self._writebacks,
            retries=int(counters.get("system.retries", 0)),
            nacks=int(counters.get("system.nacks", 0)),
            invariant_report=invariant_report,
            consistency_violations=self.checker.check(),
            max_outstanding_observed=self.max_outstanding_observed,
            midrun_report=self.monitor.report() if self.monitor is not None else None,
        )


def run_random_campaign(
    protocol: ProtocolName,
    seeds: range = range(3),
    operations: int = 300,
    num_processors: int = 4,
    num_blocks: int = 4,
    bandwidth_mb_per_second: float = 400.0,
    max_outstanding_per_node: int = 1,
    acquire: Optional[
        Callable[[SystemConfig, TraceWorkload], MultiprocessorSystem]
    ] = None,
) -> List[RandomTestResult]:
    """Run several independent random-tester campaigns for one protocol."""
    results = []
    for seed in seeds:
        tester = RandomProtocolTester(
            protocol,
            num_processors=num_processors,
            num_blocks=num_blocks,
            operations=operations,
            seed=seed + 1,
            bandwidth_mb_per_second=bandwidth_mb_per_second,
            max_outstanding_per_node=max_outstanding_per_node,
            acquire=acquire,
        )
        results.append(tester.run())
    return results
