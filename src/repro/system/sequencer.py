"""Blocking in-order processor model.

The paper uses a deliberately simple processor model to keep full-system
multiprocessor simulation tractable: each processor generates blocking
requests to a unified cache and has at most one outstanding miss.  The
sequencer here does the same: it asks its workload for the next memory
reference, waits out the think time (the instructions executed at the
perfect-memory rate of four per cycle), performs the reference — a hit costs
nothing further, a miss issues a GETS or GETM through the cache controller and
blocks until it completes — and repeats.
"""

from __future__ import annotations

import random

from .._core import stock
from ..common.config import SystemConfig
from ..common.stats import StatsRegistry
from ..coherence.state import MOSIState
from ..coherence.transaction import Transaction
from ..interconnect.message import MessageType
from ..protocols.base import CacheControllerBase
from ..sim.component import Component
from ..sim.scheduler import Scheduler
from ..workloads.base import MemoryOperation, Workload


@stock
class Sequencer(Component):
    """Drives one processor's reference stream through its cache controller."""

    def __init__(
        self,
        node_id: int,
        config: SystemConfig,
        cache_controller: CacheControllerBase,
        workload: Workload,
        scheduler: Scheduler,
        stats: StatsRegistry,
        rng: random.Random,
    ) -> None:
        super().__init__(f"sequencer{node_id}", scheduler, stats)
        self.node_id = node_id
        self.config = config
        self.cache = cache_controller
        self.workload = workload
        self.rng = rng
        self.operations_completed = 0
        self.hits = 0
        self.misses = 0
        self.instructions = 0
        self.done = False
        #: Optional hook invoked once when the reference stream is exhausted;
        #: the multiprocessor uses it to keep an O(1) completion check.
        self.on_done = None
        self._store_tokens = 0
        # System-wide stat handles hoisted out of the per-operation path.
        self._sys_operations = stats.counter("system.operations")
        self._sys_instructions = stats.counter("system.instructions")
        # Hot-path prebinds: one memory reference sits between every pair of
        # protocol events, so attribute chains and helper frames here are paid
        # at event-loop rates.
        self._blocks_get = cache_controller.blocks.get
        self._blocks_is_full = cache_controller.blocks.is_full
        self._blocks_eviction_candidate = cache_controller.blocks.eviction_candidate
        self._blocks_drop = cache_controller.blocks.drop
        self._transactions = cache_controller.transactions
        self._writebacks = cache_controller.writebacks
        self._block_bytes = config.cache_block_bytes
        self._next_operation = workload.next_operation
        self._on_complete = workload.on_complete
        self._schedule_after_fast1 = scheduler.schedule_after_fast1
        self._perform_label = self.full_label("perform")
        self._retry_label = self.full_label("retry-busy")
        self._ctr_misses = stats.counter(self.stat_name("misses"))
        self._ctr_hits = stats.counter(self.stat_name("hits"))
        #: The per-operation delivery entry _fetch_next schedules.  start()
        #: may swap in a compiled SequencerStep (repro._core) that fuses
        #: _perform with the issue/completion bookkeeping; the pure method
        #: here remains the executable spec and the fallback.
        self._perform_entry = self._perform

    def reset(self, config: SystemConfig, workload: Workload) -> None:
        """Re-arm this sequencer for a fresh run driving ``workload``.

        The cache controller has already been reset (its MSHR dicts were
        cleared in place, so the prebound references here stay valid); the
        workload is a fresh instance per sweep point, so its hot entry points
        are re-prebound.
        """
        self.config = config
        self.workload = workload
        self.operations_completed = 0
        self.hits = 0
        self.misses = 0
        self.instructions = 0
        self.done = False
        self._store_tokens = 0
        self._next_operation = workload.next_operation
        self._on_complete = workload.on_complete
        # Any compiled step baked constants from the previous run's config
        # and workload; start() recompiles against the fresh ones.
        self._perform_entry = self._perform
        self.reset_stat_caches()

    # ----------------------------------------------------------------- drive

    def start(self) -> None:
        """Begin issuing the workload's reference stream.

        Compilation happens per run (the multiprocessor calls ``start`` for
        every sweep point), so config- and workload-dependent constants baked
        into the compiled step are re-derived after each reset.
        """
        from ..protocols.dispatch import compile_sequencer_step  # noqa: PLC0415

        self._perform_entry = compile_sequencer_step(self) or self._perform
        self._fetch_next()

    def _fetch_next(self) -> None:
        operation = self._next_operation(self.node_id, self.scheduler.now)
        if operation is None:
            self._finish_stream()
            return
        think = operation.think_cycles
        self._schedule_after_fast1(
            think if think > 0 else 0,
            self._perform_entry,
            operation,
            self._perform_label,
        )

    def _finish_stream(self) -> None:
        """The reference stream is exhausted; mark done and notify."""
        self.done = True
        self.count("finished")
        if self.on_done is not None:
            self.on_done()

    def _perform(self, operation: MemoryOperation) -> None:
        # Inline block-address and state lookups (equivalent to
        # config.block_address + cache.state_of) — this runs once per memory
        # reference and sits between every pair of events.
        address = operation.address
        address -= address % self._block_bytes
        block = self._blocks_get(address)
        state = MOSIState.INVALID if block is None else block.state
        hit = state.can_write if operation.is_write else state.has_valid_data
        if hit:
            # A hit implies valid data, so the probed block is never None.
            self._complete_hit(operation, block)
            return
        if address in self._transactions or address in self._writebacks:
            # A writeback for this block is still in flight (possible when a
            # workload re-touches a block it just evicted); retry shortly.
            self._schedule_after_fast1(10, self._perform, operation, self._retry_label)
            return
        if self._blocks_is_full():
            self._maybe_evict()
        self.misses += 1
        self._ctr_misses._count += 1
        if operation.is_write:
            kind = MessageType.GETM
            # Inlined _next_store_token: one token per (node, store) pair.
            self._store_tokens += 1
            token = self.node_id * 1_000_000 + self._store_tokens
        else:
            kind = MessageType.GETS
            token = 0
        transaction = self.cache.issue_request(
            address,
            kind,
            callback=self._complete_miss,
            store_token=token,
        )
        # Completion is always at least one network event away, so attaching
        # the operation after issue_request returns cannot race the callback.
        transaction.context = operation

    # ------------------------------------------------------------ completion

    def _complete_hit(self, operation: MemoryOperation, block) -> None:
        self.hits += 1
        self._ctr_hits._count += 1
        block.last_access_time = self.scheduler.now
        self._account(operation, latency=0, was_miss=False)

    def _complete_miss(self, transaction: Transaction) -> None:
        block = self._blocks_get(transaction.address)
        now = self.scheduler.now
        if block is not None:
            block.last_access_time = now
        self._account(
            transaction.context, latency=transaction.latency or 0, was_miss=True
        )

    def _account(self, operation: MemoryOperation, latency: int, was_miss: bool) -> None:
        self.operations_completed += 1
        instructions = operation.instructions
        self.instructions += instructions
        self._sys_operations._count += 1
        self._sys_instructions._count += instructions
        self._on_complete(self.node_id, operation, latency, was_miss, self.scheduler.now)
        self._fetch_next()

    # -------------------------------------------------------------- eviction

    def _maybe_evict(self) -> None:
        """Evict the least recently used block when the cache is full.

        The sole caller (``_perform``) has already established fullness via
        the prebound ``_blocks_is_full``, so no state is re-derived here:
        the candidate probe and drop go through prebound store methods, and
        the outstanding-MSHR test indexes the prebound dicts directly.
        """
        victim = self._blocks_eviction_candidate()
        if victim is None:
            return
        address = victim.address
        if address in self._transactions or address in self._writebacks:
            return
        if victim.is_owner:
            self.count("evictions.writeback")
            self.cache.issue_writeback(address)
        else:
            self.count("evictions.silent")
            victim.invalidate()
            self._blocks_drop(address)
