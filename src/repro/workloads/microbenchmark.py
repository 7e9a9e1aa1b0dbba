"""The locking microbenchmark of Section 4.1.

Each processor acquires and releases locks that are generally uncontended;
after releasing one lock it immediately (or after a configurable think time)
attempts to acquire another.  Each processor has at most one outstanding
request.  Because the number of locks is comparable to the number of lines in
a cache, essentially every acquire misses on a line owned by whichever
processor released that lock last — a sharing miss, the near-worst case for a
directory protocol.

An acquire is modelled as a store (GETM) to the lock's cache line, and the
release as a second store to the same line, which hits in M and costs nothing
further.  The benchmark's figure of merit is lock acquires per nanosecond.
"""

from __future__ import annotations

from typing import Dict, Optional

from .._core import is_stock, stock
from ..errors import WorkloadError
from .base import C_INT_LIMIT, MemoryOperation, Workload, c_ints, stock_rng


@stock
class LockingMicrobenchmark(Workload):
    """Uncontended lock acquire/release stream with configurable think time."""

    def __init__(
        self,
        num_locks: int = 4096,
        acquires_per_processor: int = 200,
        think_cycles: int = 0,
        think_jitter: int = 0,
    ) -> None:
        if num_locks < 2:
            raise WorkloadError(f"need at least 2 locks, got {num_locks}")
        if acquires_per_processor < 1:
            raise WorkloadError(
                f"acquires_per_processor must be positive, got {acquires_per_processor}"
            )
        if think_cycles < 0 or think_jitter < 0:
            raise WorkloadError("think time parameters must be non-negative")
        self.num_locks = num_locks
        self.acquires_per_processor = acquires_per_processor
        self.think_cycles = think_cycles
        self.think_jitter = think_jitter
        self._completed: Dict[int, int] = {}
        self._issued: Dict[int, int] = {}
        self._last_lock: Dict[int, int] = {}

    # ------------------------------------------------------------ generation

    def bind(self, num_processors: int, block_bytes: int, rng) -> None:
        super().bind(num_processors, block_bytes, rng)
        self._completed = {node: 0 for node in range(num_processors)}
        self._issued = {node: 0 for node in range(num_processors)}
        self._last_lock = {node: -1 for node in range(num_processors)}

    def lock_address(self, lock_index: int) -> int:
        """Cache-block-aligned address of lock ``lock_index``."""
        return lock_index * self.block_bytes

    def next_operation(self, node_id: int, now: int) -> Optional[MemoryOperation]:
        try:
            issued = self._issued[node_id]
        except KeyError:
            self.require_bound()
            raise
        if issued >= self.acquires_per_processor:
            return None
        # Pick a lock different from the one we just released so that the
        # acquire cannot trivially hit in our own cache.
        lock = self.rng.randrange(self.num_locks)
        if lock == self._last_lock[node_id]:
            lock = (lock + 1) % self.num_locks
        self._last_lock[node_id] = lock
        self._issued[node_id] = issued + 1
        think = self.think_cycles
        if self.think_jitter:
            think += self.rng.randrange(self.think_jitter + 1)
        return MemoryOperation(
            address=self.lock_address(lock),
            is_write=True,
            think_cycles=think,
            instructions=0,
            label="lock-acquire",
        )

    def on_complete(self, node_id, operation, latency, was_miss, now) -> None:
        self._completed[node_id] += 1

    def finished(self, node_id: int) -> bool:
        return self._completed[node_id] >= self.acquires_per_processor

    # -------------------------------------------------------------- reporting

    def total_acquires(self) -> int:
        """Total lock acquires completed across all processors."""
        return sum(self._completed.values())

    def describe(self) -> str:
        return (
            f"LockingMicrobenchmark(locks={self.num_locks}, "
            f"acquires/proc={self.acquires_per_processor}, "
            f"think={self.think_cycles})"
        )


def compile_issue_source(workload: LockingMicrobenchmark, sequencer):
    """``(2, kwargs)`` for the C step's locking source, or None.

    Source mode 2 mirrors :meth:`LockingMicrobenchmark.next_operation` and
    :meth:`~LockingMicrobenchmark.on_complete`: the ``_issued`` quota test,
    the lock draw (``randrange`` as CPython writes it, through the shared
    RNG's C ``getrandbits``), the step past ``_last_lock``, the think
    jitter, the ``MemoryOperation`` and the ``_completed`` count -- on the
    workload's own RNG and dicts, which every node shares, so a node on the
    pure path draws from the same stream in the same order.  It needs a
    stock workload, ``MemoryOperation`` and RNG
    (:func:`~repro.workloads.base.stock_rng`) and exact-int parameters whose
    arithmetic stays inside 64 bits; any other shape returns None and the
    step calls the bound Python methods.  ``sequencer`` is unused: every
    node draws from the same state.
    """
    block_bytes = workload.block_bytes
    if not (
        is_stock(workload, MemoryOperation)
        and stock_rng(workload.rng)
        and c_ints(
            workload.num_locks,
            workload.acquires_per_processor,
            workload.think_cycles,
            workload.think_jitter,
            block_bytes,
        )
        and workload.num_locks * block_bytes < C_INT_LIMIT
        and type(workload._issued) is dict
        and type(workload._completed) is dict
        and type(workload._last_lock) is dict
    ):
        return None
    return 2, {
        "op_cls": MemoryOperation,
        "rng": workload.rng,
        "issued": workload._issued,
        "completed": workload._completed,
        "last_lock": workload._last_lock,
        "quota": workload.acquires_per_processor,
        "think": workload.think_cycles,
        "jitter": workload.think_jitter,
        "keys": workload.num_locks,
        "op_block_bytes": block_bytes,
    }
