"""Sharing-pattern workloads for the non-paper scenarios.

The paper evaluates one microbenchmark and five synthetic commercial
workloads, but a coherence protocol's behaviour is really determined by the
*sharing pattern* of the reference stream.  This module implements three
classic patterns the paper does not isolate — migratory sharing,
producer-consumer streaming, and read-mostly wide sharing — plus a
deterministic mixed-trace generator that replays a blend of all of them
through :class:`~repro.workloads.trace.TraceWorkload`.

Each workload has a matching frozen ``*Spec`` dataclass mirroring
:class:`repro.experiments.runner.LockingWorkloadSpec`: calling the spec with
a seed builds a fresh workload, so it drops straight into the sweep
executor's ``workload_factory`` slot while staying picklable for worker
processes and stable to hash for the job-store result cache.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import WorkloadError
from .base import MemoryOperation, Workload
from .trace import TraceWorkload


class MigratoryWorkload(Workload):
    """Read-modify-write chains over blocks that migrate between processors.

    Each processor repeatedly picks the next block of a shared migratory set
    (offset by its node id so neighbours trail each other), reads it, then
    writes it — the canonical migratory-sharing pattern where ownership
    hops processor to processor and every access pair is a sharing miss.
    """

    def __init__(
        self,
        num_blocks: int = 64,
        rounds_per_processor: int = 16,
        think_cycles: int = 50,
        think_jitter: int = 8,
    ) -> None:
        if num_blocks < 2:
            raise WorkloadError(f"need at least 2 migratory blocks, got {num_blocks}")
        if rounds_per_processor < 1:
            raise WorkloadError(
                f"rounds_per_processor must be positive, got {rounds_per_processor}"
            )
        if think_cycles < 0 or think_jitter < 0:
            raise WorkloadError("think time parameters must be non-negative")
        self.num_blocks = num_blocks
        self.rounds_per_processor = rounds_per_processor
        self.think_cycles = think_cycles
        self.think_jitter = think_jitter
        self._issued: Dict[int, int] = {}
        self._completed: Dict[int, int] = {}

    def bind(self, num_processors: int, block_bytes: int, rng) -> None:
        super().bind(num_processors, block_bytes, rng)
        self._issued = {node: 0 for node in range(num_processors)}
        self._completed = {node: 0 for node in range(num_processors)}

    def _operations_per_processor(self) -> int:
        return 2 * self.rounds_per_processor  # a read and a write per visit

    def next_operation(self, node_id: int, now: int) -> Optional[MemoryOperation]:
        issued = self._issued[node_id]
        if issued >= self._operations_per_processor():
            return None
        self._issued[node_id] = issued + 1
        visit, phase = divmod(issued, 2)
        # Stagger processors across the block ring so each block is visited
        # by every processor in turn: ownership migrates around the machine.
        # The stride never drops below 1, or processors would all walk the
        # identical sequence in lockstep (all-contend, not migration).
        stride = max(1, self.num_blocks // self.num_processors)
        block = (visit + node_id * stride) % self.num_blocks
        think = self.think_cycles if phase == 0 else 0
        if phase == 0 and self.think_jitter:
            think += self.rng.randrange(self.think_jitter + 1)
        return MemoryOperation(
            address=block * self.block_bytes,
            is_write=phase == 1,
            think_cycles=think,
            instructions=0,
            label="migratory-read" if phase == 0 else "migratory-write",
        )

    def on_complete(self, node_id, operation, latency, was_miss, now) -> None:
        self._completed[node_id] += 1

    def finished(self, node_id: int) -> bool:
        return self._completed[node_id] >= self._operations_per_processor()

    def describe(self) -> str:
        return (
            f"Migratory(blocks={self.num_blocks}, "
            f"rounds/proc={self.rounds_per_processor})"
        )


class ProducerConsumerWorkload(Workload):
    """Processor pairs streaming data through per-pair shared buffers.

    Even nodes produce: they write every block of their pair's buffer, then
    think.  Odd nodes consume: they read the same blocks.  Traffic is steady
    one-way cache-to-cache transfer — the pattern where protocols differ
    mostly in how directly they find the producer's dirty copy.  With an odd
    processor count the last node streams through a private region instead.
    """

    def __init__(
        self,
        buffer_blocks: int = 8,
        rounds: int = 8,
        think_cycles: int = 30,
    ) -> None:
        if buffer_blocks < 1:
            raise WorkloadError(f"buffer_blocks must be positive, got {buffer_blocks}")
        if rounds < 1:
            raise WorkloadError(f"rounds must be positive, got {rounds}")
        if think_cycles < 0:
            raise WorkloadError("think_cycles must be non-negative")
        self.buffer_blocks = buffer_blocks
        self.rounds = rounds
        self.think_cycles = think_cycles
        self._issued: Dict[int, int] = {}
        self._completed: Dict[int, int] = {}

    def bind(self, num_processors: int, block_bytes: int, rng) -> None:
        super().bind(num_processors, block_bytes, rng)
        self._issued = {node: 0 for node in range(num_processors)}
        self._completed = {node: 0 for node in range(num_processors)}

    def _operations_per_processor(self) -> int:
        return self.rounds * self.buffer_blocks

    def _buffer_address(self, pair: int, index: int) -> int:
        return (pair * self.buffer_blocks + index) * self.block_bytes

    def next_operation(self, node_id: int, now: int) -> Optional[MemoryOperation]:
        issued = self._issued[node_id]
        if issued >= self._operations_per_processor():
            return None
        self._issued[node_id] = issued + 1
        index = issued % self.buffer_blocks
        pair = node_id // 2
        unpaired = node_id == self.num_processors - 1 and self.num_processors % 2
        if unpaired:
            # No partner: stream through a private region past the buffers.
            base = (self.num_processors * self.buffer_blocks + 1) * self.block_bytes
            address = base + issued * self.block_bytes
            is_write = True
            label = "unpaired-stream"
        else:
            address = self._buffer_address(pair, index)
            is_write = node_id % 2 == 0
            label = "produce" if is_write else "consume"
        # The producer pauses between buffer refills; the consumer trails it
        # by starting each sweep with a matching pause.
        think = self.think_cycles if index == 0 else 0
        return MemoryOperation(
            address=address,
            is_write=is_write,
            think_cycles=think,
            instructions=0,
            label=label,
        )

    def on_complete(self, node_id, operation, latency, was_miss, now) -> None:
        self._completed[node_id] += 1

    def finished(self, node_id: int) -> bool:
        return self._completed[node_id] >= self._operations_per_processor()

    def describe(self) -> str:
        return (
            f"ProducerConsumer(buffer={self.buffer_blocks} blocks, "
            f"rounds={self.rounds})"
        )


class ReadMostlyWorkload(Workload):
    """A hot, widely shared read-mostly set with occasional invalidating writes.

    Models static web serving: every processor mostly reads a shared set of
    hot blocks (directories of readers grow wide), with a small write
    fraction that invalidates all of them at once.  The read:write ratio is
    the knob that decides whether keeping readers cached (directory) beats
    finding data fast (broadcast).
    """

    def __init__(
        self,
        shared_blocks: int = 256,
        operations_per_processor: int = 60,
        read_fraction: float = 0.95,
        think_cycles: int = 40,
        think_jitter: int = 16,
    ) -> None:
        if shared_blocks < 1:
            raise WorkloadError(f"shared_blocks must be positive, got {shared_blocks}")
        if operations_per_processor < 1:
            raise WorkloadError(
                "operations_per_processor must be positive, got "
                f"{operations_per_processor}"
            )
        if not 0.0 <= read_fraction <= 1.0:
            raise WorkloadError(f"read_fraction must be in [0, 1], got {read_fraction}")
        if think_cycles < 0 or think_jitter < 0:
            raise WorkloadError("think time parameters must be non-negative")
        self.shared_blocks = shared_blocks
        self.operations_per_processor = operations_per_processor
        self.read_fraction = read_fraction
        self.think_cycles = think_cycles
        self.think_jitter = think_jitter
        self._issued: Dict[int, int] = {}
        self._completed: Dict[int, int] = {}

    def bind(self, num_processors: int, block_bytes: int, rng) -> None:
        super().bind(num_processors, block_bytes, rng)
        self._issued = {node: 0 for node in range(num_processors)}
        self._completed = {node: 0 for node in range(num_processors)}

    def next_operation(self, node_id: int, now: int) -> Optional[MemoryOperation]:
        if self._issued[node_id] >= self.operations_per_processor:
            return None
        self._issued[node_id] += 1
        rng = self.rng
        is_write = rng.random() >= self.read_fraction
        block = rng.randrange(self.shared_blocks)
        think = self.think_cycles
        if self.think_jitter:
            think += rng.randrange(self.think_jitter + 1)
        return MemoryOperation(
            address=block * self.block_bytes,
            is_write=is_write,
            think_cycles=think,
            instructions=0,
            label="page-update" if is_write else "page-read",
        )

    def on_complete(self, node_id, operation, latency, was_miss, now) -> None:
        self._completed[node_id] += 1

    def finished(self, node_id: int) -> bool:
        return self._completed[node_id] >= self.operations_per_processor

    def describe(self) -> str:
        return (
            f"ReadMostly(shared={self.shared_blocks} blocks, "
            f"reads={self.read_fraction:.0%})"
        )


def build_mixed_trace(
    num_processors: int,
    operations_per_processor: int,
    shared_blocks: int,
    private_blocks: int,
    block_bytes: int,
    seed: int,
) -> Dict[int, List[MemoryOperation]]:
    """Deterministically generate a mixed per-processor reference trace.

    The trace interleaves three phases per processor — private streaming
    (cold misses), hot shared reads (wide sharing), and migratory
    read-modify-write bursts — from its own seeded generator, so the same
    (spec, seed) pair always yields the identical trace regardless of which
    protocol replays it.
    """
    traces: Dict[int, List[MemoryOperation]] = {}
    private_base = (shared_blocks + 1) * block_bytes
    for node in range(num_processors):
        rng = random.Random((seed << 16) ^ node)
        operations: List[MemoryOperation] = []
        private_cursor = 0
        while len(operations) < operations_per_processor:
            phase = rng.randrange(3)
            if phase == 0:  # private streaming burst
                for _ in range(min(4, operations_per_processor - len(operations))):
                    address = (
                        private_base
                        + node * private_blocks * block_bytes
                        + (private_cursor % private_blocks) * block_bytes
                    )
                    private_cursor += 1
                    operations.append(
                        MemoryOperation(
                            address=address,
                            is_write=rng.random() < 0.3,
                            think_cycles=20 + rng.randrange(16),
                            label="trace-private",
                        )
                    )
            elif phase == 1:  # hot shared reads
                for _ in range(min(3, operations_per_processor - len(operations))):
                    block = rng.randrange(shared_blocks)
                    operations.append(
                        MemoryOperation(
                            address=block * block_bytes,
                            is_write=False,
                            think_cycles=30 + rng.randrange(16),
                            label="trace-shared-read",
                        )
                    )
            else:  # migratory read-modify-write pair
                block = rng.randrange(shared_blocks)
                operations.append(
                    MemoryOperation(
                        address=block * block_bytes,
                        is_write=False,
                        think_cycles=40 + rng.randrange(16),
                        label="trace-migratory-read",
                    )
                )
                if len(operations) < operations_per_processor:
                    operations.append(
                        MemoryOperation(
                            address=block * block_bytes,
                            is_write=True,
                            think_cycles=0,
                            label="trace-migratory-write",
                        )
                    )
        traces[node] = operations[:operations_per_processor]
    return traces


# --------------------------------------------------------- picklable specs


@dataclass(frozen=True)
class MigratoryWorkloadSpec:
    """Picklable, cacheable factory for :class:`MigratoryWorkload`."""

    num_blocks: int = 64
    rounds_per_processor: int = 16
    think_cycles: int = 50
    think_jitter: int = 8

    def __call__(self, seed: int) -> Workload:
        return MigratoryWorkload(
            num_blocks=self.num_blocks,
            rounds_per_processor=self.rounds_per_processor,
            think_cycles=self.think_cycles,
            think_jitter=self.think_jitter,
        )

    def cache_token(self) -> str:
        return repr(self)


@dataclass(frozen=True)
class ProducerConsumerWorkloadSpec:
    """Picklable, cacheable factory for :class:`ProducerConsumerWorkload`."""

    buffer_blocks: int = 8
    rounds: int = 8
    think_cycles: int = 30

    def __call__(self, seed: int) -> Workload:
        return ProducerConsumerWorkload(
            buffer_blocks=self.buffer_blocks,
            rounds=self.rounds,
            think_cycles=self.think_cycles,
        )

    def cache_token(self) -> str:
        return repr(self)


@dataclass(frozen=True)
class ReadMostlyWorkloadSpec:
    """Picklable, cacheable factory for :class:`ReadMostlyWorkload`."""

    shared_blocks: int = 256
    operations_per_processor: int = 60
    read_fraction: float = 0.95
    think_cycles: int = 40
    think_jitter: int = 16

    def __call__(self, seed: int) -> Workload:
        return ReadMostlyWorkload(
            shared_blocks=self.shared_blocks,
            operations_per_processor=self.operations_per_processor,
            read_fraction=self.read_fraction,
            think_cycles=self.think_cycles,
            think_jitter=self.think_jitter,
        )

    def cache_token(self) -> str:
        return repr(self)


@dataclass(frozen=True)
class MixedTraceWorkloadSpec:
    """Picklable factory replaying a deterministic mixed trace.

    The trace is generated from the spec's parameters and the run seed, then
    wrapped in :class:`~repro.workloads.trace.TraceWorkload` — the same
    record/replay layer users drive with externally captured traces.
    """

    num_processors: int = 8
    operations_per_processor: int = 60
    shared_blocks: int = 128
    private_blocks: int = 512
    block_bytes: int = 64

    def __call__(self, seed: int) -> Workload:
        return TraceWorkload(
            build_mixed_trace(
                self.num_processors,
                self.operations_per_processor,
                self.shared_blocks,
                self.private_blocks,
                self.block_bytes,
                seed,
            )
        )

    def cache_token(self) -> str:
        return repr(self)
