"""Differential protocol verification: one trace, three protocols, one answer.

The paper gains confidence in Snooping, Directory and BASH separately; this
module goes further and checks them *against each other*.  A recorded random
trace — a global sequence of read/write/writeback operations over a small set
of hot blocks — is replayed through every protocol, and the observable memory
semantics are compared:

* **final memory image** — the per-block data token the machine would answer
  with at quiescence (owner cache, else the home's memory copy) must be
  identical across protocols, and equal to the trace's own prediction;
* **per-node load-observation sequences** — in ``strict`` replay mode every
  protocol must return the identical sequence of values to every node.

A bug in any one protocol therefore shows up as a divergence from the other
two (and from the model), even when its own invariants happen to hold.

Three replay modes trade determinism against race coverage:

``strict``
    Conflicting operations on the same block are serialised by the trace's
    global order: an operation issues only after every earlier operation on
    its block has completed.  Different blocks still race freely through the
    shared links, networks and directories, and ownership migrates node to
    node, but every load's value is fully determined by the trace — so final
    images *and* complete per-node observation sequences are asserted equal
    across protocols.  Multiple writers per block are allowed.

``racy``
    Only per-node program order is enforced; same-block requests from
    different nodes collide in flight.  Load values then legitimately depend
    on protocol timing, so each block has a *single writer* (readers
    everywhere), which keeps the final image deterministic: it is compared
    across protocols and against the model, while load values are checked
    per protocol by the silent-store-aware
    :class:`~repro.verification.consistency.ConsistencyChecker`.

``contended``
    The paper's random tester (Section 3.4): racy replay of a trace whose
    blocks have several writers, so racing GETM/GETS/PUTM transactions
    collide constantly on a few hot blocks.  Final images then depend on
    timing too, so each protocol is checked on its own — completion, the
    watchdog, mid-run and final invariants and value consistency — and never
    against the model or the other protocols.

Every mode runs the mid-run :class:`~repro.verification.invariants.InvariantMonitor`
at every transaction completion and a deadlock/livelock watchdog that turns
"no completions within a cycle budget" into a structured failure dump.

:func:`run_differential` is the one runner.  It replays a trace, or
consecutive windows of one drawn from a :class:`WindowedTraceSource`, through
one live system per protocol, so long campaigns stay bounded in memory while
deep protocol state (warm caches, directory sharer sets, adaptive-policy
counters) carries across windows; :func:`compare_results` checks each window
against the memory image the earlier windows left (all zeros for the first).
"""

from __future__ import annotations

import dataclasses
import random
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..common.config import AdaptiveConfig, ProtocolName, SystemConfig
from ..errors import VerificationError
from ..interconnect.message import MessageType
from ..system.multiprocessor import MultiprocessorSystem
from ..workloads.base import MemoryOperation
from ..workloads.trace import TraceWorkload
from .consistency import ConsistencyChecker
from .invariants import (
    InvariantMonitor,
    InvariantReport,
    check_invariants,
    deadlock_dump,
)

#: Trace operation kinds.
READ = "read"
WRITE = "write"
WRITEBACK = "writeback"

#: Replay modes (see the module docstring).
STRICT = "strict"
RACY = "racy"
CONTENDED = "contended"
MODES = (STRICT, RACY, CONTENDED)
OP_KINDS = (READ, WRITE, WRITEBACK)

#: Delay before re-attempting an issue blocked on an in-flight same-address
#: transaction (mirrors the sequencer's retry-busy path).
_RETRY_DELAY = 10

#: Cycles a hit / skipped operation takes to "complete" (breaks recursion
#: while staying deterministic).
_LOCAL_LATENCY = 1


@dataclass(frozen=True)
class TraceOp:
    """One recorded operation: ``node`` touches ``block``.

    ``token`` is the globally unique value a write installs; ``delay`` is the
    recorded think time between the operation becoming eligible and its issue
    (part of the trace, so replays consume no randomness).
    """

    node: int
    block: int
    kind: str
    token: int = 0
    delay: int = 1


@dataclass
class MemoryTrace:
    """A recorded random trace plus the metadata needed to replay it."""

    num_processors: int
    num_blocks: int
    mode: str
    seed: int
    ops: Tuple[TraceOp, ...]

    def __len__(self) -> int:
        return len(self.ops)

    @property
    def single_writer(self) -> bool:
        """One node writes each block: true of exactly the ``racy`` traces."""
        return self.mode == RACY

    # ------------------------------------------------------------ projections

    def per_node(self) -> Dict[int, List[Tuple[int, TraceOp]]]:
        """Each node's (global index, op) list, in program order."""
        streams: Dict[int, List[Tuple[int, TraceOp]]] = {
            node: [] for node in range(self.num_processors)
        }
        for index, op in enumerate(self.ops):
            streams[op.node].append((index, op))
        return streams

    def block_ranks(self) -> Dict[int, int]:
        """Global index -> position among the operations on the same block."""
        counts: Dict[int, int] = {}
        ranks: Dict[int, int] = {}
        for index, op in enumerate(self.ops):
            rank = counts.get(op.block, 0)
            ranks[index] = rank
            counts[op.block] = rank + 1
        return ranks

    def predicted_final_tokens(
        self, carry: Optional[Dict[int, int]] = None
    ) -> Dict[int, int]:
        """The model's final token per block: the last write in trace order.

        ``carry`` is the memory image the trace starts from (the windowed
        checker threads one window's prediction into the next); blocks it
        omits start at token 0.  Exact for ``strict`` traces (the replay
        serialises each block to the trace order) and for single-writer
        ``racy`` traces (one node's writes to a block complete in its
        program order).
        """
        final: Dict[int, int] = {block: 0 for block in range(self.num_blocks)}
        if carry:
            final.update(carry)
        for op in self.ops:
            if op.kind == WRITE:
                final[op.block] = op.token
        return final

    def expected_read_tokens(
        self, carry: Optional[Dict[int, int]] = None
    ) -> Dict[int, int]:
        """Global index -> the value each read must observe in strict replay.

        Reads before any write to their block observe ``carry``'s token
        (0 for a block it omits).
        """
        current: Dict[int, int] = dict(carry) if carry else {}
        expected: Dict[int, int] = {}
        for index, op in enumerate(self.ops):
            if op.kind == WRITE:
                current[op.block] = op.token
            elif op.kind == READ:
                expected[index] = current.get(op.block, 0)
        return expected

    def subset(self, keep: Sequence[int]) -> "MemoryTrace":
        """A new trace holding only the operations at the given indices."""
        kept = tuple(self.ops[index] for index in sorted(set(keep)))
        return MemoryTrace(
            num_processors=self.num_processors,
            num_blocks=self.num_blocks,
            mode=self.mode,
            seed=self.seed,
            ops=kept,
        )

    def to_workload(self, block_bytes: int) -> TraceWorkload:
        """The trace as a sequencer-driven workload (full-stack replay).

        Recorded delays become think cycles; writebacks are dropped (the
        sequencer issues its own evictions).  Useful for driving a shrunk
        failure artifact through the production simulation path.
        """
        traces: Dict[int, List[MemoryOperation]] = {
            node: [] for node in range(self.num_processors)
        }
        for op in self.ops:
            if op.kind == WRITEBACK:
                continue
            traces[op.node].append(
                MemoryOperation(
                    address=op.block * block_bytes,
                    is_write=op.kind == WRITE,
                    think_cycles=op.delay,
                    label=f"trace-{op.kind}",
                )
            )
        return TraceWorkload(traces)

    # ------------------------------------------------------------------- JSON

    def to_jsonable(self) -> Dict:
        return {
            "num_processors": self.num_processors,
            "num_blocks": self.num_blocks,
            "mode": self.mode,
            "seed": self.seed,
            "ops": [
                [op.node, op.block, op.kind, op.token, op.delay] for op in self.ops
            ],
        }

    @classmethod
    def from_jsonable(cls, data: Dict) -> "MemoryTrace":
        """Rebuild a trace written by :meth:`to_jsonable`, checking every field.

        Failure artifacts are edited by hand, so a malformed trace raises
        :class:`~repro.errors.VerificationError` naming the field (and the op
        index) here, instead of a bare ``KeyError`` deep inside a replay.
        """
        if not isinstance(data, dict):
            raise VerificationError(f"trace must be a JSON object, got {data!r}")
        missing = [name for name in _TRACE_FIELDS if name not in data]
        if missing:
            raise VerificationError(f"trace is missing field(s) {missing}")
        num_processors = _checked_int(
            data["num_processors"], "trace num_processors", 1
        )
        num_blocks = _checked_int(data["num_blocks"], "trace num_blocks", 1)
        mode = data["mode"]
        if mode not in MODES:
            raise VerificationError(
                f"trace mode must be one of {list(MODES)}, got {mode!r}"
            )
        rows = data["ops"]
        if not isinstance(rows, list):
            raise VerificationError(f"trace ops must be a list, got {rows!r}")
        ops = []
        writer_of: Dict[int, int] = {}
        for index, row in enumerate(rows):
            where = f"trace op {index}"
            if not isinstance(row, list) or len(row) != 5:
                raise VerificationError(
                    f"{where}: expected [node, block, kind, token, delay], "
                    f"got {row!r}"
                )
            node, block, kind, token, delay = row
            if kind not in OP_KINDS:
                raise VerificationError(
                    f"{where} kind must be one of {list(OP_KINDS)}, got {kind!r}"
                )
            op = TraceOp(
                _checked_int(node, f"{where} node", 0, num_processors - 1),
                _checked_int(block, f"{where} block", 0, num_blocks - 1),
                kind,
                _checked_int(token, f"{where} token"),
                _checked_int(delay, f"{where} delay", 1),
            )
            # A racy replay's model is exact only with one writer per block;
            # a second one would turn timing into reported protocol bugs.
            if mode == RACY and kind == WRITE:
                first = writer_of.setdefault(op.block, op.node)
                if first != op.node:
                    raise VerificationError(
                        f"{where} node: a racy trace has one writer per block, "
                        f"and block {op.block} is written by node {first}"
                    )
            ops.append(op)
        return cls(
            num_processors=num_processors,
            num_blocks=num_blocks,
            mode=mode,
            seed=_checked_int(data["seed"], "trace seed"),
            ops=tuple(ops),
        )


#: The keys :meth:`MemoryTrace.to_jsonable` writes.
_TRACE_FIELDS = ("num_processors", "num_blocks", "mode", "seed", "ops")


def _checked_int(
    value, where: str, low: Optional[int] = None, high: Optional[int] = None
) -> int:
    """``value`` if it is an integer within ``[low, high]``, else a loud error."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise VerificationError(f"{where} must be an integer, got {value!r}")
    if (low is not None and value < low) or (high is not None and value > high):
        bound = f"at least {low}" if high is None else f"in [{low}, {high}]"
        raise VerificationError(f"{where} must be {bound}, got {value}")
    return value


class WindowedTraceSource:
    """Records a random trace concentrating traffic on a few hot blocks.

    ``racy`` traces give every block a single writer (readers everywhere) so
    the final image stays deterministic under races; ``strict`` traces let
    ownership migrate between writers, since the replay serialises each
    block, and ``contended`` traces draw their writers the same way for a
    racy replay.  Writebacks are only recorded for the node the model says
    owns the block, so a ``strict`` replay must always perform them.

    The per-block writer map is drawn up front, then every operation
    consumes (node, block, delay, choice) draws in order.  ``next_window(n)``
    hands out the next ``n`` operations and keeps the generator state (rng,
    token counter, owner model) for the next call, so consecutive windows
    concatenate to exactly the trace one ``next_window`` call of the total
    length would give — while only one window is ever resident.
    """

    def __init__(
        self,
        seed: int,
        num_processors: int = 4,
        num_blocks: int = 4,
        mode: str = RACY,
        write_fraction: float = 0.45,
        writeback_fraction: float = 0.10,
        max_delay: Optional[int] = None,
    ) -> None:
        if mode not in MODES:
            raise VerificationError(f"unknown trace mode {mode!r}")
        if max_delay is None:
            max_delay = 40 if mode == STRICT else 150
        # Each operation draws its node, block and delay from these ranges
        # (delays from [1, max_delay)), so each must be non-empty.
        for name, value, least in (
            ("num_processors", num_processors, 1),
            ("num_blocks", num_blocks, 1),
            ("max_delay", max_delay, 2),
        ):
            if value < least:
                raise VerificationError(f"{name} must be at least {least}, got {value}")
        self.seed = seed
        self.num_processors = num_processors
        self.num_blocks = num_blocks
        self.mode = mode
        self.write_fraction = write_fraction
        self.writeback_fraction = writeback_fraction
        self.max_delay = max_delay
        self._rng = random.Random(seed)
        self._writer_of = {
            block: self._rng.randrange(num_processors)
            for block in range(num_blocks)
        }
        self._owner: Dict[int, Optional[int]] = {
            block: None for block in range(num_blocks)
        }
        self._token = 0
        #: Total operations handed out so far.
        self.generated = 0

    def next_window(self, operations: int) -> MemoryTrace:
        """The next ``operations`` ops as a standalone :class:`MemoryTrace`."""
        rng = self._rng
        ops: List[TraceOp] = []
        while len(ops) < operations:
            node = rng.randrange(self.num_processors)
            block = rng.randrange(self.num_blocks)
            delay = rng.randrange(1, self.max_delay)
            choice = rng.random()
            kind = READ
            if choice < self.writeback_fraction:
                if self._owner[block] is not None:
                    node = self._owner[block]
                    kind = WRITEBACK
                    self._owner[block] = None
            elif choice < self.writeback_fraction + self.write_fraction:
                kind = WRITE
                if self.mode == RACY:
                    node = self._writer_of[block]
                self._owner[block] = node
            if kind == WRITE:
                self._token += 1
                ops.append(TraceOp(node, block, WRITE, self._token, delay))
            else:
                ops.append(TraceOp(node, block, kind, 0, delay))
        self.generated += len(ops)
        return MemoryTrace(
            num_processors=self.num_processors,
            num_blocks=self.num_blocks,
            mode=self.mode,
            seed=self.seed,
            ops=tuple(ops),
        )

    def windows(self, count: int, operations: int) -> Iterator[MemoryTrace]:
        """``count`` consecutive windows of ``operations`` ops, drawn lazily."""
        for _ in range(count):
            yield self.next_window(operations)


def generate_trace(
    seed: int,
    num_processors: int = 4,
    num_blocks: int = 4,
    operations: int = 60,
    mode: str = RACY,
    write_fraction: float = 0.45,
    writeback_fraction: float = 0.10,
    max_delay: Optional[int] = None,
) -> MemoryTrace:
    """Record one whole random trace (see :class:`WindowedTraceSource`)."""
    return WindowedTraceSource(
        seed,
        num_processors=num_processors,
        num_blocks=num_blocks,
        mode=mode,
        write_fraction=write_fraction,
        writeback_fraction=writeback_fraction,
        max_delay=max_delay,
    ).next_window(operations)


# --------------------------------------------------------------------- replay


@dataclass
class ReplayResult:
    """Everything one protocol's replay of a trace produced."""

    protocol: ProtocolName
    operations: int
    completed: int
    cycles: int
    hits: int
    silent_stores: int
    skipped_writebacks: int
    evictions: int
    retries: int
    nacks: int
    #: Per node: one ``(block, kind, token, performed)`` row per trace
    #: operation, in program order (None where the op never completed).
    observations: Dict[int, List[Optional[Tuple[int, str, int, bool]]]]
    final_image: Dict[int, int]
    consistency_violations: List[str]
    midrun_report: Optional[InvariantReport]
    final_report: InvariantReport
    watchdog_failure: Optional[Dict] = None
    #: Highest number of operations any one node had in flight at once.
    max_outstanding_observed: int = 0

    @property
    def ok(self) -> bool:
        return (
            self.completed == self.operations
            and not self.consistency_violations
            and (self.midrun_report is None or self.midrun_report.ok)
            and self.final_report.ok
            and self.watchdog_failure is None
        )

    def failures(self) -> List[str]:
        """Human-readable descriptions of everything that went wrong."""
        problems: List[str] = []
        if self.watchdog_failure is not None:
            problems.append(
                f"{self.protocol}: watchdog tripped at cycle "
                f"{self.watchdog_failure['cycle']} "
                f"({self.watchdog_failure['completed']}/"
                f"{self.watchdog_failure['operations']} ops)"
            )
        elif self.completed != self.operations:
            problems.append(
                f"{self.protocol}: {self.operations - self.completed} of "
                f"{self.operations} operations never completed"
            )
        if self.midrun_report is not None and not self.midrun_report.ok:
            problems.extend(
                f"{self.protocol} [mid-run] {v}" for v in self.midrun_report.violations
            )
        if not self.final_report.ok:
            problems.extend(
                f"{self.protocol} [final] {v}" for v in self.final_report.violations
            )
        problems.extend(
            f"{self.protocol} [consistency] {v}"
            for v in self.consistency_violations
        )
        return problems


@dataclass(frozen=True)
class ReplayConfig:
    """Per-replay knobs shared by every protocol of one differential run."""

    bandwidth_mb_per_second: float = 400.0
    max_outstanding_per_node: int = 1
    utilization_threshold: float = 0.75
    sampling_interval: int = 64
    policy_counter_bits: int = 5
    cache_capacity_blocks: Optional[int] = None
    midrun_invariants: bool = True
    watchdog_interval: int = 25_000
    max_cycles: int = 5_000_000
    drain_cycles: int = 200_000
    recent_events: int = 48

    def system_config(
        self, trace: MemoryTrace, protocol: ProtocolName
    ) -> SystemConfig:
        """The :class:`SystemConfig` replaying ``trace`` under ``protocol``."""
        extra = {}
        if self.cache_capacity_blocks is not None:
            extra["cache_capacity_blocks"] = self.cache_capacity_blocks
        return SystemConfig(
            num_processors=trace.num_processors,
            protocol=ProtocolName(protocol),
            bandwidth_mb_per_second=self.bandwidth_mb_per_second,
            adaptive=AdaptiveConfig(
                utilization_threshold=self.utilization_threshold,
                sampling_interval=self.sampling_interval,
                policy_counter_bits=self.policy_counter_bits,
            ),
            random_seed=trace.seed,
            **extra,
        )


def empty_trace_workload(num_processors: int) -> TraceWorkload:
    """The inert workload verification systems are built (and reset) with."""
    return TraceWorkload({node: [] for node in range(num_processors)})


class TraceReplayer:
    """Drives one system's cache controllers through a recorded trace.

    The replayer bypasses the sequencers so it can observe every completed
    transaction, enforce the trace's dependency structure, and keep issuing
    under ``max_outstanding_per_node`` in-flight operations per node.
    """

    def __init__(
        self,
        system: MultiprocessorSystem,
        trace: MemoryTrace,
        replay: ReplayConfig = ReplayConfig(),
    ) -> None:
        if system.config.num_processors != trace.num_processors:
            raise VerificationError(
                f"trace wants {trace.num_processors} processors, system has "
                f"{system.config.num_processors}"
            )
        self.system = system
        self.trace = trace
        self.replay = replay
        self.strict = trace.mode == STRICT
        self._block_bytes = system.config.cache_block_bytes
        self._streams = trace.per_node()
        self._ranks = trace.block_ranks()
        self._block_progress: Dict[int, int] = {
            block: 0 for block in range(trace.num_blocks)
        }
        self._node_position: Dict[int, int] = {}  # node -> per-stream cursor
        self._node_outstanding: Dict[int, int] = {}
        self._node_issue_pending: Dict[int, bool] = {}
        self._op_slot: Dict[int, Tuple[int, int]] = {}  # global idx -> (node, slot)
        for node, stream in self._streams.items():
            self._node_position[node] = 0
            self._node_outstanding[node] = 0
            self._node_issue_pending[node] = False
            for slot, (index, _op) in enumerate(stream):
                self._op_slot[index] = (node, slot)
        self.checker = ConsistencyChecker()
        self.monitor = (
            InvariantMonitor(system) if replay.midrun_invariants else None
        )
        self.completed = 0
        self.hits = 0
        self.silent_stores = 0
        self.skipped_writebacks = 0
        self.evictions = 0
        self.max_outstanding_observed = 0
        self.observations: Dict[int, List[Optional[Tuple[int, str, int, bool]]]] = {
            node: [None] * len(stream) for node, stream in self._streams.items()
        }
        self.watchdog_failure: Optional[Dict] = None
        self._watchdog_active = False
        self._watchdog_last = -1
        self._recent_events: deque = deque(maxlen=replay.recent_events)
        # An empty trace is complete before it starts: no _record will run.
        self._done = [not trace.ops]
        scheduler = system.simulator.scheduler
        self._schedule_after = scheduler.schedule_after_fast1
        self._now = lambda: scheduler.now

    # -------------------------------------------------------------- event hook

    def _record_event(self, time: int, label: str) -> None:
        self._recent_events.append((time, label))

    # ------------------------------------------------------------------ pumping

    def _address(self, block: int) -> int:
        return block * self._block_bytes

    def _eligible(self, index: int, op: TraceOp) -> bool:
        if not self.strict:
            return True
        return self._ranks[index] == self._block_progress[op.block]

    def _pump_all(self) -> None:
        for node in range(self.trace.num_processors):
            self._pump(node)

    def _pump(self, node: int) -> None:
        if self._node_issue_pending[node]:
            return
        stream = self._streams[node]
        position = self._node_position[node]
        if position >= len(stream):
            return
        if self._node_outstanding[node] >= self.replay.max_outstanding_per_node:
            return
        index, op = stream[position]
        if not self._eligible(index, op):
            return
        self._node_issue_pending[node] = True
        self._schedule_after(
            op.delay, self._issue, index, f"replayer-issue:n{node}"
        )

    def _issue(self, index: int) -> None:
        node, slot = self._op_slot[index]
        op = self.trace.ops[index]
        cache = self.system.nodes[node].cache_controller
        address = self._address(op.block)
        if cache.has_outstanding(address):
            # An eviction writeback (or, in racy mode, a previous same-block
            # op of this node) is still in flight: retry like the sequencer.
            self._schedule_after(
                _RETRY_DELAY, self._issue, index, f"replayer-retry:n{node}"
            )
            return
        self._node_issue_pending[node] = False
        self._node_position[node] = slot + 1
        outstanding = self._node_outstanding[node] + 1
        self._node_outstanding[node] = outstanding
        if outstanding > self.max_outstanding_observed:
            self.max_outstanding_observed = outstanding
        state = cache.state_of(address)
        if op.kind == READ:
            # In strict mode only *owner* copies may satisfy a read locally: a
            # Shared copy can be stale in physical time (its invalidation may
            # still be queued in the network — a legal transient, the read
            # would order logically before the invalidating write), which
            # would break the mode's determinism contract.  Dropping S and
            # re-fetching is the silent S->I downgrade the protocols permit,
            # and the fresh request is ordered after the conflicting write.
            if state.has_valid_data and (state.is_owner or not self.strict):
                self.hits += 1
                token = cache.blocks.lookup(address).data_token
                self._finish_local(index, op, token, True)
            else:
                if state.has_valid_data:
                    cache.blocks.lookup(address).invalidate()
                    cache.blocks.drop(address)
                self._maybe_evict(cache)
                cache.issue_request(
                    address, MessageType.GETS, callback=self._on_transaction
                ).context = index
        elif op.kind == WRITE:
            if state.can_write:
                block = cache.blocks.lookup(address)
                self.silent_stores += 1
                self.checker.record_silent_write(
                    node, address, op.token, block.data_token, self._now()
                )
                block.data_token = op.token
                self._finish_local(index, op, op.token, True)
            else:
                self._maybe_evict(cache)
                cache.issue_request(
                    address,
                    MessageType.GETM,
                    callback=self._on_transaction,
                    store_token=op.token,
                ).context = index
        elif op.kind == WRITEBACK:
            if state.is_owner:
                cache.issue_writeback(
                    address, callback=self._on_transaction
                ).context = index
            else:
                self.skipped_writebacks += 1
                self._finish_local(index, op, 0, False)
        else:  # pragma: no cover - trace validation
            raise VerificationError(f"unknown trace op kind {op.kind!r}")
        self._pump(node)

    def _maybe_evict(self, cache) -> None:
        """Mirror the sequencer's eviction policy before installing a miss."""
        if not cache.blocks.is_full():
            return
        victim = cache.blocks.eviction_candidate()
        if victim is None or cache.has_outstanding(victim.address):
            return
        self.evictions += 1
        if victim.is_owner:
            cache.issue_writeback(victim.address)
        else:
            victim.invalidate()
            cache.blocks.drop(victim.address)

    # --------------------------------------------------------------- completion

    def _finish_local(self, index: int, op: TraceOp, token: int, performed: bool) -> None:
        """Complete a hit / silent store / skipped writeback one cycle later."""
        self._schedule_after(
            _LOCAL_LATENCY,
            self._complete_local,
            (index, op, token, performed),
            f"replayer-local:n{op.node}",
        )

    def _complete_local(self, payload) -> None:
        index, op, token, performed = payload
        self._record(index, op, token, performed)

    def _on_transaction(self, transaction) -> None:
        index = transaction.context
        op = self.trace.ops[index]
        node = op.node
        address = transaction.address
        now = self._now()
        if op.kind == READ:
            token = transaction.received_token
            self.checker.record_read(
                node, address, token, transaction.effective_order_seq, now
            )
        elif op.kind == WRITE:
            token = op.token
            self.checker.record_write(
                node, address, transaction.store_token,
                transaction.effective_order_seq, now,
            )
        else:
            token = 0
        self._record(index, op, token, True)

    def _record(
        self, index: int, op: TraceOp, token: int, performed: bool
    ) -> None:
        node, slot = self._op_slot[index]
        self.observations[node][slot] = (op.block, op.kind, token, performed)
        self._node_outstanding[node] -= 1
        self._block_progress[op.block] += 1
        self.completed += 1
        if self.monitor is not None:
            self.monitor.check_address(self._address(op.block))
        if self.completed >= len(self.trace.ops):
            self._done[0] = True
        self._pump_all()

    # ----------------------------------------------------------------- watchdog

    def _watchdog(self, _arg) -> None:
        if not self._watchdog_active or self._done[0]:
            return
        if self.completed == self._watchdog_last:
            self.watchdog_failure = self._failure_dump()
            return
        self._watchdog_last = self.completed
        self._schedule_after(
            self.replay.watchdog_interval, self._watchdog, None, "replayer-watchdog"
        )

    def _failure_dump(self) -> Dict:
        """Structured description of a stalled replay (deadlock/livelock)."""
        return deadlock_dump(
            self.system,
            completed=self.completed,
            operations=len(self.trace.ops),
            extra={
                "next_op_per_node": {
                    node: (
                        None
                        if self._node_position[node] >= len(self._streams[node])
                        else self._streams[node][self._node_position[node]][0]
                    )
                    for node in range(self.trace.num_processors)
                },
                "recent_events": list(self._recent_events),
            },
        )

    # ---------------------------------------------------------------------- run

    def run(self) -> ReplayResult:
        """Replay the trace to completion (or failure) and gather every check."""
        replay = self.replay
        simulator = self.system.simulator
        scheduler = simulator.scheduler
        scheduler.add_fire_hook(self._record_event)
        monitor = self.monitor
        try:
            self._watchdog_active = True
            self._schedule_after(
                replay.watchdog_interval, self._watchdog, None, "replayer-watchdog"
            )
            self._pump_all()
            done = self._done
            if monitor is not None:
                violations = monitor.violations
                stop = lambda: (
                    done[0]
                    or self.watchdog_failure is not None
                    or bool(violations)
                )
            else:
                stop = lambda: done[0] or self.watchdog_failure is not None
            simulator.run(until=replay.max_cycles, stop_when=stop)
            self._watchdog_active = False
            # Let in-flight messages (stale data, markers) drain so the final
            # sweep sees a quiescent machine.
            simulator.run(until=simulator.now + replay.drain_cycles)
        finally:
            self._watchdog_active = False
            scheduler.remove_fire_hook(self._record_event)
        counters = self.system.stats.counters()
        addresses = [self._address(b) for b in range(self.trace.num_blocks)]
        image = self.system.final_memory_image(addresses)
        return ReplayResult(
            protocol=ProtocolName(self.system.config.protocol),
            operations=len(self.trace.ops),
            completed=self.completed,
            cycles=simulator.now,
            hits=self.hits,
            silent_stores=self.silent_stores,
            skipped_writebacks=self.skipped_writebacks,
            evictions=self.evictions,
            retries=int(counters.get("system.retries", 0)),
            nacks=int(counters.get("system.nacks", 0)),
            observations=self.observations,
            final_image={
                block: image[self._address(block)]
                for block in range(self.trace.num_blocks)
            },
            consistency_violations=self.checker.check(),
            midrun_report=monitor.report() if monitor is not None else None,
            final_report=check_invariants(self.system, expect_quiescent=True),
            watchdog_failure=self.watchdog_failure,
            max_outstanding_observed=self.max_outstanding_observed,
        )


# --------------------------------------------------------------- differential


#: The protocols a differential run covers by default.
ALL_PROTOCOLS: Tuple[ProtocolName, ...] = (
    ProtocolName.SNOOPING,
    ProtocolName.DIRECTORY,
    ProtocolName.BASH,
)

#: ``acquire(config, workload) -> MultiprocessorSystem`` — how differential
#: runs obtain systems.  The campaign passes a pooled, reset-reusing acquirer
#: (see :class:`repro.experiments.batch.BatchRunner.acquire`).
SystemAcquirer = Callable[[SystemConfig, TraceWorkload], MultiprocessorSystem]

#: Synthetic "node" recorded for carried-in block values when seeding a
#: window's consistency checker (never a real processor id).
CARRY_NODE = -1

#: Order position assigned to carried-in values: strictly before every
#: transaction any window orders (real order sequences are non-negative and
#: keep increasing across windows because the systems stay alive).
CARRY_ORDER = -1


def _build_system(config: SystemConfig, workload: TraceWorkload) -> MultiprocessorSystem:
    return MultiprocessorSystem(config, workload)


def _seed_checker(replayer: TraceReplayer, carry: Dict[int, int]) -> None:
    """Teach a window's fresh checker the values carried in from history.

    Each carried token becomes a synthetic store ordered before everything
    the window orders, so reads of values written windows ago (and silent
    store chains based on them) resolve instead of reporting unknown tokens.
    """
    for block, token in carry.items():
        if token == 0:
            continue
        replayer.checker.record_write(
            CARRY_NODE, replayer._address(block), token, CARRY_ORDER, 0
        )


@dataclass
class DifferentialResult:
    """Outcome of replaying a trace (or windows of one) through several protocols."""

    #: The last window replayed: the whole trace for a one-window run.
    trace: MemoryTrace
    replay: ReplayConfig
    #: That window's replay outcome per protocol.
    results: Dict[ProtocolName, ReplayResult]
    failures: List[str] = field(default_factory=list)
    #: Windows replayed, a failing one included.
    windows: int = 1
    #: Trace operations each protocol replayed, across every window.
    operations: int = 0
    #: The model's per-block token map after the last passing window (the
    #: carry a next window would start from; timing-dependent, so not
    #: meaningful, for ``contended`` traces).
    final_tokens: Dict[int, int] = field(default_factory=dict)
    #: Peak number of trace operations materialised at any moment — the
    #: bounded-memory contract: one window, never the whole campaign.
    max_resident_ops: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def watchdog_dumps(self) -> Dict[str, Dict]:
        """The deadlock watchdog's stall dump per protocol that tripped it."""
        return {
            str(protocol): result.watchdog_failure
            for protocol, result in self.results.items()
            if result.watchdog_failure is not None
        }

    def raise_on_failure(self) -> None:
        if self.failures:
            summary = "; ".join(self.failures[:10])
            raise VerificationError(
                f"differential check failed ({len(self.failures)} problem(s)): "
                f"{summary}"
            )

    def to_jsonable(self) -> Dict:
        return {
            "trace": self.trace.to_jsonable(),
            "ok": self.ok,
            "failures": list(self.failures),
            "windows": self.windows,
            "operations": self.operations,
            "max_resident_ops": self.max_resident_ops,
            "final_tokens": {
                str(block): token for block, token in sorted(self.final_tokens.items())
            },
            "protocols": {
                str(protocol): {
                    "operations": result.operations,
                    "completed": result.completed,
                    "cycles": result.cycles,
                    "hits": result.hits,
                    "silent_stores": result.silent_stores,
                    "skipped_writebacks": result.skipped_writebacks,
                    "evictions": result.evictions,
                    "retries": result.retries,
                    "nacks": result.nacks,
                    "max_outstanding_observed": result.max_outstanding_observed,
                    "final_image": {
                        str(block): token
                        for block, token in sorted(result.final_image.items())
                    },
                    "watchdog": result.watchdog_failure,
                }
                for protocol, result in self.results.items()
            },
        }


def compare_results(
    trace: MemoryTrace,
    results: Dict[ProtocolName, ReplayResult],
    carry: Optional[Dict[int, int]] = None,
) -> List[str]:
    """Cross-protocol and model comparison of one trace's replay outcomes.

    ``carry`` is the memory image the replay started from (see
    :meth:`MemoryTrace.predicted_final_tokens`): empty for a replay on fresh
    systems, the previous windows' prediction for a later window.  In strict
    mode every read is also checked against the model's serialisation; a
    ``contended`` trace is checked per protocol only.
    """
    failures: List[str] = []
    for result in results.values():
        failures.extend(result.failures())
    if trace.mode == CONTENDED:
        # Racing writers make final images and read values timing-dependent.
        return failures
    complete = {
        protocol: result
        for protocol, result in results.items()
        if result.completed == result.operations
    }
    predicted = trace.predicted_final_tokens(carry)
    for protocol, result in complete.items():
        for block, want in predicted.items():
            got = result.final_image.get(block, 0)
            if got != want:
                failures.append(
                    f"{protocol}: block {block} ended with token {got}, "
                    f"the carried model predicts {want}"
                )
    protocols = list(complete)
    if len(protocols) >= 2:
        reference = protocols[0]
        base = complete[reference]
        # Eviction-driven writebacks depend on LRU timing, which is protocol
        # specific, so `performed` flags only compare when no protocol
        # evicted (loop-invariant across the pairwise comparisons below).
        compare_performed = all(r.evictions == 0 for r in complete.values())
        for other in protocols[1:]:
            candidate = complete[other]
            for block in range(trace.num_blocks):
                left = base.final_image.get(block, 0)
                right = candidate.final_image.get(block, 0)
                if left != right:
                    failures.append(
                        f"final image diverges on block {block}: "
                        f"{reference}={left} vs {other}={right}"
                    )
            if trace.mode == STRICT:
                for node in range(trace.num_processors):
                    for slot, (lhs, rhs) in enumerate(
                        zip(base.observations[node], candidate.observations[node])
                    ):
                        if lhs is None or rhs is None:
                            continue
                        same = (
                            lhs == rhs if compare_performed else lhs[:3] == rhs[:3]
                        )
                        if not same:
                            failures.append(
                                f"observation diverges at node {node} op "
                                f"{slot}: {reference}={lhs} vs {other}={rhs}"
                            )
    if trace.mode == STRICT:
        expected = trace.expected_read_tokens(carry)
        slot_of: Dict[int, Tuple[int, int]] = {}
        for node, stream in trace.per_node().items():
            for slot, (index, _op) in enumerate(stream):
                slot_of[index] = (node, slot)
        for protocol, result in complete.items():
            for index, want in expected.items():
                node, slot = slot_of[index]
                observed = result.observations[node][slot]
                if observed is None:
                    continue
                got = observed[2]
                if got != want:
                    failures.append(
                        f"{protocol}: node {node} read op {slot} observed "
                        f"token {got}, the carried serialisation requires "
                        f"{want}"
                    )
    return failures


def run_differential(
    source: Union[MemoryTrace, Iterable[MemoryTrace]],
    protocols: Sequence[ProtocolName] = ALL_PROTOCOLS,
    replay: ReplayConfig = ReplayConfig(),
    acquire: Optional[SystemAcquirer] = None,
) -> DifferentialResult:
    """Replay a trace, or consecutive windows of one, under every protocol.

    A :class:`MemoryTrace` is one window; an iterable of windows (say,
    :meth:`WindowedTraceSource.windows`) is consumed lazily, so only one is
    ever resident.  Each protocol's system is acquired once and stays alive:
    window ``k+1`` starts from whatever cache, directory and policy state
    window ``k`` left, and the model's per-block token map (the *carry*) is
    threaded between windows, seeding each window's consistency checker and
    :func:`compare_results`.  ``replay.max_cycles`` is applied per window,
    relative to each system's clock.  Failure lines of an iterable's windows
    are prefixed ``window k:``.  A failing window stops the run: after a
    divergence the protocols' states may legitimately differ, so later
    windows would only cascade it.  A ``contended`` trace must be the only
    window: racing writers leave no model image to carry on.
    """
    if acquire is None:
        acquire = _build_system
    windowed = not isinstance(source, MemoryTrace)
    windows = source if windowed else (source,)
    resolved = [ProtocolName(p) for p in protocols]
    systems: Dict[ProtocolName, MultiprocessorSystem] = {}
    trace: Optional[MemoryTrace] = None
    carry: Dict[int, int] = {}
    results: Dict[ProtocolName, ReplayResult] = {}
    failures: List[str] = []
    replayed = operations = max_resident = 0
    for index, window in enumerate(windows):
        if trace is None:
            carry = {block: 0 for block in range(window.num_blocks)}
        elif CONTENDED in (window.mode, trace.mode) or (
            window.num_processors,
            window.num_blocks,
        ) != (trace.num_processors, trace.num_blocks):
            raise VerificationError(
                f"window {index} cannot follow window {index - 1}: windows "
                "must share one shape, and a contended trace is a single window"
            )
        trace = window
        replayed += 1
        operations += len(window.ops)
        max_resident = max(max_resident, len(window.ops))
        results = {}
        for protocol in resolved:
            system = systems.get(protocol)
            if system is None:
                system = systems[protocol] = acquire(
                    replay.system_config(window, protocol),
                    empty_trace_workload(window.num_processors),
                )
            replayer = TraceReplayer(
                system,
                window,
                dataclasses.replace(
                    replay, max_cycles=system.simulator.now + replay.max_cycles
                ),
            )
            _seed_checker(replayer, carry)
            results[protocol] = replayer.run()
        problems = compare_results(window, results, carry)
        if problems:
            failures.extend(
                f"window {index}: {line}" if windowed else line for line in problems
            )
            break
        carry = window.predicted_final_tokens(carry)
    if trace is None:
        raise VerificationError("run_differential needs at least one trace window")
    return DifferentialResult(
        trace=trace,
        replay=replay,
        results=results,
        failures=failures,
        windows=replayed,
        operations=operations,
        final_tokens=carry,
        max_resident_ops=max_resident,
    )
