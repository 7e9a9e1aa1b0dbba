"""Streaming trace path: bounded op windows instead of materialised traces.

:class:`~repro.workloads.trace.TraceWorkload` holds every operation of every
node in memory, which caps differential campaigns and soak runs at whatever
fits in RAM.  This module streams instead: an :class:`OperationStream` source
produces each node's references in bounded *windows*, and
:class:`StreamingTraceWorkload` drains those windows through the sequencer's
ordinary ``next_operation`` contract.  Peak residency is proportional to
``window_ops x num_processors`` (plus the source's own read-ahead), never to
trace length — a million-op soak holds a few hundred operations at a time.

Two sources ship:

* :class:`GeneratedOpStream` — wraps a deterministic per-node generator
  factory (e.g. :func:`repro.workloads.traffic.traffic_operation_stream`);
  unbounded streams cost O(window) memory.
* :class:`JsonlTraceReader` — chunked reader for the JSONL trace files
  written by :func:`write_trace_jsonl`: a header object line, then one
  ``[node, address, is_write, think_cycles, instructions, label]`` row per
  operation.  The writer interleaves nodes in window-sized chunks so the
  reader's per-node read-ahead stays bounded; a ``max_buffered_ops`` guard
  turns a pathologically skewed file into a clear error instead of silent
  memory growth.

``StreamingTraceWorkload`` keeps its entry points at class level (no
instance-level ``next_operation``/``on_complete`` rebinding), so the compiled
``SequencerStep`` fast path engages for streaming runs exactly as it does for
stock workloads.
"""

from __future__ import annotations

import json
import os
from collections import deque
from dataclasses import dataclass
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from ..errors import WorkloadError
from .base import MemoryOperation, Workload
from .trace import operation_from_row
from .traffic import traffic_operation_stream

#: JSONL trace format marker + version (the header's ``format`` field).
TRACE_FORMAT = "repro-trace"
TRACE_VERSION = 1

#: Default operations fetched per window per node.
DEFAULT_WINDOW_OPS = 256


class OperationStream:
    """Source of per-node operation windows for :class:`StreamingTraceWorkload`.

    ``next_window(node, limit)`` returns up to ``limit`` further operations of
    that node's stream, or an empty list once the stream is exhausted.
    ``configure`` runs at every workload bind (before ``restart``), giving the
    source the system's processor count and block size; ``restart`` rewinds
    the whole source to the beginning so a re-bound workload replays
    identically (the reset-equivalence contract).
    """

    def configure(self, num_processors: int, block_bytes: int) -> None:
        """Learn (and validate against) the bound system's shape."""

    def restart(self) -> None:
        raise NotImplementedError

    def next_window(self, node_id: int, limit: int) -> List[MemoryOperation]:
        raise NotImplementedError

    def buffered_operations(self) -> int:
        """Operations currently held by the source's own read-ahead."""
        return 0

    def describe(self) -> str:
        return type(self).__name__


class GeneratedOpStream(OperationStream):
    """Bounded windows drawn from deterministic per-node generators.

    ``factory(node, num_processors, block_bytes)`` builds one node's
    operation iterator; it is re-invoked on every restart, so the factory
    must be deterministic for replay to be exact.
    """

    def __init__(
        self,
        factory: Callable[[int, int, int], Iterator[MemoryOperation]],
    ) -> None:
        self._factory = factory
        self._num_processors: Optional[int] = None
        self._block_bytes: Optional[int] = None
        self._iterators: Dict[int, Iterator[MemoryOperation]] = {}

    def configure(self, num_processors: int, block_bytes: int) -> None:
        self._num_processors = num_processors
        self._block_bytes = block_bytes

    def restart(self) -> None:
        if self._num_processors is None:
            raise WorkloadError("GeneratedOpStream used before configure()")
        self._iterators = {}

    def _iterator(self, node_id: int) -> Iterator[MemoryOperation]:
        iterator = self._iterators.get(node_id)
        if iterator is None:
            iterator = self._factory(
                node_id, self._num_processors, self._block_bytes
            )
            self._iterators[node_id] = iterator
        return iterator

    def next_window(self, node_id: int, limit: int) -> List[MemoryOperation]:
        iterator = self._iterator(node_id)
        window: List[MemoryOperation] = []
        for _ in range(limit):
            try:
                window.append(next(iterator))
            except StopIteration:
                break
        return window


# ------------------------------------------------------------------- JSONL


def write_trace_jsonl(
    path: str,
    traces: Mapping[int, Iterable[MemoryOperation]],
    *,
    block_bytes: int = 64,
    interleave: int = DEFAULT_WINDOW_OPS,
) -> int:
    """Write per-node operation streams to a chunked JSONL trace file.

    Nodes are interleaved round-robin in ``interleave``-sized chunks, so a
    reader pulling window after window for every node never buffers more than
    about one chunk per node.  ``traces`` values may be lazy iterables — the
    writer itself holds only one chunk at a time, so recording a million-op
    stream needs no materialisation either.  Returns the operation count.
    """
    if interleave < 1:
        raise WorkloadError(f"interleave must be positive, got {interleave}")
    if not traces:
        raise WorkloadError("streaming trace needs at least one node")
    iterators = {node: iter(operations) for node, operations in traces.items()}
    header = {
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "num_processors": max(iterators) + 1,
        "block_bytes": block_bytes,
        "interleave": interleave,
    }
    total = 0
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        pending = deque(sorted(iterators))
        while pending:
            node = pending.popleft()
            iterator = iterators[node]
            written = 0
            for op in iterator:
                handle.write(
                    json.dumps(
                        [
                            node,
                            op.address,
                            bool(op.is_write),
                            op.think_cycles,
                            op.instructions,
                            op.label,
                        ]
                    )
                    + "\n"
                )
                written += 1
                if written >= interleave:
                    break
            total += written
            if written >= interleave:
                pending.append(node)  # stream not exhausted: another chunk later
    return total


def _parse_trace_row(line: str, line_number: int) -> Tuple[int, MemoryOperation]:
    where = f"trace line {line_number}"
    try:
        row = json.loads(line)
    except json.JSONDecodeError as error:
        raise WorkloadError(f"{where}: not valid JSON ({error})") from error
    if not isinstance(row, list) or len(row) != 6:
        raise WorkloadError(
            f"{where}: expected "
            "[node, address, is_write, think_cycles, instructions, label], "
            f"got {row!r}"
        )
    try:
        node = int(row[0])
    except (TypeError, ValueError) as error:
        raise WorkloadError(f"{where}: malformed field in {row!r} ({error})") from error
    return node, operation_from_row(row[1:], where)


class JsonlTraceReader(OperationStream):
    """Chunked reader for :func:`write_trace_jsonl` files.

    Lines are consumed strictly in file order; operations for nodes other
    than the one currently being served accumulate in per-node read-ahead
    buffers.  With a writer-interleaved file that read-ahead stays around one
    chunk per node; ``max_buffered_ops`` (default: 64 windows worth) bounds
    it hard, failing loudly on files whose node interleaving would otherwise
    defeat the streaming path's memory guarantee.
    """

    def __init__(self, path: str, max_buffered_ops: Optional[int] = None) -> None:
        self.path = str(path)
        self.max_buffered_ops = max_buffered_ops
        self.header: Dict[str, object] = {}
        self.max_buffered_seen = 0
        self._handle = None
        self._line_number = 0
        self._buffers: Dict[int, Deque[MemoryOperation]] = {}
        self._buffered = 0
        self._eof = False
        self._read_header()

    # ------------------------------------------------------------ file pump

    def _read_header(self) -> None:
        if not os.path.exists(self.path):
            raise WorkloadError(f"trace file {self.path!r} does not exist")
        self._handle = open(self.path, "r", encoding="utf-8")
        self._line_number = 1
        first = self._handle.readline()
        try:
            header = json.loads(first) if first else None
        except json.JSONDecodeError:
            header = None
        if not isinstance(header, dict) or header.get("format") != TRACE_FORMAT:
            raise WorkloadError(
                f"{self.path!r} is not a {TRACE_FORMAT} JSONL file "
                "(missing or malformed header line)"
            )
        if int(header.get("version", 0)) > TRACE_VERSION:
            raise WorkloadError(
                f"{self.path!r} is version {header.get('version')}, "
                f"this reader understands <= {TRACE_VERSION}"
            )
        self.header = header
        self._buffers = {}
        self._buffered = 0
        self._eof = False

    @property
    def num_processors(self) -> int:
        return int(self.header["num_processors"])

    def configure(self, num_processors: int, block_bytes: int) -> None:
        if num_processors != self.num_processors:
            raise WorkloadError(
                f"trace file {self.path!r} records {self.num_processors} "
                f"processors, system has {num_processors}"
            )

    def restart(self) -> None:
        if self._handle is not None:
            self._handle.close()
        self._read_header()

    def buffered_operations(self) -> int:
        return self._buffered

    def _pump_line(self) -> bool:
        """Read one op row into its node buffer; False at end of file."""
        line = self._handle.readline()
        if not line:
            self._eof = True
            return False
        self._line_number += 1
        stripped = line.strip()
        if not stripped:
            return True
        node, operation = _parse_trace_row(stripped, self._line_number)
        self._buffers.setdefault(node, deque()).append(operation)
        self._buffered += 1
        if self._buffered > self.max_buffered_seen:
            self.max_buffered_seen = self._buffered
        if self.max_buffered_ops is not None and self._buffered > self.max_buffered_ops:
            raise WorkloadError(
                f"trace file {self.path!r}: read-ahead exceeded "
                f"{self.max_buffered_ops} buffered operations at line "
                f"{self._line_number} — the file's node interleaving defeats "
                "bounded streaming (rewrite it with write_trace_jsonl)"
            )
        return True

    def next_window(self, node_id: int, limit: int) -> List[MemoryOperation]:
        buffer = self._buffers.setdefault(node_id, deque())
        while len(buffer) < limit and not self._eof:
            self._pump_line()
        window = [buffer.popleft() for _ in range(min(limit, len(buffer)))]
        self._buffered -= len(window)
        return window

    def describe(self) -> str:
        return f"JsonlTraceReader({self.path})"


# ------------------------------------------------------------- the workload


class StreamingTraceWorkload(Workload):
    """Drives sequencers from bounded per-node windows of a streamed trace.

    Fetches ``window_ops`` operations per node at a time from ``source`` and
    replays them through the standard workload contract.  ``max_resident_ops``
    records the high-water mark of operations held anywhere (windows plus the
    source's read-ahead) — the number the bounded-memory tests assert is
    window-proportional, not trace-proportional.
    """

    def __init__(
        self,
        source: OperationStream,
        window_ops: int = DEFAULT_WINDOW_OPS,
    ) -> None:
        if window_ops < 1:
            raise WorkloadError(f"window_ops must be positive, got {window_ops}")
        self.source = source
        self.window_ops = window_ops
        self.total_streamed = 0
        self.windows_fetched = 0
        self.max_resident_ops = 0
        self._windows: Dict[int, Deque[MemoryOperation]] = {}
        self._exhausted: Dict[int, bool] = {}
        self._issued: Dict[int, int] = {}
        self._completed: Dict[int, int] = {}

    def bind(self, num_processors: int, block_bytes: int, rng) -> None:
        super().bind(num_processors, block_bytes, rng)
        self.source.configure(num_processors, block_bytes)
        self.source.restart()
        self.total_streamed = 0
        self.windows_fetched = 0
        self._windows = {node: deque() for node in range(num_processors)}
        self._exhausted = {node: False for node in range(num_processors)}
        self._issued = {node: 0 for node in range(num_processors)}
        self._completed = {node: 0 for node in range(num_processors)}

    def _note_residency(self) -> None:
        resident = sum(len(window) for window in self._windows.values())
        resident += self.source.buffered_operations()
        if resident > self.max_resident_ops:
            self.max_resident_ops = resident

    def next_operation(self, node_id: int, now: int) -> Optional[MemoryOperation]:
        window = self._windows[node_id]
        if not window:
            if self._exhausted[node_id]:
                return None
            batch = self.source.next_window(node_id, self.window_ops)
            if not batch:
                self._exhausted[node_id] = True
                return None
            window.extend(batch)
            self.windows_fetched += 1
            self.total_streamed += len(batch)
            self._note_residency()
        self._issued[node_id] += 1
        return window.popleft()

    def on_complete(self, node_id, operation, latency, was_miss, now) -> None:
        self._completed[node_id] = self._completed.get(node_id, 0) + 1

    def finished(self, node_id: int) -> bool:
        return (
            self._exhausted.get(node_id, False)
            and not self._windows.get(node_id)
            and self._completed.get(node_id, 0) >= self._issued.get(node_id, 0)
        )

    def describe(self) -> str:
        return (
            f"StreamingTrace({self.source.describe()}, "
            f"window={self.window_ops} ops)"
        )


# --------------------------------------------------------- picklable specs


@dataclass(frozen=True)
class StreamingTraceFileSpec:
    """Picklable factory replaying a JSONL trace file in bounded windows."""

    path: str
    window_ops: int = DEFAULT_WINDOW_OPS

    def __call__(self, seed: int) -> Workload:
        return StreamingTraceWorkload(
            JsonlTraceReader(self.path), window_ops=self.window_ops
        )

    def cache_token(self) -> str:
        return repr(self)


@dataclass(frozen=True)
class StreamingTrafficSpec:
    """Streams the stationary Zipfian traffic model in bounded windows.

    Only stationary shapes stream exactly (see :mod:`repro.workloads.traffic`
    — diurnal/bursty think-time modulation happens at issue time, which a
    pre-recorded stream cannot reproduce), so this spec exposes the Zipf and
    tenancy knobs but not the time-varying ones.
    """

    operations_per_processor: int = 80
    num_keys: int = 512
    zipf_exponent: float = 0.9
    write_fraction: float = 0.10
    base_think: int = 60
    think_jitter: int = 16
    tenant_groups: int = 1
    window_ops: int = 128

    def __call__(self, seed: int) -> Workload:
        spec = self

        def factory(
            node: int, num_processors: int, block_bytes: int
        ) -> Iterator[MemoryOperation]:
            return traffic_operation_stream(
                node,
                seed=seed,
                num_processors=num_processors,
                block_bytes=block_bytes,
                num_keys=spec.num_keys,
                zipf_exponent=spec.zipf_exponent,
                write_fraction=spec.write_fraction,
                base_think=spec.base_think,
                think_jitter=spec.think_jitter,
                tenant_groups=spec.tenant_groups,
                operations=spec.operations_per_processor,
            )

        return StreamingTraceWorkload(
            GeneratedOpStream(factory), window_ops=self.window_ops
        )

    def cache_token(self) -> str:
        return repr(self)
