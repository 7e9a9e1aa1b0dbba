"""Deterministic trace record/replay workload.

Useful for regression tests (replay the exact same reference stream against
all three protocols) and for users who want to drive the simulator from traces
captured elsewhere.  A trace is a per-processor list of
:class:`~repro.workloads.base.MemoryOperation`.

Traces round-trip through JSON (:func:`operations_to_jsonable` /
:func:`operations_from_jsonable`); every row, here and in the streaming JSONL
reader, goes through the one validator :func:`operation_from_row`.  (The
verification campaign's failure artifacts hold a different, block-level trace,
:class:`~repro.verification.differential.MemoryTrace`, which round-trips
through its own ``to_jsonable``/``from_jsonable``; its
:meth:`~repro.verification.differential.MemoryTrace.to_workload` drives such a
trace through this workload's full sequencer stack.)
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from ..errors import WorkloadError
from .base import MemoryOperation, Workload


def operations_to_jsonable(
    traces: Mapping[int, Sequence[MemoryOperation]],
) -> Dict[str, List[List]]:
    """Per-processor operation lists as a JSON-ready mapping.

    Each operation serialises to the compact row
    ``[address, is_write, think_cycles, instructions, label]``.
    """
    return {
        str(node): [
            [op.address, bool(op.is_write), op.think_cycles, op.instructions, op.label]
            for op in operations
        ]
        for node, operations in traces.items()
    }


def operation_from_row(row: Sequence, where: str) -> MemoryOperation:
    """One serialised row back into a :class:`MemoryOperation`.

    Trace files are edited by hand and produced by external tools, so every
    row is validated individually: a short, extra, mistyped or negative row
    raises :class:`~repro.errors.WorkloadError` prefixed with ``where`` (say,
    ``"node 3 row 1"``) instead of leaking a bare ``ValueError``/``TypeError``
    or running a nonsensical reference.
    """
    if not isinstance(row, (list, tuple)) or len(row) != 5:
        raise WorkloadError(
            f"{where}: expected "
            "[address, is_write, think_cycles, instructions, label], "
            f"got {row!r}"
        )
    address, is_write, think_cycles, instructions, label = row
    try:
        operation = MemoryOperation(
            address=int(address),
            is_write=bool(is_write),
            think_cycles=int(think_cycles),
            instructions=int(instructions),
            label=str(label),
        )
    except (TypeError, ValueError) as error:
        raise WorkloadError(
            f"{where}: malformed field in {row!r} ({error})"
        ) from error
    if operation.address < 0 or operation.think_cycles < 0:
        raise WorkloadError(
            f"{where}: address and think_cycles must be non-negative, "
            f"got {row!r}"
        )
    return operation


def operations_from_jsonable(
    data: Mapping[str, Sequence[Sequence]],
) -> Dict[int, List[MemoryOperation]]:
    """Inverse of :func:`operations_to_jsonable`."""
    traces: Dict[int, List[MemoryOperation]] = {}
    for node, rows in data.items():
        try:
            node_id = int(node)
        except (TypeError, ValueError) as error:
            raise WorkloadError(
                f"trace node key {node!r} is not an integer"
            ) from error
        traces[node_id] = [
            operation_from_row(row, f"node {node} row {index}")
            for index, row in enumerate(rows)
        ]
    return traces


class TraceWorkload(Workload):
    """Replays a fixed per-processor sequence of memory operations."""

    def __init__(self, traces: Dict[int, Sequence[MemoryOperation]]) -> None:
        if not traces:
            raise WorkloadError("trace workload needs at least one processor trace")
        self._traces: Dict[int, List[MemoryOperation]] = {
            node: list(operations) for node, operations in traces.items()
        }
        self._positions: Dict[int, int] = {node: 0 for node in self._traces}
        self._completed: Dict[int, int] = {node: 0 for node in self._traces}

    def bind(self, num_processors: int, block_bytes: int, rng) -> None:
        # A workload object is re-bound on every system build *and* reset
        # (sweep points reuse the machine), so replay state must rewind to the
        # start of the trace here — surviving positions would resume a reused
        # workload mid-trace and break the reset-equivalence contract.
        super().bind(num_processors, block_bytes, rng)
        self._positions = {node: 0 for node in self._traces}
        self._completed = {node: 0 for node in self._traces}

    @classmethod
    def single_processor_stream(
        cls, node_id: int, operations: Iterable[MemoryOperation], num_processors: int
    ) -> "TraceWorkload":
        """A trace where only one processor issues references."""
        traces: Dict[int, Sequence[MemoryOperation]] = {
            node: [] for node in range(num_processors)
        }
        traces[node_id] = list(operations)
        return cls(traces)

    def next_operation(self, node_id: int, now: int) -> Optional[MemoryOperation]:
        trace = self._traces.get(node_id, [])
        position = self._positions.get(node_id, 0)
        if position >= len(trace):
            return None
        self._positions[node_id] = position + 1
        return trace[position]

    def on_complete(self, node_id, operation, latency, was_miss, now) -> None:
        self._completed[node_id] = self._completed.get(node_id, 0) + 1

    def finished(self, node_id: int) -> bool:
        trace = self._traces.get(node_id, [])
        return self._completed.get(node_id, 0) >= len(trace)

    def describe(self) -> str:
        total = sum(len(trace) for trace in self._traces.values())
        return f"TraceWorkload({total} operations, {len(self._traces)} processors)"

    # ------------------------------------------------------------------- JSON

    def to_jsonable(self) -> Dict[str, List[List]]:
        """This workload's reference streams, JSON-ready."""
        return operations_to_jsonable(self._traces)

    @classmethod
    def from_jsonable(cls, data: Mapping[str, Sequence[Sequence]]) -> "TraceWorkload":
        """Rebuild a trace workload written by :meth:`to_jsonable`."""
        return cls(operations_from_jsonable(data))
