"""The queue-entry contract, across backends, on live systems.

Every producer on both backends (the schedulers' pushes, the pure network
closures, the C per-hop objects and handlers) queues ``(callback, label)``
or ``(callback, label, arg)`` in the bucket of the event's time.  One small
system per protocol is cut mid-run at the same cycle on each backend; the
events still queued at the cut must be the same, in the same bucket order,
and every entry must have one of the two shapes.
"""

from __future__ import annotations

import pytest

from repro import _core
from repro.common.config import ProtocolName
from repro.interconnect.message import Message, _message_ids
from repro.system.multiprocessor import MultiprocessorSystem
from repro.workloads.microbenchmark import LockingMicrobenchmark

from ..conftest import small_config

#: Per protocol: the config overrides, and a label that must be queued at
#: the cut.  BASH at 200 MB/s keeps its sampling events queued; a 2-block
#: Directory cache keeps writebacks in flight.
SHAPES = {
    ProtocolName.SNOOPING: ({}, "ordered-arrive:GETM:n0"),
    ProtocolName.BASH: ({"bandwidth": 200.0}, "cache0:adaptive-sample"),
    ProtocolName.DIRECTORY: ({"cache_capacity_blocks": 2}, "unordered-inject:PUTM"),
}
CUT = 1_500


def pending_at_cut(backend: str, protocol: ProtocolName):
    """The entry shapes, ``{time: [(label, message number)]}`` and the heap.

    Message ids come from one process-wide counter, so each is numbered
    from the first id this system could draw.
    """
    first_id = next(_message_ids) + 1
    with _core.use_backend(backend):
        system = MultiprocessorSystem(
            small_config(protocol, **SHAPES[protocol][0]),
            LockingMicrobenchmark(num_locks=8, acquires_per_processor=20),
        )
    system.run(max_cycles=CUT)
    scheduler = system.simulator.scheduler
    assert scheduler.now == CUT and scheduler.pending > 0
    shapes = {
        len(entry) for bucket in scheduler._buckets.values() for entry in bucket
    }
    queue = {
        time: [(entry[1], arg_number(entry, first_id)) for entry in bucket]
        for time, bucket in scheduler._buckets.items()
    }
    return shapes, queue, sorted(scheduler._times)


def arg_number(entry, first_id: int):
    """The entry's message argument numbered from ``first_id``, else None."""
    arg = entry[2] if len(entry) == 3 else None
    return arg.msg_id - first_id if isinstance(arg, Message) else None


@pytest.mark.skipif(
    not _core.compiled_available(),
    reason="compiled extension not built (python -m repro._core.build)",
)
@pytest.mark.parametrize("protocol", list(SHAPES), ids=lambda p: p.value)
def test_pending_queue_is_the_same_on_both_backends(protocol):
    pure_shapes, *pure = pending_at_cut(_core.PURE, protocol)
    compiled_shapes, *compiled = pending_at_cut(_core.COMPILED, protocol)
    assert pure_shapes | compiled_shapes <= {2, 3}
    assert compiled == pure
    labels = {label for entries in pure[0].values() for label, _ in entries}
    assert SHAPES[protocol][1] in labels
