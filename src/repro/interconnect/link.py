"""Endpoint link model: finite bandwidth, FIFO occupancy, utilization tracking.

The paper abstracts the interconnect as "a fixed latency crossbar with limited
bandwidth and contention at the endpoints"; contention therefore lives entirely
in these per-node, per-direction links.  A message of ``size`` bytes occupies
the link for ``ceil(size / bytes_per_cycle)`` cycles and queues FIFO behind any
message already in flight.  The same links also provide the *local utilization
estimate* that drives BASH's adaptive mechanism and the endpoint-utilization
curves of Figure 6.

A link's state is O(1): besides its running totals it keeps only the current
busy period (back-to-back transfers merge into one period) and the busy total
before it.  That answers every present-time utilization query exactly; the
link keeps no history before the current period.  This module owns the format:
the unit-cost push closure below and its C mirror (``LinkPush`` in
``repro/_core/_cext.c``) are the only other code that touches it.
"""

from __future__ import annotations

from heapq import heappush as _heappush
from typing import Callable, Dict, Optional, Tuple

from .._core import accelerator_for, stock
from ..common.units import transfer_cycles
from ..errors import NetworkError


@stock
class EndpointLink:
    """One direction (in or out) of a node's link to the interconnect."""

    __slots__ = (
        "name",
        "bytes_per_cycle",
        "_busy_until",
        "_busy_total",
        "_period_start",
        "_period_prefix",
        "_messages",
        "_bytes",
        "_occupancy_cache",
    )

    def __init__(self, name: str, bytes_per_cycle: float) -> None:
        if bytes_per_cycle <= 0:
            raise NetworkError(
                f"link {name!r} bandwidth must be positive, got {bytes_per_cycle}"
            )
        self.name = name
        self.bytes_per_cycle = bytes_per_cycle
        self._busy_until = 0
        self._busy_total = 0
        # The current busy period starts at _period_start; _period_prefix is
        # the busy total accumulated before it.
        self._period_start = 0
        self._period_prefix = 0
        self._messages = 0
        self._bytes = 0
        # Memoised (size_bytes, cost_factor) -> occupancy cycles; messages come
        # in a handful of distinct sizes, so the exact ceiling is computed once
        # per size instead of on the transmit fast path.
        self._occupancy_cache: Dict[Tuple[int, float], int] = {}

    @property
    def busy_until(self) -> int:
        """Cycle at which the link becomes idle again."""
        return self._busy_until

    @property
    def messages_carried(self) -> int:
        """Number of messages transmitted over this link."""
        return self._messages

    @property
    def bytes_carried(self) -> int:
        """Total payload bytes carried (before any broadcast cost factor)."""
        return self._bytes

    def occupancy_cycles(self, size_bytes: int, cost_factor: float = 1.0) -> int:
        """Cycles this link is occupied by a message of ``size_bytes``."""
        cached = self._occupancy_cache.get((size_bytes, cost_factor))
        if cached is not None:
            return cached
        if size_bytes <= 0:
            raise NetworkError(f"message size must be positive, got {size_bytes}")
        if cost_factor < 1.0:
            raise NetworkError(f"cost factor must be >= 1, got {cost_factor}")
        cycles = transfer_cycles(size_bytes * cost_factor, self.bytes_per_cycle)
        self._occupancy_cache[(size_bytes, cost_factor)] = cycles
        return cycles

    def transmit(self, now: int, size_bytes: int, cost_factor: float = 1.0) -> int:
        """Occupy the link with a message arriving at cycle ``now``.

        Returns the cycle at which transmission completes.  Messages are
        serviced in arrival order, so a message arriving while the link is busy
        waits until the earlier transfers finish.
        """
        # Unit cost dominates, so it is cached under the bare size (an int key
        # hashes in C and needs no tuple allocation); other cost factors fall
        # back to the (size, cost) tuple key.  The two key shapes cannot
        # collide in the shared dict.
        cache = self._occupancy_cache
        if cost_factor == 1.0:
            cycles = cache.get(size_bytes)
            if cycles is None:
                cycles = self.occupancy_cycles(size_bytes, cost_factor)
                cache[size_bytes] = cycles
        else:
            cycles = cache.get((size_bytes, cost_factor))
            if cycles is None:
                cycles = self.occupancy_cycles(size_bytes, cost_factor)
        busy_until = self._busy_until
        if now > busy_until:
            # The link was idle: a new busy period opens.
            self._period_start = now
            self._period_prefix = self._busy_total
            busy_until = now
        finish = busy_until + cycles
        self._busy_until = finish
        self._busy_total += cycles
        self._messages += 1
        self._bytes += size_bytes
        return finish

    def reset(self, bytes_per_cycle: Optional[float] = None) -> None:
        """Re-arm the link for a fresh run, optionally at a new bandwidth.

        The memoised occupancy table is only invalidated when the bandwidth
        actually changes (it is keyed by message size, which does not vary
        across sweep points); it is cleared in place, so closures holding it
        stay valid.
        """
        if bytes_per_cycle is not None and bytes_per_cycle != self.bytes_per_cycle:
            if bytes_per_cycle <= 0:
                raise NetworkError(
                    f"link {self.name!r} bandwidth must be positive, "
                    f"got {bytes_per_cycle}"
                )
            self.bytes_per_cycle = bytes_per_cycle
            self._occupancy_cache.clear()
        self._busy_until = 0
        self._busy_total = 0
        self._period_start = 0
        self._period_prefix = 0
        self._messages = 0
        self._bytes = 0

    def busy_time_up_to(self, time: int) -> int:
        """Total busy cycles in ``[0, time)``.

        Exact for any ``time`` at or after the start of the current busy
        period, which covers every query for the present; an earlier ``time``
        raises :class:`NetworkError`.
        """
        if time >= self._busy_until:
            return self._busy_total
        start = self._period_start
        if time < start:
            raise NetworkError(
                f"link {self.name!r} keeps no busy history before cycle "
                f"{start}; cannot answer busy time up to cycle {time}"
            )
        return self._period_prefix + (time - start)


def link_push(
    scheduler, link: EndpointLink, deliver: Callable, label: str
) -> Callable:
    """The unit-cost "occupy ``link``, then schedule ``deliver``" closure.

    Calling it with a message transmits the message on ``link`` at the
    scheduler's current cycle (:meth:`EndpointLink.transmit` inlined, unit
    cost) and pushes the delivery event ``(done, sequence, deliver, label,
    message)`` straight into the scheduler's bucket queue.  The ordered
    network's arrivals and the unordered network's deliveries both run it —
    a broadcast fan-out once per recipient, making it the hottest code in the
    repository.  On a compiled scheduler it is the C ``LinkPush`` object,
    which performs the same steps.

    It holds only objects that survive a system reset (the link, its occupancy
    memo dict, the scheduler's containers), so it stays valid across resets.
    """
    accel = accelerator_for(scheduler)
    if accel is not None:
        return accel.LinkPush(scheduler, link, deliver, label)
    buckets = scheduler._buckets
    buckets_get = buckets.get
    times = scheduler._times
    occupancy = link._occupancy_cache
    occupancy_get = occupancy.get

    def push(message) -> None:
        size = message.size_bytes
        cycles = occupancy_get(size)
        if cycles is None:
            cycles = occupancy[size] = link.occupancy_cycles(size)
        now = scheduler.now
        busy_until = link._busy_until
        if now > busy_until:
            link._period_start = now
            link._period_prefix = link._busy_total
            busy_until = now
        done = busy_until + cycles
        link._busy_until = done
        link._busy_total += cycles
        link._messages += 1
        link._bytes += size
        sequence = scheduler._sequence
        scheduler._sequence = sequence + 1
        entry = (done, sequence, deliver, label, message)
        bucket = buckets_get(done)
        if bucket is None:
            buckets[done] = [entry]
            _heappush(times, done)
        else:
            bucket.append(entry)

    return push


class LinkPair:
    """The incoming and outgoing halves of one node's endpoint link."""

    __slots__ = ("node_id", "outgoing", "incoming")

    def __init__(self, node_id: int, bytes_per_cycle: float) -> None:
        self.node_id = node_id
        self.outgoing = EndpointLink(f"node{node_id}.out", bytes_per_cycle)
        self.incoming = EndpointLink(f"node{node_id}.in", bytes_per_cycle)

    def reset(self, bytes_per_cycle: Optional[float] = None) -> None:
        """Re-arm both directions, optionally at a new bandwidth."""
        self.outgoing.reset(bytes_per_cycle)
        self.incoming.reset(bytes_per_cycle)
