"""Endpoint link model: finite bandwidth, FIFO occupancy, utilization tracking.

The paper abstracts the interconnect as "a fixed latency crossbar with limited
bandwidth and contention at the endpoints"; contention therefore lives entirely
in these per-node, per-direction links.  A message of ``size`` bytes occupies
the link for ``ceil(size / bytes_per_cycle)`` cycles and queues FIFO behind any
message already in flight.  The same links also provide the *local utilization
estimate* that drives BASH's adaptive mechanism and the endpoint-utilization
curves of Figure 6.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, List, Optional, Tuple

from .._core import stock
from ..errors import NetworkError


@stock
class EndpointLink:
    """One direction (in or out) of a node's link to the interconnect."""

    __slots__ = (
        "name",
        "bytes_per_cycle",
        "_busy_until",
        "_busy_total",
        "_messages",
        "_bytes",
        "_segment_starts",
        "_segment_finishes",
        "_segment_prefix",
        "_occupancy_cache",
        "_query_memo",
        "_query_memo2",
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
        self._messages = 0
        self._bytes = 0
        # Busy periods as merged [start, finish) segments plus a prefix-sum of
        # the busy cycles before each segment, so busy_time_up_to() is exact
        # for any query time (utilization windows look into the past).
        self._segment_starts: List[int] = []
        self._segment_finishes: List[int] = []
        self._segment_prefix: List[int] = []
        # Memoised (size_bytes, cost_factor) -> occupancy cycles; messages come
        # in a handful of distinct sizes, so this avoids a float divide + ceil
        # on the transmit fast path.
        self._occupancy_cache: Dict[Tuple[int, float], int] = {}
        # Two-deep memo of recent busy_time_up_to() queries.  The adaptive
        # mechanism samples utilization over [previous_now, now) windows, so
        # each sample's window_start query repeats the previous sample's
        # window_end query exactly.
        self._query_memo: Tuple[int, int] = (-1, 0)
        self._query_memo2: Tuple[int, int] = (-1, 0)

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
        cycles = max(1, math.ceil(size_bytes * cost_factor / self.bytes_per_cycle))
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
        start = now if now > busy_until else busy_until
        finish = start + cycles
        finishes = self._segment_finishes
        if finishes and start <= finishes[-1]:
            # Back-to-back transfer: extend the current busy period.
            finishes[-1] = finish
        else:
            self._segment_starts.append(start)
            finishes.append(finish)
            self._segment_prefix.append(self._busy_total)
        self._busy_until = finish
        self._busy_total += cycles
        self._messages += 1
        self._bytes += size_bytes
        return finish

    def reset(self, bytes_per_cycle: Optional[float] = None) -> None:
        """Re-arm the link for a fresh run, optionally at a new bandwidth.

        All occupancy history is cleared in place; the memoised occupancy
        table is only invalidated when the bandwidth actually changes (it is
        keyed by message size, which does not vary across sweep points).
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
        self._messages = 0
        self._bytes = 0
        self._segment_starts.clear()
        self._segment_finishes.clear()
        self._segment_prefix.clear()
        self._query_memo = (-1, 0)
        self._query_memo2 = (-1, 0)

    def busy_time_up_to(self, time: int) -> int:
        """Total busy cycles in ``[0, time)``, exact for any query time."""
        # O(1) fast path: once every transfer has finished, the answer is the
        # running total — the common case for the adaptive mechanism's
        # "utilization up to now" queries on a link that has gone idle.
        if time >= self._busy_until:
            return self._busy_total
        memo = self._query_memo
        if memo[0] == time:
            return memo[1]
        memo2 = self._query_memo2
        if memo2[0] == time:
            return memo2[1]
        if not self._segment_starts:
            return 0
        index = bisect.bisect_right(self._segment_starts, time) - 1
        if index < 0:
            return 0
        start = self._segment_starts[index]
        finish = self._segment_finishes[index]
        busy = self._segment_prefix[index] + max(0, min(finish, time) - start)
        # Memoising is only sound for times the link's history can no longer
        # change: past segments are immutable once a later transfer starts,
        # but the final segment may still be extended in place.
        if self._segment_finishes[-1] > time or index < len(self._segment_starts) - 1:
            self._query_memo2 = memo
            self._query_memo = (time, busy)
        return busy

    def utilization(self, window_start: int, window_end: int) -> float:
        """Fraction of cycles busy within ``[window_start, window_end)``."""
        if window_end <= window_start:
            return 0.0
        busy = self.busy_time_up_to(window_end) - self.busy_time_up_to(window_start)
        return min(1.0, busy / (window_end - window_start))


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

    def utilization(self, window_start: int, window_end: int) -> float:
        """Local utilization estimate: the busier of the two directions.

        The paper's mechanism samples "the utilization of its link to the
        interconnection network"; taking the bottleneck direction makes the
        estimate sensitive both to broadcast floods (incoming) and to data
        response pressure (outgoing).

        Computed as ``min(1.0, max(busy_in, busy_out) / window)`` — identical
        to taking the max of the two per-direction utilizations (same
        numerator and denominator reach the one division), with half the
        calls; the adaptive mechanism queries this once per node per sampling
        interval.
        """
        if window_end <= window_start:
            return 0.0
        incoming = self.incoming
        outgoing = self.outgoing
        busy_in = incoming.busy_time_up_to(window_end) - incoming.busy_time_up_to(
            window_start
        )
        busy_out = outgoing.busy_time_up_to(window_end) - outgoing.busy_time_up_to(
            window_start
        )
        busy = busy_in if busy_in > busy_out else busy_out
        utilization = busy / (window_end - window_start)
        return utilization if utilization < 1.0 else 1.0

    def busy_time_up_to(self, time: int) -> int:
        """Bottleneck-direction busy cycles in ``[0, time)``."""
        return max(
            self.incoming.busy_time_up_to(time),
            self.outgoing.busy_time_up_to(time),
        )
