"""The unordered point-to-point virtual network.

Data responses (and, in the Directory protocol, the unicast requests sent to
the home node) travel on this network.  It shares the endpoint links with the
ordered network — the paper models one link per node — but imposes no ordering
beyond the FIFO behaviour of each individual link.

Like the ordered network, delivery is table-driven: nodes registered through
:meth:`register_dispatcher` expose compiled per-``(destination unit, message
type)`` entries that the network schedules directly, so the fired delivery
event is the protocol handler itself.  The per-hop pipeline is compiled once
per message type (injection) and once per ``(type, destination, unit)``
(delivery) and pushes the scheduler's fast-path heap entries inline (transmit
times never precede ``now``, so the bounds check in ``schedule_at_fast1`` is
unnecessary here).
"""

from __future__ import annotations

from heapq import heappush as _heappush

from typing import Callable, Dict, Optional, Tuple

from .._core import accelerator_for, stock
from ..common.stats import StatsRegistry
from ..errors import NetworkError
from ..sim.scheduler import Scheduler
from .link import LinkPair, link_push
from .message import DestinationUnit, Message, MessageType

#: Signature of a node's handler for unordered (point-to-point) deliveries.
UnorderedHandler = Callable[[Message], None]


@stock
class UnorderedNetwork:
    """Point-to-point virtual network with fixed traversal latency."""

    def __init__(
        self,
        scheduler: Scheduler,
        links: Dict[int, LinkPair],
        traversal_cycles: int,
        stats: StatsRegistry,
    ) -> None:
        if traversal_cycles < 0:
            raise NetworkError(
                f"traversal_cycles must be non-negative, got {traversal_cycles}"
            )
        self.scheduler = scheduler
        self.links = links
        self.traversal_cycles = traversal_cycles
        self.stats = stats
        self._handlers: Dict[int, UnorderedHandler] = {}
        self._dispatchers: Dict[int, object] = {}
        # Hot-path caches mirroring the ordered network's (see there): the
        # injection entry per message type carries the inject label and a
        # traverse closure; the delivery entry per (type, dest, unit) carries
        # the deliver label, the destination's incoming link and the resolved
        # handler.
        self._messages_counter = stats.counter("network.unordered.messages")
        self._out_transmit: Dict[int, Callable] = {}
        self._inject_entries: Dict[
            MessageType, Tuple[str, Callable[[Message], None]]
        ] = {}
        self._deliver_entries: Dict[
            Tuple[MessageType, int, DestinationUnit],
            Tuple[str, Callable[[Message], None], Callable],
        ] = {}
        # Compiled-backend accelerator (repro._core._cext) when the scheduler
        # is a compiled instance, else None; see the ordered network.
        self._accel = accelerator_for(scheduler)

    def reset(self) -> None:
        """Re-arm the network for a fresh run.

        The unordered network keeps no per-run state of its own (the links are
        reset by the interconnect, the message counter lives in the stats
        registry), and its compiled injection/delivery closures capture only
        objects that survive a system reset — so this is deliberately empty
        and exists to keep the reset protocol uniform across both networks.
        """

    def register(self, node_id: int, handler: UnorderedHandler) -> None:
        """Register a plain delivery callable for ``node_id``."""
        if node_id not in self.links:
            raise NetworkError(f"node {node_id} has no endpoint link")
        self._handlers[node_id] = handler
        self._dispatchers.pop(node_id, None)
        self._deliver_entries.clear()

    def register_dispatcher(self, node_id: int, dispatcher: object) -> None:
        """Register a node whose compiled dispatch entries are indexed directly.

        ``dispatcher`` must provide ``unordered_entry(dest_unit, msg_type) ->
        callable`` (:class:`repro.system.node.Node` does).
        """
        if node_id not in self.links:
            raise NetworkError(f"node {node_id} has no endpoint link")
        self._dispatchers[node_id] = dispatcher
        self._handlers.pop(node_id, None)
        self._deliver_entries.clear()
        # Let the dispatcher invalidate our compiled copies of its entries
        # (Node.invalidate_dispatch_cache calls these after table swaps).
        invalidators = getattr(dispatcher, "dispatch_cache_invalidators", None)
        if invalidators is not None:
            invalidators.append(self._deliver_entries.clear)

    def send(self, message: Message) -> None:
        """Send ``message`` from ``message.src`` to ``message.dest``."""
        dest = message.dest
        links = self.links
        if dest not in links:
            if dest is None:
                raise NetworkError("unordered send requires a destination")
            raise NetworkError(f"unknown destination node {dest}")
        transmit = self._out_transmit.get(message.src)
        if transmit is None:
            src_pair = links.get(message.src)
            if src_pair is None:
                raise NetworkError(f"unknown source node {message.src}")
            transmit = self._out_transmit[message.src] = src_pair.outgoing.transmit
        scheduler = self.scheduler
        injection_time = transmit(scheduler.now, message.size_bytes)
        self._messages_counter._count += 1
        entry = self._inject_entries.get(message.msg_type)
        if entry is None:
            entry = self._compile_injection(message.msg_type)
        accel = self._accel
        if accel is not None:
            accel.sched_push(scheduler, injection_time, entry[1], entry[0], message)
            return
        sequence = scheduler._sequence
        scheduler._sequence = sequence + 1
        item = (injection_time, sequence, entry[1], entry[0], message)
        buckets = scheduler._buckets
        bucket = buckets.get(injection_time)
        if bucket is None:
            buckets[injection_time] = [item]
            _heappush(scheduler._times, injection_time)
        else:
            bucket.append(item)

    def _compile_injection(
        self, msg_type: MessageType
    ) -> Tuple[str, Callable[[Message], None]]:
        """Build the per-type (inject label, traverse closure) pair."""
        inject_label = f"unordered-inject:{msg_type}"
        arrive_label = f"unordered-arrive:{msg_type}"
        scheduler = self.scheduler
        buckets = scheduler._buckets
        buckets_get = buckets.get
        times = scheduler._times
        traversal = self.traversal_cycles
        arrive = self._arrive

        if self._accel is not None:
            entry = (
                inject_label,
                self._accel.Relay(scheduler, traversal, arrive, arrive_label),
            )
            self._inject_entries[msg_type] = entry
            return entry

        def traverse(message: Message) -> None:
            """Cross the switch fabric and head for the destination's link."""
            time = scheduler.now + traversal
            sequence = scheduler._sequence
            scheduler._sequence = sequence + 1
            entry = (time, sequence, arrive, arrive_label, message)
            bucket = buckets_get(time)
            if bucket is None:
                buckets[time] = [entry]
                _heappush(times, time)
            else:
                bucket.append(entry)

        entry = (inject_label, traverse)
        self._inject_entries[msg_type] = entry
        return entry

    def _arrive(self, message: Message) -> None:
        """Occupy the destination's incoming link, then deliver."""
        entry = self._deliver_entries.get(
            (message.msg_type, message.dest, message.dest_unit)
        )
        if entry is None:
            entry = self._compile_delivery(
                message.msg_type, message.dest, message.dest_unit
            )
        entry[2](message)

    def _compile_delivery(
        self, msg_type: MessageType, dest: int, dest_unit: DestinationUnit
    ) -> Tuple[str, Callable[[Message], None], Callable[[Message], None]]:
        """Resolve (deliver label, delivery entry, occupy-and-schedule) once.

        The third element is the hot half of :meth:`_arrive`: the shared
        unit-cost :func:`~repro.interconnect.link.link_push` closure on the
        destination's incoming link (unordered messages always carry unit
        cost), which survives system resets.

        When a :class:`~repro.sim.arena.SimulationArena` is attached to the
        scheduler, the delivery callable is wrapped to release the message to
        the arena's free list after the handler returns: a point-to-point
        message has exactly one delivery and no protocol handler retains it
        (ordered messages, which *can* be parked in deferred/held queues, are
        never recycled).
        """
        deliver = self._resolve_delivery(msg_type, dest, dest_unit)
        if deliver is None:
            raise NetworkError(f"no unordered handler registered for node {dest}")
        arena = getattr(self.scheduler, "arena", None)
        if arena is not None and not getattr(deliver, "releases_message", False):
            # A compiled entry that advertises releases_message has the
            # release folded into its C call; wrapping would double-release.
            release = arena.release_message

            def deliver_and_release(
                message: Message, _deliver=deliver, _release=release
            ) -> None:
                _deliver(message)
                _release(message)

            deliver = deliver_and_release
        label = f"unordered-deliver:{msg_type}:n{dest}"
        occupy = link_push(self.scheduler, self.links[dest].incoming, deliver, label)
        entry = (label, deliver, occupy)
        self._deliver_entries[(msg_type, dest, dest_unit)] = entry
        return entry

    def _resolve_delivery(
        self, msg_type: MessageType, dest: int, dest_unit: DestinationUnit
    ) -> Optional[Callable[[Message], None]]:
        dispatcher = self._dispatchers.get(dest)
        if dispatcher is not None:
            return dispatcher.unordered_entry(dest_unit, msg_type)
        return self._handlers.get(dest)
