"""The totally ordered request network.

All three protocols rely on a totally ordered virtual network: Snooping and
BASH order their requests on it, and Directory uses it for forwarded requests
and markers.  The model is the paper's abstraction: a fixed-latency crossbar
with a single logical ordering point.  A message

1. occupies the sender's outgoing endpoint link (FIFO, finite bandwidth),
2. enters the switch and is assigned a global order sequence number,
3. traverses the crossbar in a fixed number of cycles, and
4. occupies each recipient's incoming endpoint link before being delivered.

Because every recipient's incoming link is FIFO and arrivals are scheduled in
global order, every node observes the same total order of requests — the
property the protocols depend on to avoid explicit acknowledgements.

Delivery is table-driven: a node registered through :meth:`register_dispatcher`
exposes compiled per-message-type entries (see :class:`repro.system.node.Node`)
that the network schedules *directly* — the fired delivery event runs the
protocol handler with no node-level dispatch frame.  Plain callables
(:meth:`register`) remain supported for tests and tools.  This module sits on
the simulator's hottest path, so the per-hop pipeline is compiled once per
``(message type, node)`` into closures that share the scheduler's fast-path
heap representation (``(time, sequence, callback, label, arg)`` — see
:mod:`repro.sim.scheduler`) and push entries at link transmit times, which
never precede ``now``.
"""

from __future__ import annotations

from heapq import heappush as _heappush

from typing import Callable, Dict, FrozenSet, Optional, Tuple

from .._core import is_stock, note_handler_selection, stock
from ..common.stats import StatsRegistry
from ..errors import NetworkError
from ..sim.scheduler import Scheduler
from .link import EndpointLink, LinkPair, interconnect_accelerator, link_push
from .message import Message, MessageType

#: Signature of a node's handler for ordered (request network) deliveries.
OrderedHandler = Callable[[Message], None]


@stock
class TotallyOrderedNetwork:
    """Broadcast/multicast-capable, totally ordered virtual network."""

    def __init__(
        self,
        scheduler: Scheduler,
        links: Dict[int, LinkPair],
        traversal_cycles: int,
        stats: StatsRegistry,
        broadcast_cost_factor: float = 1.0,
    ) -> None:
        if traversal_cycles < 0:
            raise NetworkError(
                f"traversal_cycles must be non-negative, got {traversal_cycles}"
            )
        self.scheduler = scheduler
        self.links = links
        self.traversal_cycles = traversal_cycles
        self.stats = stats
        self.broadcast_cost_factor = broadcast_cost_factor
        self._handlers: Dict[int, OrderedHandler] = {}
        self._dispatchers: Dict[int, object] = {}
        self._order_sequence = 0
        self._node_ids: FrozenSet[int] = frozenset(links)
        # Hot-path caches: stat handles hoisted out of the per-message path,
        # memoised inject labels, and per-(type, node) compiled arrival
        # closures (each carries its labels, incoming link and resolved
        # delivery entry, so the broadcast fan-out allocates nothing per
        # recipient and the delivery event fires the protocol handler
        # directly).
        self._messages_counter = stats.counter("network.ordered.messages")
        self._broadcasts_counter = stats.counter("network.ordered.broadcasts")
        self._multicasts_counter = stats.counter("network.ordered.multicasts")
        self._out_transmit: Dict[int, Callable] = {}
        self._inject_labels: Dict[MessageType, str] = {}
        self._arrive_entries: Dict[
            Tuple[MessageType, int], Tuple[str, Callable[[Message], None]]
        ] = {}
        # Recipient sets recur (all-nodes broadcasts, {home, requester}
        # dualcasts), and frozensets cache their hash, so memoising the sorted
        # order avoids a sort per fan-out — and the fully resolved fan-out
        # list (one (callback, label) pair per recipient, in delivery order)
        # avoids a per-recipient tuple-key probe into ``_arrive_entries``.
        self._sorted_recipients: Dict[FrozenSet[int], Tuple[int, ...]] = {}
        self._fanout_memo: Dict[object, Tuple[Tuple[Callable, str], ...]] = {}
        # Compiled-backend accelerator (repro._core._cext) when the scheduler
        # is a compiled instance, else None: C replacements for the send,
        # the switch entry and the unit-cost arrival closures below — same
        # entries, same ordering, no bytecode.
        self._accel = interconnect_accelerator(scheduler)
        self._enter_switch_callback = self._compile_enter_switch()
        self._send_callback = self._compile_send()

    @property
    def next_order_sequence(self) -> int:
        """The sequence number the next ordered message will receive."""
        return self._order_sequence

    def reset(self, broadcast_cost_factor: Optional[float] = None) -> None:
        """Re-arm the network for a fresh run.

        The global order restarts from sequence zero.  Compiled arrival
        closures are kept — they capture only objects that survive a system
        reset (links, scheduler, delivery entries) — unless the broadcast
        cost factor changes, which is baked into each closure and forces a
        recompile.
        """
        self._order_sequence = 0
        if (
            broadcast_cost_factor is not None
            and broadcast_cost_factor != self.broadcast_cost_factor
        ):
            self.broadcast_cost_factor = broadcast_cost_factor
            self._invalidate_compiled()

    def _invalidate_compiled(self) -> None:
        """Drop compiled arrival closures and the fan-out lists resolved from them."""
        self._arrive_entries.clear()
        self._fanout_memo.clear()

    def register(self, node_id: int, handler: OrderedHandler) -> None:
        """Register a plain delivery callable for ``node_id``."""
        if node_id not in self.links:
            raise NetworkError(f"node {node_id} has no endpoint link")
        self._handlers[node_id] = handler
        self._dispatchers.pop(node_id, None)
        self._invalidate_compiled()

    def register_dispatcher(self, node_id: int, dispatcher: object) -> None:
        """Register a node whose compiled dispatch entries are indexed directly.

        ``dispatcher`` must provide ``ordered_entry(msg_type) -> callable``
        (:class:`repro.system.node.Node` does).
        """
        if node_id not in self.links:
            raise NetworkError(f"node {node_id} has no endpoint link")
        self._dispatchers[node_id] = dispatcher
        self._handlers.pop(node_id, None)
        self._invalidate_compiled()
        # Let the dispatcher invalidate our compiled copies of its entries
        # (Node.invalidate_dispatch_cache calls these after table swaps).
        invalidators = getattr(dispatcher, "dispatch_cache_invalidators", None)
        if invalidators is not None:
            invalidators.append(self._invalidate_compiled)

    def send(self, message: Message, recipients: FrozenSet[int]) -> None:
        """Inject ``message`` destined for ``recipients`` (which may be all nodes)."""
        if not recipients:
            raise NetworkError("ordered send requires at least one recipient")
        node_ids = self._node_ids
        if not recipients <= node_ids:
            raise NetworkError(f"unknown recipients {sorted(recipients - node_ids)}")
        message.recipients = frozenset(recipients)
        is_broadcast = message.is_broadcast = len(recipients) == len(node_ids)
        cost_factor = self.broadcast_cost_factor if is_broadcast else 1.0
        transmit = self._out_transmit.get(message.src)
        if transmit is None:
            transmit = self._out_transmit[message.src] = self.links[
                message.src
            ].outgoing.transmit
        scheduler = self.scheduler
        injection_time = transmit(scheduler.now, message.size_bytes, cost_factor)
        self._messages_counter._count += 1
        if is_broadcast:
            self._broadcasts_counter._count += 1
        else:
            self._multicasts_counter._count += 1
        msg_type = message.msg_type
        label = self._inject_labels.get(msg_type)
        if label is None:
            label = f"ordered-inject:{msg_type}"
            self._inject_labels[msg_type] = label
        sequence = scheduler._sequence
        scheduler._sequence = sequence + 1
        entry = (injection_time, sequence, self._enter_switch_callback, label, message)
        buckets = scheduler._buckets
        bucket = buckets.get(injection_time)
        if bucket is None:
            buckets[injection_time] = [entry]
            _heappush(scheduler._times, injection_time)
        else:
            bucket.append(entry)

    def _compile_send(self) -> Callable[..., None]:
        """The callable the controllers bind as ``_ordered_send``.

        On a compiled scheduler the stock network gets the C
        ``OrderedSend``: :meth:`send` in C, with the source link's
        transmit inlined as ``LinkPush`` runs it (a broadcast at the
        network's cost factor, memoised as :meth:`Link.transmit` does).  It
        calls this method for any shape it does not take (an unknown
        recipient, a recipient set that is not a plain set).  Called with
        the message alone it
        sends to ``message.recipients``, the Directory home's inject.  A
        subclassed or patched network, link or message class keeps the
        bound method.
        """
        if self._accel is None:
            return self.send
        name = f"{type(self).__name__}.send"
        if not is_stock(self, EndpointLink, Message):
            note_handler_selection(name, "declined")
            return self.send
        note_handler_selection(name, "compiled")
        return self._accel.OrderedSend(self.scheduler, self, EndpointLink)

    def _compile_enter_switch(self) -> Callable[[Message], None]:
        """The callback every injected message fires on reaching the switch.

        On a compiled scheduler the stock network gets the C ``SwitchEnter``
        (:meth:`_enter_switch` in C, calling :meth:`_fanout` on a memo
        miss); a subclassed or patched network keeps the bound method.
        """
        if self._accel is None:
            return self._enter_switch
        name = f"{type(self).__name__}.enter_switch"
        if not is_stock(self):
            note_handler_selection(name, "declined")
            return self._enter_switch
        note_handler_selection(name, "compiled")
        return self._accel.SwitchEnter(self.scheduler, self)

    def _enter_switch(self, message: Message) -> None:
        """Assign the total-order sequence number and fan the message out."""
        message.order_seq = self._order_sequence
        self._order_sequence += 1
        scheduler = self.scheduler
        exit_time = scheduler.now + self.traversal_cycles
        msg_type = message.msg_type
        recipients = message.recipients
        fanout = self._fanout_memo.get((msg_type, recipients))
        if fanout is None:
            fanout = self._fanout(msg_type, recipients)
        # All recipients arrive at the same cycle: resolve the bucket once and
        # append the whole fan-out to it — a broadcast costs one dict probe
        # plus N list appends instead of N heap pushes.
        buckets = scheduler._buckets
        bucket = buckets.get(exit_time)
        if bucket is None:
            bucket = buckets[exit_time] = []
            _heappush(scheduler._times, exit_time)
        append = bucket.append
        sequence = scheduler._sequence
        for callback, label in fanout:
            append((exit_time, sequence, callback, label, message))
            sequence += 1
        scheduler._sequence = sequence

    def _fanout(
        self, msg_type: MessageType, recipients: FrozenSet[int]
    ) -> Tuple[Tuple[Callable, str], ...]:
        """Resolve and memoise the fan-out of ``msg_type`` to ``recipients``.

        One ``(arrival closure, label)`` pair per recipient, in delivery
        (node id) order.
        """
        order = self._sorted_recipients.get(recipients)
        if order is None:
            order = tuple(sorted(recipients))
            self._sorted_recipients[recipients] = order
        entries = self._arrive_entries
        resolved = []
        for node_id in order:
            entry = entries.get((msg_type, node_id))
            if entry is None:
                entry = self._compile_arrival(msg_type, node_id)
            resolved.append((entry[1], entry[0]))
        fanout = tuple(resolved)
        self._fanout_memo[(msg_type, recipients)] = fanout
        return fanout

    def _compile_arrival(
        self, msg_type: MessageType, node_id: int
    ) -> Tuple[str, Callable[[Message], None]]:
        """Build the arrival closure for one ``(message type, node)`` pair.

        The closure queues the message on the recipient's incoming link and
        schedules the resolved delivery entry; a node with neither dispatcher
        nor handler registered compiles to an arrival that fails loudly when
        it fires (matching the pre-compiled implementation's timing).
        """
        deliver = self._resolve_delivery(msg_type, node_id)
        arrive_label = f"ordered-arrive:{msg_type}:n{node_id}"
        deliver_label = f"ordered-deliver:{msg_type}:n{node_id}"
        in_link = self.links[node_id].incoming
        scheduler = self.scheduler
        broadcast_cost = self.broadcast_cost_factor

        if deliver is None:

            def arrive(message: Message) -> None:
                raise NetworkError(
                    f"no ordered handler registered for node {node_id}"
                )

        elif broadcast_cost == 1.0:
            # Unit broadcast cost (the default): every message on this link
            # costs occupancy_cycles(size), so the shared unit-cost push
            # closure applies (C LinkPush on a compiled scheduler).  A changed
            # broadcast cost factor recompiles it (Interconnect.reset).
            arrive = link_push(scheduler, in_link, deliver, deliver_label)

        else:
            buckets = scheduler._buckets
            buckets_get = buckets.get
            times = scheduler._times
            transmit = in_link.transmit

            def arrive(message: Message) -> None:
                done = transmit(
                    scheduler.now,
                    message.size_bytes,
                    broadcast_cost if message.is_broadcast else 1.0,
                )
                sequence = scheduler._sequence
                scheduler._sequence = sequence + 1
                entry = (done, sequence, deliver, deliver_label, message)
                bucket = buckets_get(done)
                if bucket is None:
                    buckets[done] = [entry]
                    _heappush(times, done)
                else:
                    bucket.append(entry)

        entry = (arrive_label, arrive)
        self._arrive_entries[(msg_type, node_id)] = entry
        return entry

    def _resolve_delivery(
        self, msg_type: MessageType, node_id: int
    ) -> Optional[Callable[[Message], None]]:
        dispatcher = self._dispatchers.get(node_id)
        if dispatcher is not None:
            return dispatcher.ordered_entry(msg_type)
        return self._handlers.get(node_id)
