"""Cache controller for the GS320-style Directory protocol (Section 3.2).

Requests are unicast on the unordered network to the block's home directory.
The directory either responds directly (sending the data on the unordered
network and a marker on the totally ordered forwarded-request network) or
forwards the request on the ordered multicast network to the owner, the
sharers, and the requester.  Because the forwarded-request network is totally
ordered and forwarded requests are always processed at their target, no
invalidation or completion acknowledgements are needed.
"""

from __future__ import annotations

from ..._core import is_stock, stock
from ...coherence.block import CacheBlock
from ...coherence.state import MOSIState
from ...coherence.transaction import Transaction
from ...errors import ProtocolError
from ...interconnect.message import DestinationUnit, Message, MessageType
from ...sim.arena import SimulationArena
from ..base import CacheControllerBase
from ..dispatch import compile_data_reply, handler_accelerator, note_selection


@stock
class DirectoryCacheController(CacheControllerBase):
    """MOSI cache controller that unicasts its requests to the home directory."""

    ORDERED_HANDLERS = {
        MessageType.MARKER: "_handle_marker",
        MessageType.FWD_GETS: "_handle_forward",
        MessageType.FWD_GETM: "_handle_forward",
        MessageType.PUT_ACK: "_handle_put_response",
        MessageType.PUT_NACK: "_handle_put_response",
    }
    UNORDERED_HANDLERS = {
        MessageType.DATA: "_handle_data",
    }

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._ctr_unicast_requests = self.stats.counter(
            self.stat_name("unicast_requests")
        )
        self._request_bytes = self.config.request_message_bytes

    # ------------------------------------------------------------- sending

    def _send_request(self, transaction: Transaction) -> None:
        transaction.was_broadcast = False
        address = transaction.address
        block = self._blocks_get(address)
        if (
            transaction.kind is MessageType.GETM
            and block is not None
            and block.state.is_owner
        ):
            # An upgrade from O needs no data; it completes at its marker.
            transaction.expects_data = False
        message = self._new_message(
            msg_type=transaction.kind,
            src=self.node_id,
            dest=self.home_of(address),
            dest_unit=DestinationUnit.MEMORY,
            address=address,
            size_bytes=self._request_bytes,
            requester=self.node_id,
            transaction_id=transaction.transaction_id,
            data_token=transaction.store_token,
            issue_time=self.now,
        )
        self._ctr_unicast_requests._count += 1
        self._unordered_send(message)

    def _send_writeback(self, transaction: Transaction) -> None:
        """Write the owned block back to the home; the data rides with the PUT."""
        block = self.blocks.lookup(transaction.address)
        message = self._new_message(
            msg_type=MessageType.PUTM,
            src=self.node_id,
            dest=self.home_of(transaction.address),
            dest_unit=DestinationUnit.MEMORY,
            address=transaction.address,
            size_bytes=self.config.data_message_bytes,
            requester=self.node_id,
            transaction_id=transaction.transaction_id,
            data_token=block.data_token,
            issue_time=self.now,
        )
        self._unordered_send(message)

    # --------------------------------------------------- compiled delivery

    def compile_accelerated_ordered(self, msg_type, memory_controller, home_filter):
        """A C delivery object for MARKER / forwarded-request entries.

        Same shape as the snooping variant: per-handler, exact unpatched
        class (:func:`repro._core.is_stock`) and default-table-entry
        checks, declining to the generic path on any customisation.  The
        Directory home consumes nothing ordered, so a memory controller
        that *does* register an ordered handler for the type means a
        customised system — decline.  A forward entry also serves other
        nodes' forwards in C (:meth:`_serve_forward`, with the DATA reply
        through :func:`repro.protocols.dispatch.compile_data_reply`) when
        the block store is stock.  PUT_ACK/PUT_NACK stay pure (rare, and
        they complete writebacks).
        """
        ext = handler_accelerator(self)
        if ext is None or type(self) is not DirectoryCacheController:
            return None
        if memory_controller.ordered_handlers.get(msg_type) is not None:
            return None
        if not is_stock(self, Transaction):
            note_selection(self, msg_type, "declined")
            return None
        if msg_type is MessageType.MARKER:
            expected, forward = self._handle_marker, 0
        elif msg_type in (MessageType.FWD_GETS, MessageType.FWD_GETM):
            expected, forward = self._handle_forward, 1
        else:
            return None
        if self.ordered_handlers.get(msg_type) != expected:
            note_selection(self, msg_type, "declined")
            return None
        note_selection(self, msg_type, "compiled")
        data_serve = None
        if forward and is_stock(self.blocks, CacheBlock):
            data_serve = compile_data_reply(self, ext, from_memory=False)
        return ext.DirDeliver(
            forward=forward,
            node_id=self.node_id,
            controller=self,
            transactions=self.transactions,
            try_complete=self._try_complete,
            handle_other=self._handle_other_forward if forward else None,
            completer=self._compiled_data_deliver(ext),
            blocks=self.blocks._blocks,
            blocks_lookup=self.blocks.lookup,
            data_serve=data_serve,
        )

    def compile_accelerated_unordered(self, msg_type):
        """A C delivery object for the unordered DATA entry, or None.

        The returned object carries ``releases_message=True``: the
        unordered network's deliver-and-release arena wrapper is folded
        into the C call (DATA responses are point-to-point).
        """
        if msg_type is not MessageType.DATA:
            return None
        ext = handler_accelerator(self)
        if ext is None:
            return None
        deliver = self._compiled_data_deliver(ext, releases_message=True)
        if deliver is None:
            note_selection(self, msg_type, "declined")
            return None
        note_selection(self, msg_type, "compiled")
        return deliver

    def _compiled_data_deliver(self, ext, releases_message=False):
        """A ``DataDeliver`` for this controller, or None on any customisation.

        Shared by the unordered DATA entry and — as ``DirDeliver``'s
        ``completer`` — the marker-side completion, which runs the same
        ``_try_complete``/``_complete`` chain.
        """
        if (
            type(self) is not DirectoryCacheController
            or not is_stock(self, self.blocks, Transaction, CacheBlock, SimulationArena)
            or self.unordered_handlers.get(MessageType.DATA) != self._handle_data
        ):
            return None
        message_arena = (
            getattr(self.scheduler, "arena", None) if releases_message else None
        )
        return ext.DataDeliver(
            directory=1,
            controller=self,
            transactions=self.transactions,
            blocks=self.blocks._blocks,
            blocks_lookup=self.blocks.lookup,
            scheduler=self.scheduler,
            fallback=self._handle_data,
            service_deferred=self._service_deferred,
            miss_mean=self._miss_latency_mean,
            system_mean=self._system_miss_latency,
            try_complete=self._try_complete,
            arena_release=(
                self._arena.release_transaction if self._arena is not None else None
            ),
            message_release=(
                message_arena.release_message if message_arena is not None else None
            ),
        )

    # ---------------------------------------------------------- ordered path

    def _handle_marker(self, message: Message) -> None:
        transaction = self.transactions.get(message.address)
        if transaction is None or transaction.transaction_id != message.transaction_id:
            self.count("stale_markers")
            return
        transaction.record_marker(message.order_seq)
        self._try_complete(transaction)

    def _handle_forward(self, message: Message) -> None:
        """Process one forwarded request from the ordered multicast network."""
        if message.requester == self.node_id:
            # Our own request forwarded by the directory doubles as our marker.
            transaction = self.transactions.get(message.address)
            if (
                transaction is None
                or transaction.transaction_id != message.transaction_id
            ):
                self.count("stale_markers")
                return
            transaction.record_marker(message.order_seq)
            self._try_complete(transaction)
            return
        self._handle_other_forward(message)

    def _handle_other_forward(self, message: Message) -> None:
        address = message.address
        transaction = self.transactions.get(address)
        block = self.blocks.lookup(address)
        if transaction is not None and not transaction.completed:
            if (
                transaction.kind is MessageType.GETM
                and transaction.marker_seen
                and not block.is_owner
            ):
                # The directory made us the owner before it forwarded this
                # request to us, but our data has not arrived yet: defer.
                transaction.defer(message)
                self.count("deferred_requests")
                if (
                    message.msg_type is MessageType.FWD_GETM
                    and block.state is MOSIState.SHARED
                ):
                    block.invalidate()
                return
            if transaction.kind is MessageType.GETS:
                if message.msg_type is MessageType.FWD_GETM:
                    transaction.note_invalidate(message.order_seq)
                if block.state is MOSIState.SHARED:
                    block.invalidate()
                return
        self._serve_forward(block, message)

    def _serve_forward(self, block: CacheBlock, message: Message) -> None:
        """React to a forwarded request according to our stable state."""
        requester = message.requester
        if message.msg_type is MessageType.FWD_GETS:
            if block.is_owner:
                self._send_data(
                    block.address, requester, block.data_token, message.transaction_id
                )
                block.state = MOSIState.OWNED
                block.tracked_sharers.add(requester)
                self.count("cache_to_cache")
            else:
                self.count("stale_forwards")
            return
        if message.msg_type is MessageType.FWD_GETM:
            if block.is_owner:
                self._send_data(
                    block.address, requester, block.data_token, message.transaction_id
                )
                block.invalidate()
                self.blocks.drop(block.address)
                self.count("cache_to_cache")
            elif block.state is MOSIState.SHARED:
                block.invalidate()
                self.blocks.drop(block.address)
                self.count("invalidations")
            return
        raise ProtocolError(f"unexpected forward {message.msg_type}")

    def _handle_put_response(self, message: Message) -> None:
        transaction = self.writebacks.get(message.address)
        if transaction is None or transaction.transaction_id != message.transaction_id:
            self.count("stale_put_responses")
            return
        block = self.blocks.lookup(message.address)
        block.invalidate()
        self.blocks.drop(message.address)
        if message.msg_type is MessageType.PUT_ACK:
            self.count("writebacks.acked")
        else:
            self.count("writebacks.nacked")
        self._complete(transaction)

    # --------------------------------------------------------- unordered path

    def _handle_data(self, message: Message) -> None:
        transaction = self.transactions.get(message.address)
        if (
            transaction is None
            or transaction.completed
            or transaction.transaction_id != message.transaction_id
        ):
            self.count("dropped_data")
            return
        transaction.data_received = True
        transaction.received_token = message.data_token
        if transaction.kind is MessageType.GETM:
            # Install ownership immediately (inlined block.become_owner) so
            # later forwarded requests are served, but only report completion
            # once the marker arrives.
            block = self._blocks_lookup(message.address)
            block.state = MOSIState.MODIFIED
            block.data_token = transaction.store_token
            block.tracked_sharers.clear()
            if transaction.deferred:
                self._service_deferred(transaction, block)
        self._try_complete(transaction)

    # ------------------------------------------------------------ completion

    def _try_complete(self, transaction: Transaction) -> None:
        if not transaction.marker_seen:
            return
        if transaction.expects_data and not transaction.data_received:
            return
        block = self._blocks_lookup(transaction.address)
        if transaction.kind is MessageType.GETM:
            if not transaction.data_received:
                # Upgrade without a data response: install ownership here.
                # Requests satisfied by a data response installed ownership
                # when the data arrived (so deferred forwards could be served)
                # and only report completion now.
                block.become_owner(transaction.store_token)
                if transaction.deferred:
                    self._service_deferred(transaction, block)
            self._complete(transaction)
        else:
            self._finish_gets(transaction, block)

    def _finish_gets(self, transaction: Transaction, block: CacheBlock) -> None:
        block.data_token = transaction.received_token
        if transaction.invalidated_after():
            block.invalidate()
            self.blocks.drop(block.address)
            self.count("load_then_invalidate")
        else:
            block.state = MOSIState.SHARED
        self._complete(transaction)

    def _service_deferred(self, transaction: Transaction, block: CacheBlock) -> None:
        for deferred in transaction.deferred:
            if not block.is_owner:
                break
            self._serve_forward(block, deferred)
        transaction.clear_deferred()


def compile_issue_send(cache, ext):
    """``(send_mode, kwargs)`` inlining the unicast send into C, or None.

    Mode 2 replicates :meth:`DirectoryCacheController._send_request` /
    ``_send_writeback`` + :meth:`UnorderedNetwork.send` for the exact stock
    shapes only: unpatched stock controller and config (whose
    block-interleaved home mapping the C send computes inline), stock
    unordered network with compiled injection entries, and a stock endpoint
    link.  Any other shape returns None and the issue chain falls back to send
    mode 0 — C bookkeeping around the bound Python ``_send_*``
    methods, faithful by construction.
    """
    from ...interconnect.link import link_push  # noqa: PLC0415
    from ...interconnect.unordered_network import UnorderedNetwork  # noqa: PLC0415

    net = cache.interconnect.unordered
    if type(net) is not UnorderedNetwork:
        return None
    if cache._unordered_send is not net._send_callback:
        return None
    pair = net.links.get(cache.node_id)
    if (
        net._accel is not ext
        or pair is None
        or not is_stock(cache, cache.config, net, pair.outgoing)
    ):
        return None
    extra = {
        "net_messages": net._messages_counter,
        "ctr_unicast": cache._ctr_unicast_requests,
        "num_procs": cache.config.num_processors,
        "data_bytes": cache.config.data_message_bytes,
        "request_bytes": cache._request_bytes,
    }
    for key, kind in (
        ("push_gets", MessageType.GETS),
        ("push_getm", MessageType.GETM),
        ("push_putm", MessageType.PUTM),
    ):
        entry = net._inject_entries.get(kind)
        if entry is None:
            entry = net._compile_injection(kind)
        inject_label, relay = entry
        extra[key] = link_push(net.scheduler, pair.outgoing, relay, inject_label)
    return 2, extra
