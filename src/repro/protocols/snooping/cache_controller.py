"""Cache controller for the aggressive MOSI Snooping protocol (Section 3.1).

Requests are broadcast on the totally ordered request network; every cache
(including the requester, whose own request serves as its marker) snoops every
request; the owner — a cache in M or O, or memory — supplies data directly on
the unordered response network.  Because requests are totally ordered there are
no invalidation acknowledgements: a cache makes a strictly local decision on
each snooped request and can infer that every other node decides compatibly.

The same controller is the base class of the BASH cache controller
(:mod:`repro.protocols.bash.cache_controller`), which overrides the request
issue policy (broadcast vs. dualcast) and the sufficiency checks, but reacts to
incoming requests identically — as the paper notes, "BASH processors react
identically to requests, regardless of whether they are unicasts, multicasts,
or broadcasts."
"""

from __future__ import annotations

from ..._core import is_stock, note_handler_selection, stock
from ...coherence.block import CacheBlock
from ...coherence.directory import DirectoryEntry
from ...coherence.state import MOSIState
from ...coherence.transaction import Transaction
from ...errors import ProtocolError
from ...interconnect.message import DestinationUnit, Message, MessageType, _message_ids
from ...sim.arena import SimulationArena
from ..base import CacheControllerBase
from ..dispatch import handler_accelerator, note_selection


@stock
class SnoopingCacheController(CacheControllerBase):
    """MOSI snooping cache controller with broadcast-on-miss behaviour."""

    ORDERED_HANDLERS = {
        MessageType.GETS: "_snoop_request",
        MessageType.GETM: "_snoop_request",
        MessageType.PUTM: "_snoop_putm",
    }
    UNORDERED_HANDLERS = {
        MessageType.DATA: "_handle_data",
    }

    # --------------------------------------------------- compiled delivery

    def compile_accelerated_ordered(self, msg_type, memory_controller, home_filter):
        """A C delivery object for one ordered entry, or None to decline.

        Only offered for GETS/GETM when this controller's scheduler is a
        compiled instance; within that, the decline rule is *per handler*
        and strictly more conservative than :meth:`compile_fused_ordered`'s:
        the controller must be an exact, unpatched Snooping/BASH class
        (:func:`repro._core.is_stock`) and the dispatch-table entry must
        still be the default bound method.  The memory side compiles only
        for the exact, unpatched stock memory controllers; a present but
        custom memory handler is kept as a Python call behind the C home
        filter, and systems without a home filter decline entirely.  Every
        decision is recorded via :func:`repro.protocols.dispatch.note_selection`
        so ``repro backend`` can show what actually ran compiled.

        The C objects prebind the same reset-stable containers as the
        fused closures (the transaction dict, the block store's raw dict,
        the node's home memo, the directory's entry dict), so they survive
        system resets; table swaps go through
        ``Node.invalidate_dispatch_cache`` which recompiles and re-runs
        this selection.
        """
        if msg_type is not MessageType.GETS and msg_type is not MessageType.GETM:
            return None  # PUTM: rare writebacks always run the pure handlers
        ext = handler_accelerator(self)
        if ext is None:
            return None
        from ..bash.cache_controller import BashCacheController  # noqa: PLC0415
        from ..bash.memory_controller import BashMemoryController  # noqa: PLC0415
        from .memory_controller import SnoopingMemoryController  # noqa: PLC0415

        bash = type(self) is BashCacheController
        if not bash and type(self) is not SnoopingCacheController:
            return None  # unknown subclass: its overrides stay authoritative
        if (
            not is_stock(self, self.blocks, Transaction, CacheBlock)
            or self.ordered_handlers.get(msg_type) != self._snoop_request
        ):
            # A patched class (bug-injection tests do this on purpose) or a
            # swapped table entry: the pure path is the only faithful one.
            note_selection(self, msg_type, "declined")
            return None
        mem_handler = memory_controller.ordered_handlers.get(msg_type)
        if mem_handler is None:
            mem_mode = 0
        elif home_filter is None:
            # No cached home test: the generic deliver-both path is the
            # only faithful shape, so decline the whole entry.
            note_selection(self, msg_type, "declined")
            return None
        elif (
            type(memory_controller) in (SnoopingMemoryController, BashMemoryController)
            and mem_handler == memory_controller._ordered_request
            and is_stock(memory_controller, memory_controller.directory, DirectoryEntry)
        ):
            mem_mode = 2
        else:
            # Custom or patched memory controller, or a swapped table entry:
            # keep the memory side as a Python call behind the C home filter
            # (always faithful — it is the same bound table entry the pure
            # path would call).
            mem_mode = 1
        note_selection(self, msg_type, "compiled")
        mem_bash = type(memory_controller) is BashMemoryController
        mem_serve = None
        if mem_mode == 2:
            mem_serve = compile_mem_serve(memory_controller, ext)
            note_handler_selection(
                f"MemoryController{memory_controller.node_id}.serve",
                "declined" if mem_serve is None else "compiled",
            )
        return ext.SnoopDeliver(
            kind=msg_type,
            node_id=self.node_id,
            bash=bash,
            controller=self,
            transactions=self.transactions,
            blocks=self.blocks._blocks,
            blocks_lookup=self.blocks.lookup,
            handle_other=self._handle_other_request,
            finish_getm=self._finish_getm,
            own_sufficient=self._own_request_sufficient,
            mem_mode=mem_mode,
            mem_bash=mem_bash if mem_mode == 2 else 0,
            home_filter=home_filter,
            is_home_for=memory_controller.is_home_for,
            mem_handler=mem_handler,
            mem_controller=memory_controller if mem_mode == 2 else None,
            dir_entries=memory_controller.directory._entries if mem_mode == 2 else None,
            dir_lookup=memory_controller.directory.lookup if mem_mode == 2 else None,
            completer=self._compiled_data_deliver(ext),
            mem_serve=mem_serve,
            **(_home_inline_args(memory_controller) if mem_mode else {}),
        )

    def compile_accelerated_unordered(self, msg_type):
        """A C delivery object for the unordered DATA entry, or None.

        Same per-handler decline rule as the ordered selection; the
        returned object carries ``releases_message=True``, folding the
        unordered network's deliver-and-release arena wrapper into the C
        call (a DATA response is point-to-point: exactly one delivery).
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

        Shared by the unordered DATA entry and — as the ordered entries'
        ``completer`` — the upgrade-at-marker completion, which runs the
        same ``_finish_getm``/``_complete`` chain.  The stat handles and
        arena releases are prebound bound methods: both survive system
        resets (``RunningMean.reset`` re-initialises in place, the arena
        re-pools through ``__init__``).
        """
        if (
            not is_stock(self, self.blocks, Transaction, CacheBlock, SimulationArena)
            or self.unordered_handlers.get(MessageType.DATA) != self._handle_data
        ):
            return None
        message_arena = (
            getattr(self.scheduler, "arena", None) if releases_message else None
        )
        return ext.DataDeliver(
            directory=0,
            controller=self,
            transactions=self.transactions,
            blocks=self.blocks._blocks,
            blocks_lookup=self.blocks.lookup,
            scheduler=self.scheduler,
            fallback=self._handle_data,
            service_deferred=self._service_deferred,
            miss_record=self._miss_latency_mean.record,
            system_record=self._system_miss_latency.record,
            arena_release=(
                self._arena.release_transaction if self._arena is not None else None
            ),
            message_release=(
                message_arena.release_message if message_arena is not None else None
            ),
        )

    # ------------------------------------------------------- fused delivery

    def compile_fused_ordered(self, msg_type, memory_handler, home_filter, is_home_for):
        """One closure running snoop early-out + home-filtered memory handling.

        A broadcast fans out to every node, so the per-delivery frames are the
        hottest code in the repository: this folds :meth:`_snoop_request` and
        the node's home-filtered memory dispatch into a single callable with
        prebound dict accessors.  Only compiled when the dispatch table still
        routes GETS/GETM to the default snoop handler (tests that swap
        handler tables keep the generic table-driven path).  The prebound
        ``.get``\\ s target dicts that every reset clears *in place*, so the
        closure survives system resets.
        """
        if msg_type is not MessageType.GETS and msg_type is not MessageType.GETM:
            return None
        if self.ordered_handlers.get(msg_type) != self._snoop_request:
            return None
        node_id = self.node_id
        transactions_get = self.transactions.get
        blocks_get = self.blocks._blocks.get  # raw dict: cleared in place on reset
        handle_own = self._handle_own_request
        handle_other = self._handle_other_request
        if memory_handler is None:

            def snoop_only(message: Message) -> None:
                if message.requester == node_id:
                    handle_own(message)
                    return
                address = message.address
                transaction = transactions_get(address)
                if blocks_get(address) is None and (
                    transaction is None or transaction.completed
                ):
                    return
                handle_other(message)

            return snoop_only

        home_filter_get = home_filter.get

        def snoop_and_home(message: Message) -> None:
            address = message.address
            if message.requester == node_id:
                handle_own(message)
            else:
                transaction = transactions_get(address)
                if blocks_get(address) is not None or (
                    transaction is not None and not transaction.completed
                ):
                    handle_other(message)
            home = home_filter_get(address)
            if home is None:
                home = home_filter[address] = is_home_for(address)
            if home:
                memory_handler(message)

        return snoop_and_home

    # ------------------------------------------------------------- sending

    def _request_recipients(self, transaction: Transaction) -> frozenset:
        """Destination set for a request: Snooping always broadcasts."""
        transaction.was_broadcast = True
        return self.interconnect.all_nodes

    def _writeback_recipients(self, transaction: Transaction) -> frozenset:
        """Destination set for a writeback: Snooping broadcasts these too."""
        return self.interconnect.all_nodes

    def _build_request_message(
        self, transaction: Transaction, kind: MessageType
    ) -> Message:
        return Message(
            msg_type=kind,
            src=self.node_id,
            address=transaction.address,
            size_bytes=self.config.request_message_bytes,
            requester=self.node_id,
            transaction_id=transaction.transaction_id,
            data_token=transaction.store_token,
            issue_time=self.now,
        )

    def _send_request(self, transaction: Transaction) -> None:
        message = self._build_request_message(transaction, transaction.kind)
        recipients = self._request_recipients(transaction)
        if transaction.was_broadcast:
            self.count("broadcast_requests")
        else:
            self.count("unicast_requests")
        self._ordered_send(message, recipients)

    def _send_writeback(self, transaction: Transaction) -> None:
        message = self._build_request_message(transaction, MessageType.PUTM)
        self._ordered_send(message, self._writeback_recipients(transaction))

    # ---------------------------------------------------------- ordered path

    def _snoop_request(self, message: Message) -> None:
        """Snoop one GETS/GETM delivered in the global total order."""
        if message.requester == self.node_id:
            self._handle_own_request(message)
            return
        # Early-out inline: most snoops are for blocks this node neither holds
        # nor has a transaction for, and must not pay another call frame.
        address = message.address
        transaction = self.transactions.get(address)
        block = self.blocks.get(address)
        if block is None and (transaction is None or transaction.completed):
            return
        self._handle_other_request(message)

    def _snoop_putm(self, message: Message) -> None:
        """Snoop a writeback request: only the writer itself reacts."""
        if message.requester == self.node_id:
            self._handle_own_writeback_marker(message)
        # Other caches ignore PUTs; the home memory controller tracks them.

    # Own requests ---------------------------------------------------------

    def _handle_own_request(self, message: Message) -> None:
        transaction = self.transactions.get(message.address)
        if transaction is None or transaction.transaction_id != message.transaction_id:
            self.count("stale_own_requests")
            return
        if message.is_retry:
            transaction.retries_observed += 1
            self.count("retries_observed")
        transaction.record_marker(message.order_seq)
        block = self.blocks.lookup(message.address)
        self._try_complete_at_marker(transaction, block, message)

    def _try_complete_at_marker(
        self, transaction: Transaction, block: CacheBlock, message: Message
    ) -> None:
        """Complete an upgrade immediately at its marker when possible.

        A requester that already owns the block (a GETM issued from O) needs no
        data; it completes as soon as its request is ordered.  Requesters in S
        or I wait for the data response.
        """
        if transaction.kind is MessageType.GETM and block.is_owner:
            if self._own_request_sufficient(transaction, block, message):
                transaction.expects_data = False
                self._finish_getm(transaction, block)

    def _own_request_sufficient(
        self, transaction: Transaction, block: CacheBlock, message: Message
    ) -> bool:
        """Was our own ordered request delivered to every node that must see it?

        Snooping broadcasts everything, so the answer is always yes; BASH
        overrides this with the owner-side sufficiency check of footnote 2.
        """
        return True

    def _handle_own_writeback_marker(self, message: Message) -> None:
        transaction = self.writebacks.get(message.address)
        if transaction is None or transaction.transaction_id != message.transaction_id:
            self.count("stale_own_writebacks")
            return
        transaction.record_marker(message.order_seq)
        block = self.blocks.lookup(message.address)
        home = self.home_of(message.address)
        if block.is_owner:
            self._send_writeback_payload(
                MessageType.WB_DATA,
                home,
                message.address,
                transaction.transaction_id,
                block.data_token,
            )
            block.invalidate()
            self.blocks.drop(message.address)
            self.count("writebacks.data")
        else:
            self._send_writeback_payload(
                MessageType.WB_SQUASH,
                home,
                message.address,
                transaction.transaction_id,
                0,
            )
            self.count("writebacks.squashed")
        self._complete(transaction)

    def _send_writeback_payload(
        self,
        msg_type: MessageType,
        home: int,
        address: int,
        transaction_id: int,
        data_token: int,
    ) -> None:
        size = (
            self.config.data_message_bytes
            if msg_type is MessageType.WB_DATA
            else self.config.request_message_bytes
        )
        message = self._new_message(
            msg_type=msg_type,
            src=self.node_id,
            dest=home,
            dest_unit=DestinationUnit.MEMORY,
            address=address,
            size_bytes=size,
            requester=self.node_id,
            transaction_id=transaction_id,
            data_token=data_token,
            issue_time=self.now,
        )
        self._schedule_after_fast1(
            self._cache_response_latency,
            self._unordered_send,
            message,
            self.full_label(f"writeback-{msg_type}"),
        )

    # Other nodes' requests --------------------------------------------------

    def _handle_other_request(self, message: Message) -> None:
        if message.msg_type is MessageType.PUTM:
            return  # only the writer and the home memory care about a PUT
        address = message.address
        transaction = self.transactions.get(address)
        block = self.blocks.get(address)
        if block is None:
            # No record and no pending transaction for this address: the snoop
            # cannot concern us, so don't materialise an Invalid record (one
            # would be allocated per node per snooped request otherwise).
            # _snoop_request short-circuits this case before calling here, but
            # keep the guard for direct callers.
            if transaction is None or transaction.completed:
                return
            block = self.blocks.lookup(address)
        if transaction is not None and not transaction.completed:
            if (
                transaction.kind is MessageType.GETM
                and transaction.marker_seen
                and not block.is_owner
            ):
                # We are (or may become) the owner at an earlier point in the
                # total order but have not received data yet: defer the request
                # and service it when the data arrives.
                transaction.defer(message)
                self.count("deferred_requests")
                # A deferred GETM also invalidates any shared copy we hold.
                if (
                    message.request_kind is MessageType.GETM
                    and block.state is MOSIState.SHARED
                ):
                    block.invalidate()
                return
            if transaction.kind is MessageType.GETS:
                if message.request_kind is MessageType.GETM:
                    transaction.note_invalidate(message.order_seq)
                if block.state is MOSIState.SHARED:
                    block.invalidate()
                return
        self._serve_stable(block, message)

    def _owner_getm_sufficient(self, block: CacheBlock, message: Message) -> bool:
        """Owner-side sufficiency check for another node's GETM.

        Always true under Snooping; BASH overrides it so that the owner and the
        memory controller reach the same verdict on non-broadcast requests.
        """
        return True

    def _serve_stable(self, block: CacheBlock, message: Message) -> None:
        """React to another node's request according to our stable state."""
        kind = message.request_kind
        requester = message.requester
        if kind is MessageType.GETS:
            if block.is_owner:
                self._send_data(
                    block.address,
                    requester,
                    block.data_token,
                    message.transaction_id,
                )
                block.state = MOSIState.OWNED
                block.tracked_sharers.add(requester)
                self.count("cache_to_cache")
            return
        if kind is MessageType.GETM:
            if block.is_owner:
                if not self._owner_getm_sufficient(block, message):
                    self.count("insufficient_observed")
                    return
                self._send_data(
                    block.address,
                    requester,
                    block.data_token,
                    message.transaction_id,
                )
                block.invalidate()
                self.blocks.drop(block.address)
                self.count("cache_to_cache")
            elif block.state is MOSIState.SHARED:
                block.invalidate()
                self.blocks.drop(block.address)
                self.count("invalidations")
            return
        raise ProtocolError(f"unexpected request kind {kind}")

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
        block = self.blocks.lookup(message.address)
        if transaction.kind is MessageType.GETM:
            self._finish_getm(transaction, block)
        else:
            self._finish_gets(transaction, block)

    # ------------------------------------------------------------ completion

    def _finish_getm(self, transaction: Transaction, block: CacheBlock) -> None:
        """Install ownership, perform the store, service deferred requests."""
        block.become_owner(transaction.store_token)
        self._service_deferred(transaction, block)
        self._complete(transaction)

    def _finish_gets(self, transaction: Transaction, block: CacheBlock) -> None:
        """Install a shared copy unless a later-ordered store already killed it."""
        block.data_token = transaction.received_token
        if transaction.invalidated_after():
            block.invalidate()
            self.blocks.drop(block.address)
            self.count("load_then_invalidate")
        else:
            block.state = MOSIState.SHARED
        self._complete(transaction)

    def _service_deferred(self, transaction: Transaction, block: CacheBlock) -> None:
        """Serve requests that were ordered after ours while we awaited data."""
        own_seq = transaction.effective_order_seq
        for deferred in transaction.deferred:
            if not block.is_owner:
                break  # ownership has already passed to a later requester
            if own_seq is not None and deferred.order_seq is not None:
                if deferred.order_seq < own_seq:
                    # The deferred request was ordered before our successful
                    # (possibly retried) request; it is some other node's
                    # responsibility.
                    self.count("deferred_dropped")
                    continue
            self._serve_stable(block, deferred)
        transaction.clear_deferred()


def _home_inline_args(memory_controller):
    """Kwargs compiling the stock block-interleaved home test into C.

    Empty — keeping the memoised ``is_home_for`` fallback — unless the
    memory controller and its config are unpatched stock objects.
    """
    config = memory_controller.config
    if is_stock(memory_controller, config):
        return {
            "home_inline": 1,
            "block_bytes": config.cache_block_bytes,
            "num_procs": config.num_processors,
        }
    return {}


def compile_issue_send(cache, ext):
    """``(send_mode, kwargs)`` inlining the broadcast send into C, or None.

    Mode 1 replicates :meth:`SnoopingCacheController._send_request` /
    ``_send_writeback`` + :meth:`TotallyOrderedNetwork.send` for the exact
    stock shapes only: unpatched stock controller, network with unit
    broadcast cost, the full-node recipient set, and a stock endpoint link
    (whose transmit the prebuilt ``LinkPush`` objects inline).  Any other
    shape returns None and the issue chain falls back to send mode 0 — C
    bookkeeping around the bound Python ``_send_*`` methods, faithful by
    construction.
    """
    from ...interconnect.ordered_network import TotallyOrderedNetwork  # noqa: PLC0415

    net = cache.interconnect.ordered
    if type(net) is not TotallyOrderedNetwork:
        return None
    send = cache._ordered_send
    if (
        getattr(send, "__self__", None) is not net
        or send.__func__ is not TotallyOrderedNetwork.send
    ):
        return None
    if net.broadcast_cost_factor != 1.0 or net._accel is not ext:
        return None
    all_nodes = cache.interconnect.all_nodes
    if type(all_nodes) is not frozenset or all_nodes != net._node_ids:
        return None
    pair = net.links.get(cache.node_id)
    if pair is None or not is_stock(cache, net, pair.outgoing):
        return None
    labels = net._inject_labels
    extra = {
        "all_nodes": all_nodes,
        "net_messages": net._messages_counter,
        "net_broadcasts": net._broadcasts_counter,
    }
    for key, kind in (
        ("push_gets", MessageType.GETS),
        ("push_getm", MessageType.GETM),
        ("push_putm", MessageType.PUTM),
    ):
        label = labels.get(kind)
        if label is None:
            # Fill the network's own memo so pure and compiled sends of this
            # type share the one label object.
            label = labels[kind] = f"ordered-inject:{kind}"
        extra[key] = ext.LinkPush(
            net.scheduler, pair.outgoing, net._enter_switch_callback, label
        )
    return 1, extra


def compile_mem_serve(memory_controller, ext):
    """A C ``MemServe`` data-serve entry for the home memory, or None.

    Replaces the Python re-entry the compiled home serve previously made for
    the memory-is-owner DATA reply: the C object mirrors
    :meth:`MemoryControllerBase._send_data` (pooled message build, the
    ``data_responses``/``memory_responses`` counts and the DRAM-delayed
    unordered send) while the directory bookkeeping stays in the compiled
    handler.  Only offered for the exact stock memory controller shape; any
    customisation keeps the per-message Python call, which is always
    faithful.
    """
    from ..dispatch import inject_issue_singletons  # noqa: PLC0415

    mem = memory_controller
    if not is_stock(mem, Message) or "_unordered_send" not in vars(mem):
        return None
    scheduler = mem.scheduler
    if mem._schedule_after_fast1 != scheduler.schedule_after_fast1:
        return None
    arena = mem._arena
    if arena is not None:
        if not is_stock(arena):
            return None
        if (
            getattr(mem._new_message, "__self__", None) is not arena
            or mem._new_message.__func__ is not SimulationArena.message
        ):
            return None
        msg_pool = arena._messages
    else:
        if mem._new_message is not Message:
            return None
        msg_pool = None
    inject_issue_singletons(ext)
    return ext.MemServe(
        controller=mem,
        scheduler=scheduler,
        src=mem.node_id,
        unordered_send=mem._unordered_send,
        data_label=mem._memory_data_label,
        msg_cls=Message,
        msg_id_next=_message_ids.__next__,
        msg_pool=msg_pool,
    )
