"""Table-driven message dispatch shared by every protocol controller.

Each controller class declares, per virtual network, which
:class:`~repro.interconnect.message.MessageType` values it handles and which
method implements each one::

    class DirectoryCacheController(CacheControllerBase):
        ORDERED_HANDLERS = {
            MessageType.MARKER: "_handle_marker",
            MessageType.FWD_GETS: "_handle_forward",
            ...
        }

At construction the declarations are *compiled* into tables of bound methods
(:func:`compile_handlers`), so delivering a message is a single dictionary
index — no ``isinstance`` checks, no enum ``if``/``elif`` chains, and no
intermediate ``handle_*`` method between the network and the protocol logic.
:class:`~repro.system.node.Node` merges the two controllers' tables into the
per-node delivery entries the networks index directly.

A message type absent from a controller's table is an *explicit rejection*:
delivery fails loudly through the one shared error path (:func:`reject`),
which every controller and both networks share.  The exhaustiveness test in
``tests/protocols/test_dispatch_engine.py`` walks every controller class and
every message type to pin the handled/rejected split.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, NoReturn

import inspect

from .. import _core
from ..coherence.block import CacheBlock
from ..coherence.transaction import Transaction
from ..errors import ProtocolError
from ..interconnect.message import DestinationUnit, Message, MessageType
from ..sim.arena import SimulationArena

#: A compiled dispatch table: message type -> bound handler.
HandlerTable = Dict[MessageType, Callable[[Message], None]]


#: ``Message.__init__``'s default recipients frozenset — a singleton shared by
#: every message built without an explicit recipient set.  The C message
#: builder receives it via ``_init_issue`` so recycled messages carry the very
#: same object a pure construction would.
_EMPTY_RECIPIENTS = inspect.signature(Message.__init__).parameters[
    "recipients"
].default


def compile_handlers(
    controller: object, spec: Mapping[MessageType, str]
) -> HandlerTable:
    """Bind a declarative ``{message type: method name}`` spec to an instance.

    Raises :class:`ProtocolError` when a declared method does not exist, so a
    typo in a handler declaration fails at construction rather than at the
    first delivery of that message type.
    """
    table: HandlerTable = {}
    for msg_type, method_name in spec.items():
        handler = getattr(controller, method_name, None)
        if handler is None:
            raise ProtocolError(
                f"{type(controller).__name__} declares {msg_type} -> "
                f"{method_name!r} but has no such method"
            )
        table[msg_type] = handler
    return table


def handler_accelerator(controller):
    """The extension module when compiled delivery entries apply, else None.

    Compiled handler fast paths are keyed off the controller's *scheduler
    instance* (exactly like the interconnect's C closures): a controller
    wired to a compiled scheduler gets C delivery objects, one wired to a
    pure scheduler keeps the reference Python entries — so pure and
    compiled systems interoperate in one process.  Injects the protocol
    singletons the C side compares by identity on first use.
    """
    scheduler = getattr(controller, "scheduler", None)
    if scheduler is None:
        return None
    ext = _core.accelerator_for(scheduler)
    if ext is None:
        return None
    from ..coherence.state import MEMORY_OWNER, MOSIState  # noqa: PLC0415

    ext._init_protocol(
        MessageType.GETS,
        MessageType.GETM,
        MessageType.FWD_GETS,
        MessageType.FWD_GETM,
        MOSIState.MODIFIED,
        MOSIState.OWNED,
        MOSIState.SHARED,
        MOSIState.INVALID,
        MEMORY_OWNER,
    )
    return ext


def inject_stock_classes(ext) -> None:
    """Tell the C side which classes it may update or build by slot.

    Each of ``Counter``, ``RunningMean``, ``Component.count`` and
    ``CacheBlock`` is passed only while its class is stock
    (:func:`repro._core.is_stock`); a patched one is passed as None, so the
    C side calls the Python method (or constructor) instead.  Runs with
    :func:`inject_issue_singletons`, so at least once per node at the start
    of every compiled run; a class patched later fails the C side's
    per-call type version check instead.
    """
    from ..common.stats import Counter, RunningMean  # noqa: PLC0415
    from ..sim.component import Component  # noqa: PLC0415

    ext._init_stock(
        Counter if _core.is_stock(Counter) else None,
        RunningMean if _core.is_stock(RunningMean) else None,
        vars(Component)["count"] if _core.is_stock(Component) else None,
        CacheBlock if _core.is_stock(CacheBlock) else None,
    )


def note_selection(controller: object, msg_type: MessageType, status: str) -> None:
    """Record a per-handler compile/decline decision in the backend registry."""
    _core.note_handler_selection(
        f"{type(controller).__name__}.{msg_type.name}", status
    )


def reject(controller: object, network: str, message: Message) -> NoReturn:
    """The one shared error path for messages no handler is registered for."""
    raise ProtocolError(
        f"{type(controller).__name__}({getattr(controller, 'name', '?')}) "
        f"has no handler for {network} {message.msg_type}"
    )


def rejecter(controller: object, network: str) -> Callable[[Message], None]:
    """A delivery entry that rejects every message through :func:`reject`.

    Compiled into a node's dispatch table in place of a missing handler, so
    an unregistered message type fails loudly *when the delivery event fires*
    (the same point in simulated time a handler would have run).
    """

    def reject_delivery(message: Message) -> NoReturn:
        reject(controller, network, message)

    return reject_delivery


# --------------------------------------------------------------- issue chain


def inject_issue_singletons(ext) -> None:
    """Inject the identity-compared singletons into the issue-chain C layer.

    Idempotent; must run before any ``SequencerStep``, ``MemServe`` or
    ``DirHome`` object is constructed (the C side refuses to build them
    otherwise, so a missed call fails loudly rather than misbehaving).
    """
    from ..coherence.state import MEMORY_OWNER, MOSIState  # noqa: PLC0415

    ext._init_issue(
        MessageType.GETS,
        MessageType.GETM,
        MessageType.PUTM,
        MessageType.DATA,
        MessageType.MARKER,
        MessageType.FWD_GETS,
        MessageType.FWD_GETM,
        MOSIState.MODIFIED,
        MOSIState.OWNED,
        MOSIState.SHARED,
        MOSIState.INVALID,
        DestinationUnit.CACHE,
        DestinationUnit.MEMORY,
        _EMPTY_RECIPIENTS,
        MEMORY_OWNER,
    )
    inject_stock_classes(ext)


def compile_data_reply(controller, ext, from_memory: bool):
    """A C ``MemServe`` for ``controller``'s DATA replies, or None.

    The object mirrors ``_send_data`` plus its ``schedule_after_fast1``
    push: :meth:`MemoryControllerBase._send_data` (``from_memory``: DRAM
    latency, ``_memory_data_label``, ``count("data_responses")``) or
    :meth:`CacheControllerBase._send_data` (cache response latency,
    ``_data_response_label``, ``_ctr_data_responses``).  The compiled
    serves (the Snooping/BASH home and owner, the Directory home and
    forward) send through it.  Only offered for a stock controller whose
    prebound scheduling and allocation still point at the scheduler and
    arena; any customisation keeps the Python reply, which is always
    faithful.
    """
    from ..interconnect.message import _message_ids  # noqa: PLC0415

    if not _core.is_stock(controller, Message) or "_unordered_send" not in vars(
        controller
    ):
        return None
    scheduler = controller.scheduler
    if controller._schedule_after_fast1 != scheduler.schedule_after_fast1:
        return None
    arena = controller._arena
    if arena is not None:
        if not _core.is_stock(arena):
            return None
        if (
            getattr(controller._new_message, "__self__", None) is not arena
            or controller._new_message.__func__ is not SimulationArena.message
        ):
            return None
        msg_pool = arena._messages
    else:
        if controller._new_message is not Message:
            return None
        msg_pool = None
    inject_issue_singletons(ext)
    return ext.MemServe(
        controller=controller,
        scheduler=scheduler,
        src=controller.node_id,
        unordered_send=controller._unordered_send,
        data_label=(
            controller._memory_data_label
            if from_memory
            else controller._data_response_label
        ),
        msg_cls=Message,
        msg_id_next=_message_ids.__next__,
        data_bytes=controller.config.data_message_bytes,
        msg_pool=msg_pool,
        from_memory=from_memory,
        data_counter=None if from_memory else controller._ctr_data_responses,
    )


def issue_accelerator(sequencer):
    """The extension module when the compiled issue chain applies, else None.

    Mirrors :func:`handler_accelerator`: keyed off the sequencer's scheduler
    *instance*, and injects the singletons the C side compares by identity.
    """
    scheduler = getattr(sequencer, "scheduler", None)
    if scheduler is None:
        return None
    ext = _core.accelerator_for(scheduler)
    if ext is None:
        return None
    inject_issue_singletons(ext)
    return ext


def note_issue_selection(sequencer, status: str, send_status: str = "") -> None:
    """Record one per-node issue-chain decision and its send-mode decision.

    ``Sequencer<N>.step`` says whether the C step runs; ``Sequencer<N>.send``
    whether it also inlines the protocol's send (modes 1-3) rather than
    calling the bound Python ``_send_*`` methods (mode 0).  A declined step
    declines its send too.
    """
    node = sequencer.node_id
    _core.note_handler_selection(f"Sequencer{node}.step", status)
    _core.note_handler_selection(f"Sequencer{node}.send", send_status or status)


def compile_sequencer_step(sequencer):
    """A C ``SequencerStep`` fusing the per-reference chain, or None.

    The returned object replaces ``Sequencer._perform`` as the scheduled
    delivery entry for one node: block probe, hit test, eviction, the
    GETS/GETM/PUTM issue (transaction allocation, MSHR insert, counters,
    message build and network injection) and the completion/refetch
    bookkeeping all run in C.  Selection follows the compiled-handler
    contract: per node, unpatched stock objects only
    (:func:`repro._core.is_stock`), with the pure implementation remaining
    the executable specification — any unusual shape (subclass, class or
    instance patch, swapped workload entry point, non-stock arena or
    network) declines to the pure path for that node, recorded via
    :func:`note_issue_selection`.

    Called from ``Sequencer.start`` once per run, so constants baked into the
    C object (capacity, block size, message sizes) are re-derived after every
    reset.
    """
    ext = issue_accelerator(sequencer)
    if ext is None:
        return None
    from ..workloads.base import Workload  # noqa: PLC0415
    from .bash.cache_controller import (  # noqa: PLC0415
        BashCacheController,
        compile_issue_send as bash_issue_send,
    )
    from .directory.cache_controller import (  # noqa: PLC0415
        DirectoryCacheController,
        compile_issue_send as directory_issue_send,
    )
    from .snooping.cache_controller import (  # noqa: PLC0415
        SnoopingCacheController,
        compile_issue_send as snooping_issue_send,
    )

    def decline():
        note_issue_selection(sequencer, "declined")
        return None

    cache = sequencer.cache
    cache_cls = type(cache)
    if cache_cls not in (
        SnoopingCacheController,
        BashCacheController,
        DirectoryCacheController,
    ) or not _core.is_stock(
        sequencer, cache, cache.blocks, Transaction, CacheBlock, Message
    ):
        return decline()
    workload = sequencer.workload
    if "next_operation" in vars(workload) or "on_complete" in vars(workload):
        return decline()
    scheduler = sequencer.scheduler
    config = sequencer.config
    blocks = cache.blocks
    # The C step reads state through its own prebinds; if the sequencer's
    # prebound fast paths no longer point at the live containers (a test
    # rewired them by hand), the pure methods are the only faithful shape.
    if (
        sequencer._blocks_get != blocks.get
        or sequencer._blocks_is_full != blocks.is_full
        or sequencer._blocks_eviction_candidate != blocks.eviction_candidate
        or sequencer._blocks_drop != blocks.drop
        or sequencer._transactions is not cache.transactions
        or sequencer._writebacks is not cache.writebacks
        or sequencer._next_operation != workload.next_operation
        or sequencer._on_complete != workload.on_complete
        or sequencer._schedule_after_fast1 != scheduler.schedule_after_fast1
        or sequencer._block_bytes != config.cache_block_bytes
    ):
        return decline()
    block_bytes = sequencer._block_bytes
    capacity = blocks.capacity_blocks
    if block_bytes < 1 or capacity < 1:
        return decline()
    # Allocation: either the stock arena's free lists (popped C-side) or the
    # plain constructors; anything else keeps the pure issue path.
    arena = cache._arena
    if arena is not None:
        if not _core.is_stock(arena):
            return decline()
        if (
            getattr(cache._new_transaction, "__self__", None) is not arena
            or cache._new_transaction.__func__ is not SimulationArena.transaction
            or getattr(cache._new_message, "__self__", None) is not arena
            or cache._new_message.__func__ is not SimulationArena.message
        ):
            return decline()
        txn_pool = arena._transactions
        msg_pool = arena._messages
    else:
        if (
            cache._new_transaction is not Transaction
            or cache._new_message is not Message
        ):
            return decline()
        txn_pool = msg_pool = None
    # Protocol-specific send inlining: mode 1 (snooping broadcast), mode 2
    # (directory unicast) or mode 3 (BASH adaptive broadcast/dualcast) when
    # the whole send pipeline is stock, else mode 0 (C bookkeeping, bound
    # Python _send_* call — always faithful).
    if cache_cls is SnoopingCacheController:
        send = snooping_issue_send(cache, ext)
    elif cache_cls is DirectoryCacheController:
        send = directory_issue_send(cache, ext)
    else:
        send = bash_issue_send(cache, ext)
    send_mode, extra = send if send is not None else (0, {})
    # The directory controller prebinds its request size at construction;
    # its helper supplies that binding so the compiled build matches it.
    request_bytes = extra.pop("request_bytes", config.request_message_bytes)
    # Workload.on_complete is an empty hook; elide the call when it is
    # untouched so the hot path skips a Python frame per reference.
    on_complete = sequencer._on_complete
    if type(workload).on_complete is Workload.on_complete:
        on_complete = None
    from ..coherence.transaction import _transaction_ids  # noqa: PLC0415
    from ..interconnect.message import _message_ids  # noqa: PLC0415

    step = ext.SequencerStep(
        sequencer=sequencer,
        scheduler=scheduler,
        cache=cache,
        node_id=sequencer.node_id,
        block_bytes=block_bytes,
        capacity=capacity,
        blocks=blocks._blocks,
        transactions=cache.transactions,
        writebacks=cache.writebacks,
        perform=sequencer._perform,
        finish_stream=sequencer._finish_stream,
        next_operation=sequencer._next_operation,
        schedule_after=sequencer._schedule_after_fast1,
        send_request=cache._send_request,
        send_writeback=cache._send_writeback,
        perform_label=sequencer._perform_label,
        retry_label=sequencer._retry_label,
        ctr_hits=sequencer._ctr_hits,
        ctr_misses=sequencer._ctr_misses,
        sys_operations=sequencer._sys_operations,
        sys_instructions=sequencer._sys_instructions,
        ctr_requests=cache._ctr_requests,
        ctr_requests_gets=cache._ctr_requests_gets,
        ctr_requests_getm=cache._ctr_requests_getm,
        txn_cls=Transaction,
        txn_id_next=_transaction_ids.__next__,
        msg_cls=Message,
        msg_id_next=_message_ids.__next__,
        request_bytes=request_bytes,
        send_mode=send_mode,
        on_complete=on_complete,
        txn_pool=txn_pool,
        msg_pool=msg_pool,
        **extra,
    )
    note_issue_selection(
        sequencer, "compiled", "compiled" if send_mode else "declined"
    )
    return step
