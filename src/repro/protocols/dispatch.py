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
#: builder receives it via ``_init_protocol`` so recycled messages carry the
#: very same object a pure construction would.
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


def handler_accelerator(owner):
    """The extension module when compiled protocol objects apply, else None.

    Compiled fast paths are keyed off ``owner``'s *scheduler instance*
    (exactly like the interconnect's C closures): a controller or sequencer
    wired to a compiled scheduler gets C objects, one wired to a pure
    scheduler keeps the reference Python code — so pure and compiled
    systems interoperate in one process.  Injects the protocol singletons
    the C side compares by identity (idempotent; it must precede the
    construction of any compiled protocol object, which the C side refuses
    otherwise).  :func:`issue_accelerator` builds on it.
    """
    scheduler = getattr(owner, "scheduler", None)
    if scheduler is None:
        return None
    ext = _core.accelerator_for(scheduler)
    if ext is None:
        return None
    from ..coherence.state import MEMORY_OWNER, MOSIState  # noqa: PLC0415

    ext._init_protocol(
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
    return ext


def inject_stock_classes(ext) -> None:
    """Tell the C side which classes it may update or build by slot.

    Each of ``Counter``, ``RunningMean``, ``Component.count`` and
    ``CacheBlock`` is passed only while its class is stock
    (:func:`repro._core.is_stock`); a patched one is passed as None, so the
    C side calls the Python method (or constructor) instead.  Runs from
    :func:`issue_accelerator` and :func:`compile_data_reply`, so at least
    once per node at the start of every compiled run; a class patched later
    fails the C side's per-call type version check instead.
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


def arena_pools(controller, transactions: bool = False):
    """The arena free lists the C allocation pops for ``controller``, or None.

    The compiled objects allocate as the controller's prebound
    ``_new_message`` (and, with ``transactions``, ``_new_transaction``)
    does: from a stock arena those must be that arena's own methods, and
    the C side pops the same free lists; without an arena they must be the
    plain constructors, and the pools are None.  Returns the ``msg_pool``
    (and ``txn_pool``) kwargs, or None for any other shape, which only the
    Python allocation mirrors.
    """
    makers = [(controller._new_message, Message, SimulationArena.message)]
    if transactions:
        makers.append(
            (controller._new_transaction, Transaction, SimulationArena.transaction)
        )
    arena = controller._arena
    if arena is None:
        if any(bound is not cls for bound, cls, _ in makers):
            return None
    elif not _core.is_stock(arena) or any(
        getattr(bound, "__self__", None) is not arena
        or getattr(bound, "__func__", None) is not method
        for bound, _, method in makers
    ):
        return None
    pools = {"msg_pool": None if arena is None else arena._messages}
    if transactions:
        pools["txn_pool"] = None if arena is None else arena._transactions
    return pools


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
    arena (:func:`arena_pools`); on any customisation the entry that would
    hold it declines whole.  ``ext`` comes from :func:`handler_accelerator`,
    so the protocol singletons are already injected.
    """
    from ..interconnect.message import _message_ids  # noqa: PLC0415

    if not _core.is_stock(controller, Message) or "_unordered_send" not in vars(
        controller
    ):
        return None
    scheduler = controller.scheduler
    if controller._schedule_after_fast1 != scheduler.schedule_after_fast1:
        return None
    pools = arena_pools(controller)
    if pools is None:
        return None
    inject_stock_classes(ext)
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
        from_memory=from_memory,
        data_counter=None if from_memory else controller._ctr_data_responses,
        **pools,
    )


def issue_accelerator(sequencer):
    """The extension module when the compiled issue chain applies, else None.

    :func:`handler_accelerator` plus :func:`inject_stock_classes`.
    """
    ext = handler_accelerator(sequencer)
    if ext is not None:
        inject_stock_classes(ext)
    return ext


def note_issue_selection(sequencer, status: str, source_status: str = "") -> None:
    """Record one per-node issue-chain decision and its source decision.

    ``Sequencer<N>.step`` says whether the C step runs, the protocol's
    ``_send_*`` body included; ``Sequencer<N>.workload`` whether it also
    draws the workload's next reference and counts its completion in C
    (source modes 1-2) rather than calling the bound ``next_operation`` /
    ``on_complete`` (source mode 0).  A declined step declines both.
    """
    node = sequencer.node_id
    _core.note_handler_selection(f"Sequencer{node}.step", status)
    _core.note_handler_selection(
        f"Sequencer{node}.workload", source_status or status
    )


def compile_issue_source(sequencer):
    """The workload's ``(source mode, kwargs)`` for the C step, or None.

    Dispatches on the workload's exact class to the workload module's own
    ``compile_issue_source``: the stationary Zipfian traffic
    (:mod:`repro.workloads.traffic`, mode 1) and the locking
    microbenchmark (:mod:`repro.workloads.microbenchmark`, mode 2).  Any
    other workload keeps source mode 0, the bound Python calls.
    """
    from ..workloads import microbenchmark, traffic  # noqa: PLC0415

    workload = sequencer.workload
    kind = type(workload)
    if kind is traffic.TrafficWorkload:
        return traffic.compile_issue_source(workload, sequencer)
    if kind is microbenchmark.LockingMicrobenchmark:
        return microbenchmark.compile_issue_source(workload, sequencer)
    return None


def compile_sequencer_step(sequencer):
    """A C ``SequencerStep`` fusing the per-reference chain, or None.

    The returned object replaces ``Sequencer._perform`` as the scheduled
    delivery entry for one node: block probe, hit test, eviction, the
    GETS/GETM/PUTM issue (transaction allocation, MSHR insert, counters and
    the protocol's ``_send_*`` body) and the completion/refetch bookkeeping
    all run in C.  The message then goes to the controller's own bound
    ``_ordered_send``/``_unordered_send``, the callable the pure
    ``_send_*`` bodies call, so the network side needs no check of its own.
    For a stock stationary :class:`~repro.workloads.traffic.TrafficWorkload`
    or :class:`~repro.workloads.microbenchmark.LockingMicrobenchmark` the
    step also makes the next reference and counts each completion in C
    (:func:`compile_issue_source`), drawing from the workload's own RNG and
    dicts; the first fetch in ``Sequencer.start``, every bail and every
    declined node use the Python methods on that same state.
    Selection follows the compiled-handler contract: per node, unpatched
    stock objects only (:func:`repro._core.is_stock`), with the pure
    implementation remaining the executable specification — any unusual
    shape (subclass, class or instance patch, swapped workload entry point,
    non-stock arena, a send body the C step does not mirror) declines to the
    pure path for that node, recorded via :func:`note_issue_selection`.

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
    pools = arena_pools(cache, transactions=True)
    if pools is None:
        return decline()
    # The protocol's send body in C: mode 1 (snooping broadcast), mode 2
    # (directory unicast) or mode 3 (BASH adaptive broadcast/dualcast), when
    # the protocol-side objects it mirrors are stock; else the whole step
    # declines.
    if cache_cls is SnoopingCacheController:
        send = snooping_issue_send(cache)
    elif cache_cls is DirectoryCacheController:
        send = directory_issue_send(cache)
    else:
        send = bash_issue_send(cache)
    if send is None:
        return decline()
    send_mode, extra = send
    # The directory controller prebinds its request size at construction;
    # its helper supplies that binding so the compiled build matches it.
    request_bytes = extra.pop("request_bytes", config.request_message_bytes)
    # The workload's next reference and completion count in C (source
    # modes 1-2) when the workload is one the C step mirrors, else the
    # bound Python calls (mode 0).
    source = compile_issue_source(sequencer)
    source_mode, source_extra = source if source is not None else (0, {})
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
        source_mode=source_mode,
        **pools,
        **extra,
        **source_extra,
    )
    note_issue_selection(
        sequencer, "compiled", "compiled" if source_mode else "declined"
    )
    return step
