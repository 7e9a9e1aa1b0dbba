"""One integrated processor/memory node.

The node merges its two controllers' compiled dispatch tables (see
:mod:`repro.protocols.dispatch`) into per-message-type *delivery entries* —
single callables the interconnect indexes and schedules directly, so a fired
delivery event lands in the protocol handler with no intermediate
``deliver_*``/``handle_*`` frames.  :meth:`deliver_ordered` and
:meth:`deliver_unordered` remain as the generic entry points (tests and tools
deliver messages by hand through them); both just index the same compiled
entries.

An ordered entry has one pure shape: the cache controller's handler (every
node snoops every ordered request), then — only at the address's home — the
memory controller's handler, with the home read from the memory controller's
own memo (:meth:`ProtocolController.home_of`).  A compiled backend may
substitute a C delivery object for a wholly stock entry; it computes the
same home with the stock block-interleaved arithmetic.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from ..interconnect.message import DestinationUnit, Message, MessageType
from ..protocols.base import CacheControllerBase, MemoryControllerBase
from ..protocols.dispatch import rejecter
from .sequencer import Sequencer

#: A compiled delivery entry: one callable handling one message type.
DeliveryEntry = Callable[[Message], None]


class Node:
    """A processor core, its cache controller, and its slice of memory.

    The node owns a single endpoint link to the interconnect (modelled in
    :mod:`repro.interconnect.link`); messages delivered over that link are
    dispatched through the compiled entries to the cache controller, the
    memory controller, or both.
    """

    def __init__(
        self,
        node_id: int,
        cache_controller: CacheControllerBase,
        memory_controller: MemoryControllerBase,
        sequencer: Sequencer,
    ) -> None:
        self.node_id = node_id
        self.cache_controller = cache_controller
        self.memory_controller = memory_controller
        self.sequencer = sequencer
        self._ordered_entries: Dict[MessageType, DeliveryEntry] = {}
        self._unordered_entries: Dict[
            Tuple[DestinationUnit, MessageType], DeliveryEntry
        ] = {}
        #: Callbacks that drop downstream caches of this node's entries.  The
        #: networks append their own cache-clearers here when the node is
        #: registered as a dispatcher, so one invalidation call reaches every
        #: compiled copy of a handler.
        self.dispatch_cache_invalidators: list = []

    # -------------------------------------------------------- compiled entries

    def ordered_entry(self, msg_type: MessageType) -> DeliveryEntry:
        """The compiled delivery entry for one ordered message type.

        Every ordered request reaches both controllers on the node: the cache
        controller snoops it, and the memory controller acts when it is the
        home for the address (and registers a handler for the type at all —
        the Directory home consumes nothing ordered, so its entries collapse
        to the bare cache handler).  Message types neither controller
        registers compile to the shared rejection path, raised when the
        delivery event fires.
        """
        entry = self._ordered_entries.get(msg_type)
        if entry is None:
            entry = self._ordered_entries[msg_type] = self._compile_ordered(msg_type)
        return entry

    def unordered_entry(
        self, dest_unit: DestinationUnit, msg_type: MessageType
    ) -> DeliveryEntry:
        """The compiled delivery entry for one point-to-point message type."""
        key = (dest_unit, msg_type)
        entry = self._unordered_entries.get(key)
        if entry is None:
            if dest_unit is DestinationUnit.CACHE:
                controller = self.cache_controller
            else:
                controller = self.memory_controller
            handler = None
            # A compiled backend may offer a C delivery object for this
            # entry (same per-handler decline rule as the ordered path).
            compile_accelerated = getattr(
                controller, "compile_accelerated_unordered", None
            )
            if compile_accelerated is not None:
                handler = compile_accelerated(msg_type)
            if handler is None:
                handler = controller.unordered_handlers.get(msg_type)
            if handler is None:
                handler = rejecter(controller, "unordered")
            entry = self._unordered_entries[key] = handler
        return entry

    def _compile_ordered(self, msg_type: MessageType) -> DeliveryEntry:
        memory = self.memory_controller
        # A compiled backend may offer a C delivery object for this entry
        # (the coherence fast paths); protocols decline per handler —
        # returning None — whenever their dispatch tables have been
        # customised, falling through to the table-driven entry below, which
        # stays authoritative.
        compile_accelerated = getattr(
            self.cache_controller, "compile_accelerated_ordered", None
        )
        if compile_accelerated is not None:
            accelerated = compile_accelerated(msg_type, memory)
            if accelerated is not None:
                return accelerated
        cache_handler = self.cache_controller.ordered_handlers.get(msg_type)
        if cache_handler is None:
            cache_handler = rejecter(self.cache_controller, "ordered")
        memory_handler = memory.ordered_handlers.get(msg_type)
        if memory_handler is None:
            # The memory side ignores this type: deliver to the cache alone.
            return cache_handler
        # Memory acts on an ordered request only at its home (the paper's
        # integrated nodes), so the entry pre-filters with the memory
        # controller's own home memo instead of paying a call per delivery.
        home_memo_get = memory._home_memo.get
        home_of = memory.home_of
        node_id = memory.node_id

        def deliver_home_filtered(message: Message) -> None:
            cache_handler(message)
            address = message.address
            home = home_memo_get(address)
            if home is None:
                home = home_of(address)
            if home == node_id:
                memory_handler(message)

        return deliver_home_filtered

    # ---------------------------------------------------------- generic path

    def deliver_ordered(self, message: Message) -> None:
        """Dispatch a totally ordered (request network) delivery."""
        self.ordered_entry(message.msg_type)(message)

    def deliver_unordered(self, message: Message) -> None:
        """Dispatch a point-to-point delivery to the targeted controller."""
        self.unordered_entry(message.dest_unit, message.msg_type)(message)

    def invalidate_dispatch_cache(self) -> None:
        """Drop compiled entries (after swapping a handler table in tests).

        Also clears the networks' per-``(type, node)`` delivery caches, which
        hold resolved copies of these entries.
        """
        self._ordered_entries.clear()
        self._unordered_entries.clear()
        for invalidate in self.dispatch_cache_invalidators:
            invalidate()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.node_id})"
