"""Shared machinery for the Snooping, Directory and BASH controllers.

Each node owns one :class:`CacheControllerBase` subclass (driven by the
processor's sequencer) and one :class:`MemoryControllerBase` subclass (the home
for a slice of the interleaved physical memory).  The base classes provide the
pieces the paper's protocols have in common: MSHR bookkeeping, data responses
with the published latencies, block stores, directory stores, and the
statistics every experiment reports (miss latency, sharing misses, message
counts).

Message handling is table-driven (see :mod:`repro.protocols.dispatch`): each
subclass declares ``ORDERED_HANDLERS`` / ``UNORDERED_HANDLERS`` maps from
message type to method name, compiled into bound-method tables at
construction.  The networks index those tables directly, so there is no
``handle_ordered``/``handle_unordered`` indirection on the delivery path;
:meth:`dispatch_ordered` / :meth:`dispatch_unordered` remain as the generic
entry points for tests and tools that deliver messages by hand.
"""

from __future__ import annotations

from typing import ClassVar, Dict, Mapping, Optional

from .._core import stock
from ..common.config import SystemConfig
from ..common.stats import StatsRegistry
from ..coherence.cache_state import CacheBlockStore
from ..coherence.directory import DirectoryStore
from ..coherence.state import MOSIState
from ..coherence.transaction import CompletionCallback, Transaction
from ..errors import ProtocolError
from ..interconnect.message import DestinationUnit, Message, MessageType
from ..interconnect.network import Interconnect
from ..sim.component import Component
from ..sim.scheduler import Scheduler
from .dispatch import HandlerTable, compile_handlers, reject


@stock
class ProtocolController(Component):
    """Common construction for both controller kinds: compiled dispatch tables
    and the prebound hot-path callables the per-message pipeline uses."""

    #: Declarative dispatch specs; subclasses override.  A message type absent
    #: from a spec is explicitly rejected through the shared error path.
    ORDERED_HANDLERS: ClassVar[Mapping[MessageType, str]] = {}
    UNORDERED_HANDLERS: ClassVar[Mapping[MessageType, str]] = {}

    def __init__(
        self,
        name: str,
        node_id: int,
        config: SystemConfig,
        interconnect: Interconnect,
        scheduler: Scheduler,
        stats: StatsRegistry,
    ) -> None:
        super().__init__(name, scheduler, stats)
        self.node_id = node_id
        self.config = config
        self.interconnect = interconnect
        # Compiled dispatch tables: message type -> bound handler.
        self.ordered_handlers: HandlerTable = compile_handlers(
            self, self.ORDERED_HANDLERS
        )
        self.unordered_handlers: HandlerTable = compile_handlers(
            self, self.UNORDERED_HANDLERS
        )
        # Hot-path prebinds: attribute chains and bound-method allocations cost
        # real time at hundreds of thousands of events per second.
        # The networks' sends: their C twins on a compiled scheduler with
        # stock networks, else the bound methods.
        self._unordered_send = interconnect.unordered._send_callback
        self._ordered_send = interconnect.ordered._send_callback
        self._schedule_after_fast1 = scheduler.schedule_after_fast1
        latency = config.latency
        self._dram_latency = latency.dram_access
        self._cache_response_latency = latency.cache_response
        # Pooled allocation: when a SimulationArena rides on the scheduler,
        # unordered (single-delivery) messages and completed transactions are
        # recycled through its free lists; without one these prebinds are the
        # plain constructors.
        arena = getattr(scheduler, "arena", None)
        self._arena = arena
        self._new_message = Message if arena is None else arena.message
        # Home interleaving is fixed per (node count, block size), both of
        # which are structural — the memo survives system resets.
        self._home_memo: Dict[int, int] = {}

    def reset_state(self, config: SystemConfig) -> None:
        """Re-arm this controller for a fresh run under ``config``.

        Structural parameters (protocol, node count, message sizes, block
        size) must match the constructed system; per-point knobs (bandwidth,
        adaptive parameters, cache capacity, seed) may differ.  Subclasses
        extend this with their own mutable state.
        """
        self.config = config
        latency = config.latency
        self._dram_latency = latency.dram_access
        self._cache_response_latency = latency.cache_response
        self.reset_stat_caches()

    # ------------------------------------------------------ generic dispatch

    def dispatch_ordered(self, message: Message) -> None:
        """Deliver one totally-ordered message through the dispatch table."""
        handler = self.ordered_handlers.get(message.msg_type)
        if handler is None:
            reject(self, "ordered", message)
        handler(message)

    def dispatch_unordered(self, message: Message) -> None:
        """Deliver one point-to-point message through the dispatch table."""
        handler = self.unordered_handlers.get(message.msg_type)
        if handler is None:
            reject(self, "unordered", message)
        handler(message)

    # --------------------------------------------------------------- helpers

    def home_of(self, address: int) -> int:
        """Home node for ``address`` (memoised; the interleaving is fixed)."""
        home = self._home_memo.get(address)
        if home is None:
            home = self._home_memo[address] = self.config.home_node(address)
        return home


@stock
class CacheControllerBase(ProtocolController):
    """Common cache-side behaviour: MSHRs, completion, data responses."""

    def __init__(
        self,
        node_id: int,
        config: SystemConfig,
        interconnect: Interconnect,
        scheduler: Scheduler,
        stats: StatsRegistry,
    ) -> None:
        super().__init__(
            f"cache{node_id}", node_id, config, interconnect, scheduler, stats
        )
        self.blocks = CacheBlockStore(config.cache_capacity_blocks)
        self.transactions: Dict[int, Transaction] = {}
        self.writebacks: Dict[int, Transaction] = {}
        self._data_response_label = self.full_label("data-response")
        # Per-request statistics handles, resolved once (registry lookups cost
        # a dict probe plus string hash each, paid per protocol message
        # otherwise).
        stat = self.stats
        self._ctr_requests = stat.counter(self.stat_name("requests"))
        self._ctr_requests_gets = stat.counter(self.stat_name("requests.gets"))
        self._ctr_requests_getm = stat.counter(self.stat_name("requests.getm"))
        self._ctr_data_responses = stat.counter(self.stat_name("data_responses"))
        self._miss_latency_mean = stat.running_mean(self.stat_name("miss_latency"))
        self._system_miss_latency = stat.running_mean("system.miss_latency")
        self._blocks_get = self.blocks.get
        self._blocks_lookup = self.blocks.lookup
        arena = self._arena
        self._new_transaction = Transaction if arena is None else arena.transaction

    def reset_state(self, config: SystemConfig) -> None:
        """Reset cache-side state: blocks, MSHRs, and in-flight writebacks.

        The MSHR dicts are cleared in place — the sequencer prebinds direct
        references to them.
        """
        super().reset_state(config)
        self.blocks.reset(config.cache_capacity_blocks)
        self.transactions.clear()
        self.writebacks.clear()

    # ------------------------------------------------------------------ API

    def state_of(self, address: int) -> MOSIState:
        """Stable MOSI state of ``address`` in this cache."""
        return self.blocks.state_of(address)

    def has_outstanding(self, address: int) -> bool:
        """True when a request or writeback for ``address`` is in flight."""
        return address in self.transactions or address in self.writebacks

    def issue_request(
        self,
        address: int,
        kind: MessageType,
        callback: Optional[CompletionCallback] = None,
        store_token: int = 0,
    ) -> Transaction:
        """Start a GETS or GETM transaction for ``address``.

        The caller must not have another request outstanding for the same
        address; the processor model in the paper is blocking with one
        outstanding request, which the sequencer enforces.
        """
        if kind is not MessageType.GETS and kind is not MessageType.GETM:
            raise ProtocolError(f"issue_request only accepts GETS/GETM, got {kind}")
        if address in self.transactions:
            raise ProtocolError(
                f"node {self.node_id} already has a request outstanding for "
                f"address 0x{address:x}"
            )
        block = self._blocks_get(address)
        state = MOSIState.INVALID if block is None else block.state
        if kind is MessageType.GETS and state.has_valid_data:
            raise ProtocolError(
                f"GETS issued for address 0x{address:x} already valid ({state})"
            )
        if kind is MessageType.GETM and state.can_write:
            raise ProtocolError(
                f"GETM issued for address 0x{address:x} already writable ({state})"
            )
        transaction = self._new_transaction(
            address=address,
            kind=kind,
            requester=self.node_id,
            issue_time=self.scheduler.now,
            store_token=store_token,
            completion_callback=callback,
        )
        self.transactions[address] = transaction
        self._ctr_requests._count += 1
        if kind is MessageType.GETM:
            self._ctr_requests_getm._count += 1
        else:
            self._ctr_requests_gets._count += 1
        self._send_request(transaction)
        return transaction

    def issue_writeback(
        self, address: int, callback: Optional[CompletionCallback] = None
    ) -> Transaction:
        """Start a PUTM transaction writing an owned block back to memory."""
        state = self.state_of(address)
        if not state.is_owner:
            raise ProtocolError(
                f"writeback issued for address 0x{address:x} not owned ({state})"
            )
        if address in self.writebacks:
            raise ProtocolError(
                f"node {self.node_id} already has a writeback outstanding for "
                f"address 0x{address:x}"
            )
        transaction = self._new_transaction(
            address=address,
            kind=MessageType.PUTM,
            requester=self.node_id,
            issue_time=self.now,
            expects_data=False,
            completion_callback=callback,
        )
        self.writebacks[address] = transaction
        self.count("writebacks")
        self._send_writeback(transaction)
        return transaction

    # ------------------------------------------------------- protocol hooks

    def _send_request(self, transaction: Transaction) -> None:
        """Put the request on the network (protocol specific)."""
        raise NotImplementedError

    def _send_writeback(self, transaction: Transaction) -> None:
        """Put the writeback on the network (protocol specific)."""
        raise NotImplementedError

    # --------------------------------------------------------------- helpers

    def _send_data(
        self,
        address: int,
        dest: int,
        data_token: int,
        transaction_id: int,
        from_memory: bool = False,
    ) -> None:
        """Send a data response after the appropriate lookup latency."""
        latency = (
            self._dram_latency if from_memory else self._cache_response_latency
        )
        message = self._new_message(
            msg_type=MessageType.DATA,
            src=self.node_id,
            dest=dest,
            dest_unit=DestinationUnit.CACHE,
            address=address,
            size_bytes=self.config.data_message_bytes,
            requester=dest,
            transaction_id=transaction_id,
            data_token=data_token,
            issue_time=self.now,
        )
        self._ctr_data_responses._count += 1
        self._schedule_after_fast1(
            latency, self._unordered_send, message, self._data_response_label
        )

    def _complete(self, transaction: Transaction) -> None:
        """Mark a transaction complete and notify its issuer."""
        if transaction.completed:
            return
        transaction.completed = True
        now = transaction.completion_time = self.scheduler.now
        if transaction.kind is MessageType.PUTM:
            self.writebacks.pop(transaction.address, None)
        else:
            self.transactions.pop(transaction.address, None)
            latency = now - transaction.issue_time
            self._miss_latency_mean.record(latency)
            self._system_miss_latency.record(latency)
        if transaction.completion_callback is not None:
            transaction.completion_callback(transaction)
        # The MSHR entry is popped and the issuer notified: no live reference
        # outlives the enclosing handler, so the arena may recycle the object.
        # (Re-acquisition cannot happen within this call stack — the next
        # issue_request always runs from a later scheduled event.)
        if self._arena is not None:
            self._arena.release_transaction(transaction)


@stock
class MemoryControllerBase(ProtocolController):
    """Common memory-side behaviour: directory store and data responses.

    A memory controller acts on an ordered delivery only when it is the home
    for the address (the Directory home consumes nothing ordered at all), so
    the node's ordered entries skip it for foreign addresses through the
    controller's home memo (:meth:`ProtocolController.home_of`).
    """

    def __init__(
        self,
        node_id: int,
        config: SystemConfig,
        interconnect: Interconnect,
        scheduler: Scheduler,
        stats: StatsRegistry,
    ) -> None:
        super().__init__(
            f"memory{node_id}", node_id, config, interconnect, scheduler, stats
        )
        self.directory = DirectoryStore()
        self._memory_data_label = self.full_label("memory-data")

    def is_home_for(self, address: int) -> bool:
        """True when this controller is the home for ``address``."""
        home = self._home_memo.get(address)
        if home is None:
            home = self.home_of(address)
        return home == self.node_id

    def reset_state(self, config: SystemConfig) -> None:
        """Reset memory-side state: every directory entry reverts to memory-owned."""
        super().reset_state(config)
        self.directory.clear()

    def _send_data(
        self, address: int, dest: int, data_token: int, transaction_id: int
    ) -> None:
        """Send a data response after the DRAM access latency."""
        message = self._new_message(
            msg_type=MessageType.DATA,
            src=self.node_id,
            dest=dest,
            dest_unit=DestinationUnit.CACHE,
            address=address,
            size_bytes=self.config.data_message_bytes,
            requester=dest,
            transaction_id=transaction_id,
            data_token=data_token,
            issue_time=self.now,
        )
        self.count("data_responses")
        self._schedule_after_fast1(
            self._dram_latency, self._unordered_send, message, self._memory_data_label
        )

