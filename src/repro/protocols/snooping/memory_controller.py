"""Memory-side controllers for the ordered-request-network protocols.

:class:`OrderedHomeMemoryController` contains the logic shared by the Snooping
and BASH memory controllers: both observe coherence requests on the totally
ordered request network, both resolve writeback races through the
data-or-squash mechanism (the writer decides at its own PUT marker whether it
is still the owner), and both must hold later requests for a block whose
writeback data is still in flight.

:class:`SnoopingMemoryController` specialises it to the paper's Snooping
protocol, where memory keeps a single owner bit per block (as in the Synapse
N+1) and responds with data whenever it is the owner.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Set

from ..._core import stock
from ...coherence.directory import DirectoryEntry
from ...errors import ProtocolError
from ...interconnect.message import Message, MessageType
from ..base import MemoryControllerBase


@stock
class OrderedHomeMemoryController(MemoryControllerBase):
    """Shared home-node behaviour for Snooping and BASH."""

    ORDERED_HANDLERS = {
        MessageType.GETS: "_ordered_request",
        MessageType.GETM: "_ordered_request",
        MessageType.PUTM: "_ordered_put",
    }
    UNORDERED_HANDLERS = {
        MessageType.WB_DATA: "_handle_writeback_data",
        MessageType.WB_SQUASH: "_handle_writeback_squash",
    }

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Requests that arrived while a writeback's data was still in flight.
        self._held_requests: Dict[int, Deque[Message]] = {}
        #: Outstanding PUTs per block, by writer, awaiting WB_DATA / WB_SQUASH.
        self._pending_puts: Dict[int, Set[int]] = {}

    def reset_state(self, config) -> None:
        """Also drop requests held across writebacks and outstanding PUTs."""
        super().reset_state(config)
        self._held_requests.clear()
        self._pending_puts.clear()

    # ---------------------------------------------------------- ordered path

    def _ordered_request(self, message: Message) -> None:
        """Process one GETS/GETM in the global total order (home blocks only)."""
        if not self.is_home_for(message.address):
            return
        entry = self.directory.lookup(message.address)
        self._note_request_observed(entry, message)
        if entry.awaiting_writeback:
            self._held_requests.setdefault(message.address, deque()).append(message)
            self.count("held_requests")
            return
        self._serve_request(entry, message)

    def _note_request_observed(self, entry: DirectoryEntry, message: Message) -> None:
        """Hook for subclasses that track per-request bookkeeping (BASH retries)."""

    # ------------------------------------------------------------ writebacks

    def _ordered_put(self, message: Message) -> None:
        """Observe a PUT in the total order (home blocks only)."""
        if not self.is_home_for(message.address):
            return
        entry = self.directory.lookup(message.address)
        self._pending_puts.setdefault(message.address, set()).add(message.requester)
        self.count("puts_observed")
        if self._put_may_transfer_ownership(entry, message):
            entry.awaiting_writeback = True

    def _put_may_transfer_ownership(
        self, entry: DirectoryEntry, message: Message
    ) -> bool:
        """Could this PUT make memory the owner?  If so, hold later requests.

        With only an owner bit, Snooping must conservatively hold requests
        whenever memory is not currently the owner; BASH refines the test with
        the directory's owner identity.
        """
        return not entry.memory_is_owner

    def _handle_writeback_data(self, message: Message) -> None:
        entry = self.directory.lookup(message.address)
        entry.writeback_to_memory(message.data_token)
        entry.sharers.discard(message.requester)
        self._resolve_pending_put(message.address, message.requester)
        self.count("writebacks.accepted")
        self._drain_held_requests(message.address)

    def _handle_writeback_squash(self, message: Message) -> None:
        self._resolve_pending_put(message.address, message.requester)
        self.count("writebacks.squashed")
        if not self._pending_puts.get(message.address):
            self._drain_held_requests(message.address)

    def _resolve_pending_put(self, address: int, writer: int) -> None:
        pending = self._pending_puts.get(address)
        if pending is not None:
            pending.discard(writer)
            if not pending:
                del self._pending_puts[address]

    def _drain_held_requests(self, address: int) -> None:
        """Re-process every request held during a writeback, in order.

        Each held request goes back through :meth:`_serve_request`, which does
        the right thing whatever happened in the meantime: if memory became the
        owner it responds with the written-back data; if ownership has already
        moved on to a cache it only updates its bookkeeping (the owning cache
        saw — or, under BASH, will be sent a retry of — the request itself).
        Dropping held requests here is not safe: a BASH unicast in the queue
        may never have reached any cache owner, so the retry issued by
        :meth:`_serve_request` is its only way to complete.
        """
        entry = self.directory.lookup(address)
        entry.awaiting_writeback = False
        held = self._held_requests.pop(address, None)
        if not held:
            return
        while held:
            message = held.popleft()
            if entry.awaiting_writeback:
                # A held PUT-triggered state change re-armed the hold; requeue.
                held.appendleft(message)
                self._held_requests[address] = held
                return
            self._serve_request(entry, message)

    # ------------------------------------------------------------ subclasses

    def _serve_request(self, entry: DirectoryEntry, message: Message) -> None:
        """Serve one GETS/GETM according to the protocol's memory behaviour."""
        raise NotImplementedError


@stock
class SnoopingMemoryController(OrderedHomeMemoryController):
    """Memory controller of the Snooping protocol: one owner bit per block."""

    def _serve_request(self, entry: DirectoryEntry, message: Message) -> None:
        kind = message.request_kind
        requester = message.requester
        if kind is MessageType.GETS:
            if entry.memory_is_owner:
                self._send_data(
                    message.address,
                    requester,
                    entry.data_token,
                    message.transaction_id,
                )
                self.count("memory_responses")
            entry.add_sharer(requester)
            return
        if kind is MessageType.GETM:
            if entry.memory_is_owner:
                self._send_data(
                    message.address,
                    requester,
                    entry.data_token,
                    message.transaction_id,
                )
                self.count("memory_responses")
            # Memory keeps only an owner bit: after any GETM some cache owns
            # the block.  We record the requester's identity purely for the
            # benefit of the invariant checkers.
            entry.grant_exclusive(requester)
            return
        raise ProtocolError(f"unexpected request kind {kind}")
