"""Memory controller for the Bandwidth Adaptive Snooping Hybrid.

Like the Directory protocol's home node, the BASH memory controller maintains
the owner and a superset of the sharers for each block it is home for.  Its
basic operation (Section 3.3) is to compare that state against the set of
nodes that received each ordered request and decide whether the request was
*sufficient*:

* sufficient broadcast or multicast — behave like Snooping (respond with data
  when memory owns the block) and additionally keep the directory up to date;
* sufficient unicast that finds its data at home — behave like Directory,
  responding immediately (no extra marker is needed: the dualcast already
  returned the request to the requester);
* insufficient request — do **not** update the directory; instead retry the
  request on the totally ordered request network as a multicast that includes
  the requester, the owner, the sharers and the memory controller itself.  The
  third retry is escalated to a broadcast, which cannot fail, so requests
  cannot livelock.  If no retry buffer entry is available the controller
  resolves the potential deadlock by nacking the requester on the data
  network; the requester then reissues its request as a broadcast.
"""

from __future__ import annotations

from ..._core import stock
from ...coherence.directory import DirectoryEntry
from ...errors import ProtocolError
from ...interconnect.message import DestinationUnit, Message, MessageType
from ..snooping.memory_controller import OrderedHomeMemoryController


@stock
class BashMemoryController(OrderedHomeMemoryController):
    """Home node controller with directory state and sufficiency checking."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._active_retries = 0

    def reset_state(self, config) -> None:
        """Also free every retry-buffer slot."""
        super().reset_state(config)
        self._active_retries = 0

    # ------------------------------------------------------------- bookkeeping

    def _note_request_observed(self, entry: DirectoryEntry, message: Message) -> None:
        """Free the retry-buffer slot when a retry we issued comes back ordered."""
        if message.is_retry:
            if self._active_retries > 0:
                self._active_retries -= 1

    def _put_may_transfer_ownership(
        self, entry: DirectoryEntry, message: Message
    ) -> bool:
        """BASH has the owner's identity, so only the true owner's PUT holds requests."""
        return entry.owner == message.requester

    # ------------------------------------------------------------------ serve

    def _serve_request(self, entry: DirectoryEntry, message: Message) -> None:
        kind = message.request_kind
        requester = message.requester
        is_getm = kind is MessageType.GETM
        if kind not in (MessageType.GETS, MessageType.GETM):
            raise ProtocolError(f"unexpected request kind {kind}")
        if not entry.is_sufficient(is_getm, requester, message.recipients):
            self.count("insufficient_requests")
            self.stats.counter("system.insufficient_requests").increment()
            self._retry_or_nack(entry, message)
            return
        if is_getm:
            if entry.memory_is_owner and entry.owner != requester:
                self._send_data(
                    message.address,
                    requester,
                    entry.data_token,
                    message.transaction_id,
                )
                self.count("memory_responses")
            entry.grant_exclusive(requester)
        else:
            if entry.memory_is_owner or entry.owner == requester:
                self._send_data(
                    message.address,
                    requester,
                    entry.data_token,
                    message.transaction_id,
                )
                self.count("memory_responses")
            entry.add_sharer(requester)

    # ---------------------------------------------------------------- retries

    def _retry_or_nack(self, entry: DirectoryEntry, message: Message) -> None:
        """Retry an insufficient request, or nack it if no buffer is free."""
        if self._active_retries >= self.config.adaptive.retry_buffer_size:
            self._send_nack(message)
            return
        self._active_retries += 1
        escalate = (
            message.retry_count + 1
            >= self.config.adaptive.max_retries_before_broadcast
        )
        if escalate:
            recipients = self.interconnect.all_nodes
            self.count("retries.broadcast")
        else:
            recipients = self._retry_recipients(entry, message)
            self.count("retries.multicast")
        self.stats.counter("system.retries").increment()
        retry = message.copy_for_retry(frozenset(recipients), broadcast=escalate)
        retry.src = self.node_id
        self.schedule_fast(
            self.config.latency.dram_access,
            lambda: self._ordered_send(retry, recipients),
            "bash-retry",
        )

    def _retry_recipients(self, entry: DirectoryEntry, message: Message) -> frozenset:
        """Requester + owner + sharers + this memory controller (Section 3.3)."""
        recipients = set(entry.sharers)
        recipients.add(message.requester)
        recipients.add(self.node_id)
        if not entry.memory_is_owner:
            recipients.add(entry.owner)
        return frozenset(recipients)

    def _send_nack(self, message: Message) -> None:
        """Resolve a potential deadlock: tell the requester to broadcast instead."""
        self.count("nacks_sent")
        nack = self._new_message(
            msg_type=MessageType.NACK,
            src=self.node_id,
            dest=message.requester,
            dest_unit=DestinationUnit.CACHE,
            address=message.address,
            size_bytes=self.config.request_message_bytes,
            requester=message.requester,
            transaction_id=message.transaction_id,
            issue_time=self.now,
        )
        self._unordered_send(nack)
