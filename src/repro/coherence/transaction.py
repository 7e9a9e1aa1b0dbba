"""Outstanding coherence transactions (the cache controller's MSHRs)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from .._core import stock
from ..interconnect.message import Message, MessageType

#: Called when a transaction completes; receives the finished transaction.
CompletionCallback = Callable[["Transaction"], None]

_transaction_ids = itertools.count()


@stock
@dataclass(slots=True)
class Transaction:
    """One in-flight coherence transaction at a cache controller.

    The fields cover every protocol:

    * ``marker_seen`` / ``effective_order_seq`` record where the request landed
      in the total order (updated when a BASH retry supersedes the original).
    * ``expects_data`` is False for upgrades issued from O or M, which complete
      at their marker without a data response.
    * ``deferred`` holds later-ordered requests that this requester, as
      owner-to-be, must service once its own data arrives.
    * ``invalidate_seqs`` records GETM order positions observed while waiting,
      so a GETS requester knows whether its freshly installed copy was already
      invalidated by a later-ordered store.
    * ``retries_observed`` / ``nacked`` track the BASH retry and deadlock-nack
      paths.

    One instance is allocated per cache miss, so the two bookkeeping lists
    start empty-by-default as shared immutable sentinels and are only
    materialised through :meth:`defer` / :meth:`note_invalidate` — most
    transactions never populate either.
    """

    address: int
    kind: MessageType
    requester: int
    issue_time: int
    store_token: int = 0
    expects_data: bool = True
    was_broadcast: bool = True
    completion_callback: Optional[CompletionCallback] = None

    transaction_id: int = field(default_factory=_transaction_ids.__next__)
    marker_seen: bool = False
    effective_order_seq: Optional[int] = None
    data_received: bool = False
    received_token: int = 0
    completed: bool = False
    completion_time: Optional[int] = None
    deferred: List[Message] = field(default=())  # type: ignore[assignment]
    invalidate_seqs: List[int] = field(default=())  # type: ignore[assignment]
    ownership_passed: bool = False
    retries_observed: int = 0
    nacked: bool = False
    reissued_as_broadcast: bool = False
    #: Issuer-private payload (the sequencer stores the pending memory
    #: operation here so its completion callback needs no per-miss closure).
    context: Optional[object] = None

    def defer(self, message: Message) -> None:
        """Queue a later-ordered request to serve once our data arrives."""
        if type(self.deferred) is tuple:
            self.deferred = [message]
        else:
            self.deferred.append(message)

    def clear_deferred(self) -> None:
        """Drop any queued deferred requests."""
        if type(self.deferred) is not tuple:
            self.deferred.clear()

    def note_invalidate(self, order_seq: int) -> None:
        """Record a GETM ordered while this transaction was in flight."""
        if type(self.invalidate_seqs) is tuple:
            self.invalidate_seqs = [order_seq]
        else:
            self.invalidate_seqs.append(order_seq)

    @property
    def is_write(self) -> bool:
        """True for GETM transactions (stores / upgrades)."""
        return self.kind is MessageType.GETM

    @property
    def latency(self) -> Optional[int]:
        """Completion latency in cycles, or None while still in flight."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.issue_time

    def record_marker(self, order_seq: int) -> None:
        """Note that this transaction's request was ordered at ``order_seq``."""
        self.marker_seen = True
        self.effective_order_seq = order_seq

    def invalidated_after(self) -> bool:
        """True if a later-ordered GETM invalidates the copy this transaction installs."""
        if self.effective_order_seq is None:
            return bool(self.invalidate_seqs)
        return any(seq > self.effective_order_seq for seq in self.invalidate_seqs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Transaction({self.kind}, addr=0x{self.address:x}, req=P{self.requester}, "
            f"seq={self.effective_order_seq}, done={self.completed})"
        )
