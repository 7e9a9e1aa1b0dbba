"""Coherence messages exchanged over the interconnect.

Message kinds cover all three protocols:

* ``GETS`` / ``GETM`` / ``PUTM`` coherence requests (broadcast, multicast,
  dualcast or unicast depending on the protocol),
* ``FWD_GETS`` / ``FWD_GETM`` requests forwarded by the Directory protocol's
  home node on its totally ordered multicast network,
* ``MARKER`` messages that tell a Directory requester where its request falls
  in the total order,
* ``DATA`` responses carrying the cache block,
* ``WB_DATA`` / ``WB_SQUASH`` writeback resolution messages,
* ``PUT_ACK`` / ``PUT_NACK`` directory writeback acknowledgements, and
* ``NACK``, used by the BASH memory controller to resolve potential deadlock
  when its retry buffer is full (the requester then reissues as a broadcast).
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import FrozenSet, Optional

from .._core import stock


class MessageType(Enum):
    """Kinds of protocol messages."""

    GETS = "GETS"
    GETM = "GETM"
    PUTM = "PUTM"
    FWD_GETS = "FWD_GETS"
    FWD_GETM = "FWD_GETM"
    MARKER = "MARKER"
    DATA = "DATA"
    WB_DATA = "WB_DATA"
    WB_SQUASH = "WB_SQUASH"
    PUT_ACK = "PUT_ACK"
    PUT_NACK = "PUT_NACK"
    NACK = "NACK"

    # Members are singletons, so identity hashing is equivalent to the default
    # Enum hash but runs in C — message types key the per-event label caches.
    __hash__ = object.__hash__

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Message types that are coherence requests (travel on the request network).
REQUEST_TYPES = frozenset(
    {MessageType.GETS, MessageType.GETM, MessageType.PUTM}
)

#: Message types forwarded by a directory.
FORWARD_TYPES = frozenset({MessageType.FWD_GETS, MessageType.FWD_GETM})


class DestinationUnit(Enum):
    """Which controller inside a node a point-to-point message targets."""

    CACHE = "cache"
    MEMORY = "memory"

    __hash__ = object.__hash__

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_message_ids = itertools.count()


@stock
class Message:
    """One message travelling over the interconnect.

    ``order_seq`` is assigned by the totally ordered network when the message
    enters the switch fabric and is ``None`` for messages on the unordered
    network.  ``transaction_id`` ties responses, retries, markers and nacks
    back to the coherence transaction that created them.

    One instance is allocated per protocol message (and touched on every hop),
    so the class is ``__slots__``-based rather than a dataclass.
    """

    __slots__ = (
        "msg_type",
        "src",
        "address",
        "size_bytes",
        "requester",
        "dest",
        "dest_unit",
        "recipients",
        "transaction_id",
        "is_broadcast",
        "is_retry",
        "retry_count",
        "original_type",
        "order_seq",
        "data_token",
        "issue_time",
        "msg_id",
    )

    def __init__(
        self,
        msg_type: MessageType,
        src: int,
        address: int,
        size_bytes: int,
        requester: int,
        dest: Optional[int] = None,
        dest_unit: DestinationUnit = DestinationUnit.CACHE,
        recipients: FrozenSet[int] = frozenset(),
        transaction_id: int = -1,
        is_broadcast: bool = False,
        is_retry: bool = False,
        retry_count: int = 0,
        original_type: Optional[MessageType] = None,
        order_seq: Optional[int] = None,
        data_token: int = 0,
        issue_time: int = 0,
        msg_id: Optional[int] = None,
    ) -> None:
        self.msg_type = msg_type
        self.src = src
        self.address = address
        self.size_bytes = size_bytes
        self.requester = requester
        self.dest = dest
        self.dest_unit = dest_unit
        self.recipients = recipients
        self.transaction_id = transaction_id
        self.is_broadcast = is_broadcast
        self.is_retry = is_retry
        self.retry_count = retry_count
        self.original_type = original_type
        self.order_seq = order_seq
        self.data_token = data_token
        self.issue_time = issue_time
        self.msg_id = next(_message_ids) if msg_id is None else msg_id

    @property
    def request_kind(self) -> MessageType:
        """The underlying request type, unwrapping forwarded requests."""
        if self.msg_type is MessageType.FWD_GETS:
            return MessageType.GETS
        if self.msg_type is MessageType.FWD_GETM:
            return MessageType.GETM
        if self.original_type is not None:
            return self.original_type
        return self.msg_type

    def copy_for_retry(self, recipients: FrozenSet[int], broadcast: bool) -> "Message":
        """A retried version of this request with a new recipient set."""
        return Message(
            msg_type=self.msg_type,
            src=self.src,
            address=self.address,
            size_bytes=self.size_bytes,
            requester=self.requester,
            dest=self.dest,
            dest_unit=self.dest_unit,
            recipients=recipients,
            transaction_id=self.transaction_id,
            is_broadcast=broadcast,
            is_retry=True,
            retry_count=self.retry_count + 1,
            original_type=self.original_type,
            order_seq=None,
            data_token=self.data_token,
            issue_time=self.issue_time,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message({self.msg_type}, addr=0x{self.address:x}, req=P{self.requester}, "
            f"src=P{self.src}, seq={self.order_seq}, retry={self.retry_count})"
        )
