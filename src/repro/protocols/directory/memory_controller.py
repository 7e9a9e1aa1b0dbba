"""Home/directory controller of the GS320-style Directory protocol.

The directory is the ordering point for its blocks: requests arrive unicast on
the unordered network, are serialised here, and are either answered directly
(data on the unordered network plus a marker on the totally ordered network) or
forwarded on the totally ordered multicast network to the owner, the sharers
and the requester.  Writebacks carry their data with the PUT and are
acknowledged (or rejected, if ownership already moved) on the ordered network
so that acknowledgements never overtake forwarded requests.

This is the protocol's per-message hot path, so the whole home-unicast →
marker → forward pipeline runs on the allocation-free scheduler fast path:
outgoing ordered messages carry their recipient set in ``message.recipients``
and are injected by one prebound callable (no closure per message), event
labels are resolved once per message type, and singleton recipient sets are
memoised per destination node.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

from ... import _core
from ...coherence.directory import DirectoryEntry
from ...coherence.state import MEMORY_OWNER
from ...errors import ProtocolError
from ...interconnect.message import Message, MessageType
from ..base import MemoryControllerBase
from ..dispatch import compile_data_reply, handler_accelerator


@_core.stock
class DirectoryMemoryController(MemoryControllerBase):
    """Full-directory (owner + sharer superset) home node controller."""

    #: The directory itself consumes nothing from the ordered network, so its
    #: ordered table is empty and the node's compiled dispatch entry skips the
    #: memory side entirely for ordered deliveries.
    ORDERED_HANDLERS: Dict[MessageType, str] = {}
    UNORDERED_HANDLERS = {
        MessageType.GETS: "_handle_gets",
        MessageType.GETM: "_handle_getm",
        MessageType.PUTM: "_handle_putm",
    }

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Hot-path memos for the marker/forward pipeline: labels match the
        # strings the pre-table implementation generated (the golden traces
        # pin them), and singleton recipient sets recur per requester.
        self._marker_label = self.full_label("marker")
        self._forward_labels = {
            MessageType.FWD_GETS: self.full_label(f"forward-{MessageType.FWD_GETS}"),
            MessageType.FWD_GETM: self.full_label(f"forward-{MessageType.FWD_GETM}"),
        }
        self._put_response_labels = {
            MessageType.PUT_ACK: self.full_label(
                f"put-response-{MessageType.PUT_ACK}"
            ),
            MessageType.PUT_NACK: self.full_label(
                f"put-response-{MessageType.PUT_NACK}"
            ),
        }
        self._singletons: Dict[int, FrozenSet[int]] = {}
        self._directory_lookup = self.directory.lookup
        self._request_bytes = self.config.request_message_bytes
        self._ctr_memory_responses = self.stats.counter(
            self.stat_name("memory_responses")
        )

    # ----------------------------------------------------- compiled delivery

    def compile_accelerated_unordered(self, msg_type):
        """A C ``DirHome`` entry for the unordered GETS/GETM, or None.

        ``DirHome`` runs :meth:`_handle_gets` / :meth:`_handle_getm` in C:
        the home test, the directory probe, the memory DATA reply, the
        marker or forward and the sharer/owner update, pushing markers and
        forwards to the network's compiled ordered send.  Offered only on a
        compiled scheduler for the exact stock controller, directory,
        config and message classes with the default table entry; the
        decision is recorded as ``DirectoryMemoryController<N>.<TYPE>``.
        PUTM (rare writebacks) always runs the pure handler.  The entry
        carries ``releases_message`` when an arena is attached: the
        unordered network's deliver-and-release wrapper is folded into it.
        """
        if msg_type is MessageType.GETS:
            handler = self._handle_gets
        elif msg_type is MessageType.GETM:
            handler = self._handle_getm
        else:
            return None
        ext = handler_accelerator(self)
        if ext is None:
            return None
        home = self._compile_home(ext, msg_type, handler)
        _core.note_handler_selection(
            f"DirectoryMemoryController{self.node_id}.{msg_type.name}",
            "declined" if home is None else "compiled",
        )
        return home

    def _compile_home(self, ext, msg_type, handler):
        if (
            type(self) is not DirectoryMemoryController
            or not _core.is_stock(
                self, self.directory, DirectoryEntry, self.config, Message
            )
            or self.unordered_handlers.get(msg_type) != handler
            or self._directory_lookup != self.directory.lookup
        ):
            return None
        serve = compile_data_reply(self, ext, from_memory=True)
        if serve is None:
            return None
        # Markers and forwards go straight to the compiled ordered send
        # when the controller has it; else through _inject_ordered.
        inject = self._ordered_send
        if not isinstance(inject, ext.OrderedSend):
            inject = self._inject_ordered
        arena = getattr(self.scheduler, "arena", None)
        getm = msg_type is MessageType.GETM
        forward = MessageType.FWD_GETM if getm else MessageType.FWD_GETS
        return ext.DirHome(
            getm=getm,
            node_id=self.node_id,
            block_bytes=self.config.cache_block_bytes,
            num_procs=self.config.num_processors,
            controller=self,
            serve=serve,
            fallback=handler,
            require_home=self._require_home,
            entries=self.directory._entries,
            lookup=self._directory_lookup,
            singletons=self._singletons,
            inject=inject,
            marker_label=self._marker_label,
            forward_label=self._forward_labels[forward],
            request_bytes=self._request_bytes,
            memory_responses=self._ctr_memory_responses,
            message_release=arena.release_message if arena is not None else None,
        )

    # ----------------------------------------------------------- GETS / GETM

    def _handle_gets(self, message: Message) -> None:
        """Serialise one GETS received unicast at the home."""
        self._require_home(message)
        entry = self._directory_lookup(message.address)
        requester = message.requester
        owner = entry.owner
        if owner == MEMORY_OWNER or owner == requester:
            self._send_data(
                message.address, requester, entry.data_token, message.transaction_id
            )
            self._send_marker(message)
            self._ctr_memory_responses._count += 1
        else:
            self._forward(
                MessageType.FWD_GETS,
                message,
                recipients=frozenset((owner, requester)),
            )
        if requester != owner:
            entry.sharers.add(requester)

    def _handle_getm(self, message: Message) -> None:
        """Serialise one GETM received unicast at the home."""
        self._require_home(message)
        entry = self._directory_lookup(message.address)
        requester = message.requester
        owner = entry.owner
        sharers = entry.sharers
        # The forward multicast always includes the requester (its returning
        # copy is its marker), so the recipient set is simply the sharers plus
        # the requester — plus the owning cache, when there is one to drain.
        if owner == MEMORY_OWNER:
            self._send_data(
                message.address, requester, entry.data_token, message.transaction_id
            )
            self._ctr_memory_responses._count += 1
            if sharers and (requester not in sharers or len(sharers) > 1):
                self._forward(
                    MessageType.FWD_GETM,
                    message,
                    recipients=frozenset(sharers | {requester}),
                )
            else:
                # No other sharer needs invalidating: the marker suffices.
                self._send_marker(message)
        elif owner == requester:
            self._forward(
                MessageType.FWD_GETM,
                message,
                recipients=frozenset(sharers | {requester}),
            )
        else:
            self._forward(
                MessageType.FWD_GETM,
                message,
                recipients=frozenset(sharers | {owner, requester}),
            )
        entry.owner = requester
        sharers.clear()

    def _handle_putm(self, message: Message) -> None:
        """Serialise one writeback (data rides with the PUT) at the home."""
        self._require_home(message)
        entry = self._directory_lookup(message.address)
        writer = message.requester
        if entry.owner == writer:
            entry.writeback_to_memory(message.data_token)
            entry.sharers.discard(writer)
            self._send_ordered_control(
                MessageType.PUT_ACK, writer, message.address, message.transaction_id
            )
            self.count("writebacks.accepted")
        else:
            self._send_ordered_control(
                MessageType.PUT_NACK, writer, message.address, message.transaction_id
            )
            self.count("writebacks.rejected")

    # ---------------------------------------------------------------- helpers

    def _require_home(self, message: Message) -> None:
        if not self.is_home_for(message.address):
            raise ProtocolError(
                f"node {self.node_id} received a request for address "
                f"0x{message.address:x} it is not home for"
            )

    def _singleton(self, node_id: int) -> FrozenSet[int]:
        recipients = self._singletons.get(node_id)
        if recipients is None:
            recipients = self._singletons[node_id] = frozenset({node_id})
        return recipients

    def _inject_ordered(self, message: Message) -> None:
        """Fast-path injector: the recipient set rides on the message."""
        self._ordered_send(message, message.recipients)

    def _send_marker(self, request: Message) -> None:
        """Tell the requester where its request landed in the total order."""
        requester = request.requester
        marker = Message(
            msg_type=MessageType.MARKER,
            src=self.node_id,
            address=request.address,
            size_bytes=self._request_bytes,
            requester=requester,
            transaction_id=request.transaction_id,
            recipients=self._singleton(requester),
            issue_time=self.now,
        )
        self._schedule_after_fast1(
            self._dram_latency, self._inject_ordered, marker, self._marker_label
        )

    def _forward(
        self, msg_type: MessageType, request: Message, recipients: FrozenSet[int]
    ) -> None:
        """Forward a request on the totally ordered multicast network."""
        forward = Message(
            msg_type=msg_type,
            src=self.node_id,
            address=request.address,
            size_bytes=self._request_bytes,
            requester=request.requester,
            transaction_id=request.transaction_id,
            data_token=request.data_token,
            recipients=recipients,
            issue_time=self.now,
        )
        self.count("forwards")
        self._schedule_after_fast1(
            self._dram_latency,
            self._inject_ordered,
            forward,
            self._forward_labels[msg_type],
        )

    def _send_ordered_control(
        self, msg_type: MessageType, dest: int, address: int, transaction_id: int
    ) -> None:
        """Send an ack/nack on the ordered network so it cannot pass a forward."""
        message = Message(
            msg_type=msg_type,
            src=self.node_id,
            address=address,
            size_bytes=self._request_bytes,
            requester=dest,
            transaction_id=transaction_id,
            recipients=self._singleton(dest),
            issue_time=self.now,
        )
        self._schedule_after_fast1(
            self._dram_latency,
            self._inject_ordered,
            message,
            self._put_response_labels[msg_type],
        )
