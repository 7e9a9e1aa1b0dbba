"""Cache controller for the Bandwidth Adaptive Snooping Hybrid (Section 3.3).

From the requester's point of view BASH behaves like Snooping, except that the
cache controller chooses, per request, whether to broadcast or to "unicast".
A BASH unicast is really a dualcast — the request goes to the home node and
back to the requester, whose returning copy acts as its marker.  Writebacks are
always dualcast.  Responses to incoming requests are identical to Snooping,
with two additions from footnote 2 and Section 3.3 of the paper:

* an owner cache tracks its own sharer set and judges the *sufficiency* of a
  non-broadcast GETM exactly as the memory controller does, and
* a requester must recognise retried versions of its own request (issued by
  the memory controller when the original recipient set was insufficient) and
  treat the retry's position in the total order as its effective marker; if
  the memory controller nacks instead (its retry buffer was full), the
  requester reissues the request as a broadcast, which always succeeds.
"""

from __future__ import annotations

from typing import Optional

from ..._core import stock
from ...coherence.block import CacheBlock
from ...coherence.transaction import Transaction
from ...errors import ProtocolError
from ...interconnect.message import Message, MessageType
from ..snooping.cache_controller import SnoopingCacheController
from .adaptive import BandwidthAdaptiveMechanism


@stock
class BashCacheController(SnoopingCacheController):
    """Hybrid cache controller: snooping behaviour, adaptive request fan-out."""

    UNORDERED_HANDLERS = {
        **SnoopingCacheController.UNORDERED_HANDLERS,
        MessageType.NACK: "_handle_nack",
    }

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        adaptive_config = self.config.adaptive
        self.adaptive = BandwidthAdaptiveMechanism(
            adaptive_config, lfsr_seed=self._node_lfsr_seed(adaptive_config)
        )
        self._window_start = 0
        # System-wide stat handles, hoisted out of the per-sample/per-request
        # paths (registry lookups cost a dict probe plus string hash each).
        self._sys_link_utilization = self.stats.running_mean("system.link_utilization")
        self._sys_unicast_probability = self.stats.running_mean(
            "system.unicast_probability"
        )
        self._sys_broadcast_decisions = self.stats.counter("system.broadcast_decisions")
        self._sys_unicast_decisions = self.stats.counter("system.unicast_decisions")
        # Sampling fires once per node per interval, so its pipeline is fully
        # prebound: the node's link pair and the mechanism persist across
        # system resets (the mechanism is re-initialised in place), keeping
        # every handle below valid.
        self._link_pair = self.interconnect.links[self.node_id]
        # Busy-cycle totals at the previous window boundary, per direction:
        # busy_time_up_to(t) is final once the clock passes t, so each sample
        # queries only the *current* boundary and reuses the cached previous
        # one — half the link queries of the naive utilization(start, end).
        self._window_busy_in = 0
        self._window_busy_out = 0
        self._mean_link_utilization = self.stats.running_mean(
            self.stat_name("link_utilization")
        )
        self._sampling_label = self.full_label("adaptive-sample")
        self._schedule_after_fast = self.scheduler.schedule_after_fast
        self._observe_window = self.adaptive.observe_window
        self._sampling_interval = adaptive_config.sampling_interval
        self._schedule_sampling()

    def _node_lfsr_seed(self, adaptive_config) -> int:
        """Per-node LFSR seed: the fleet must not make lock-step decisions,
        while staying deterministic per configuration."""
        seed = (adaptive_config.lfsr_seed + 0x9E37 * (self.node_id + 1)) & 0xFFFF
        return seed if seed else 0xACE1

    def reset_state(self, config) -> None:
        """Also re-arm the adaptive mechanism and restart the sampling clock.

        The scheduler has just been reset, so the perpetual sampling event
        scheduled at construction is gone; rescheduling it here (in node
        order, before any sequencer starts) reproduces the construction-time
        event sequence numbers exactly.
        """
        super().reset_state(config)
        adaptive_config = config.adaptive
        self.adaptive.reset(adaptive_config, self._node_lfsr_seed(adaptive_config))
        self._sampling_interval = adaptive_config.sampling_interval
        self._window_start = 0
        self._window_busy_in = 0
        self._window_busy_out = 0
        self._schedule_sampling()

    # ----------------------------------------------------------- adaptation

    def _schedule_sampling(self) -> None:
        self._schedule_after_fast(
            self._sampling_interval, self._sample_utilization, self._sampling_label
        )

    def _sample_utilization(self) -> None:
        """End one sampling interval: read the local link and update counters.

        Equivalent to ``observe_cycles`` + ``sample`` + three stat records,
        with every handle prebound and the mechanism update fused
        (:meth:`BandwidthAdaptiveMechanism.observe_window`): low-bandwidth
        sweep points take tens of thousands of samples per run, making this
        the dominant BASH-specific cost.
        """
        now = self.scheduler.now
        window_start = self._window_start
        # Inlined LinkPair.utilization over [window_start, now): the busy
        # totals at window_start were cached by the previous sample (they are
        # final once the clock passed that boundary), and the O(1) idle-link
        # fast path of EndpointLink.busy_time_up_to is applied without the
        # call frames.  Identical arithmetic to utilization(start, now).
        incoming = self._link_pair.incoming
        outgoing = self._link_pair.outgoing
        busy_in_now = (
            incoming._busy_total
            if now >= incoming._busy_until
            else incoming.busy_time_up_to(now)
        )
        busy_out_now = (
            outgoing._busy_total
            if now >= outgoing._busy_until
            else outgoing.busy_time_up_to(now)
        )
        busy_in = busy_in_now - self._window_busy_in
        busy_out = busy_out_now - self._window_busy_out
        self._window_busy_in = busy_in_now
        self._window_busy_out = busy_out_now
        span = now - window_start
        bottleneck = busy_in if busy_in > busy_out else busy_out
        if span > 0:
            utilization = bottleneck / span
            if utilization > 1.0:
                utilization = 1.0
        else:
            utilization = 0.0
        busy = int(round(utilization * span))
        sample = self._observe_window(busy, span - busy, now, utilization)
        self._mean_link_utilization.record(utilization)
        self._sys_link_utilization.record(utilization)
        self._sys_unicast_probability.record(sample.unicast_probability)
        self._window_start = now
        self._schedule_after_fast(
            self._sampling_interval, self._sample_utilization, self._sampling_label
        )

    # -------------------------------------------------------------- sending

    def _request_recipients(self, transaction: Transaction) -> frozenset:
        """Broadcast or dualcast according to the adaptive mechanism."""
        if self.adaptive.should_broadcast():
            transaction.was_broadcast = True
            self.count("broadcast_decisions")
            self._sys_broadcast_decisions.increment()
            return self.interconnect.all_nodes
        transaction.was_broadcast = False
        self.count("unicast_decisions")
        self._sys_unicast_decisions.increment()
        home = self.home_of(transaction.address)
        return frozenset({home, self.node_id})

    def _writeback_recipients(self, transaction: Transaction) -> frozenset:
        """Writeback requests are always unicast (dualcast home + requester)."""
        home = self.home_of(transaction.address)
        return frozenset({home, self.node_id})

    # -------------------------------------------------------- sufficiency

    def _own_request_sufficient(
        self, transaction: Transaction, block: CacheBlock, message: Message
    ) -> bool:
        """Owner-side sufficiency check for our own upgrade request.

        We only reach this when we already own the block (an upgrade from O):
        the request succeeds at this point in the total order only if every
        sharer we track received it, which is exactly the decision the memory
        controller makes from its directory (footnote 2 of the paper).
        """
        needed = set(block.tracked_sharers)
        needed.discard(self.node_id)
        return needed.issubset(message.recipients)

    def _owner_getm_sufficient(self, block: CacheBlock, message: Message) -> bool:
        """Owner-side sufficiency check for another node's GETM."""
        if message.is_broadcast:
            return True
        needed = set(block.tracked_sharers)
        needed.discard(message.requester)
        needed.discard(self.node_id)
        return needed.issubset(message.recipients)

    # ------------------------------------------------------ unordered extras

    def _handle_nack(self, message: Message) -> None:
        """The memory controller could not buffer a retry: reissue as broadcast."""
        transaction = self._matching_transaction(message)
        if transaction is None:
            self.count("stale_nacks")
            return
        transaction.nacked = True
        transaction.reissued_as_broadcast = True
        transaction.was_broadcast = True
        self.count("nacks")
        self.stats.counter("system.nacks").increment()
        reissue = self._build_request_message(transaction, transaction.kind)
        self.interconnect.send_ordered(reissue, self.interconnect.all_nodes)

    def _matching_transaction(self, message: Message) -> Optional[Transaction]:
        transaction = self.transactions.get(message.address)
        if (
            transaction is None
            or transaction.completed
            or transaction.transaction_id != message.transaction_id
        ):
            return None
        return transaction

    # ---------------------------------------------------------------- checks

    def _snoop_putm(self, message: Message) -> None:
        if message.is_retry and message.requester == self.node_id:
            raise ProtocolError("writebacks are never retried in BASH")
        super()._snoop_putm(message)
