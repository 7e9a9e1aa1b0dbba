"""Interconnect facade: endpoint links plus the two virtual networks."""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable

from ..common.config import SystemConfig
from ..common.stats import StatsRegistry
from ..errors import NetworkError
from ..sim.scheduler import Scheduler
from .link import LinkPair
from .message import Message
from .ordered_network import OrderedHandler, TotallyOrderedNetwork
from .unordered_network import UnorderedHandler, UnorderedNetwork


class Interconnect:
    """Endpoint links shared by a totally ordered and an unordered network.

    One instance models the whole machine's interconnect: ``num_nodes`` link
    pairs (contention at the endpoints), a totally ordered request network, and
    an unordered response network with the same fixed traversal latency.
    """

    def __init__(
        self,
        config: SystemConfig,
        scheduler: Scheduler,
        stats: StatsRegistry,
    ) -> None:
        self.config = config
        self.scheduler = scheduler
        self.stats = stats
        self.num_nodes = config.num_processors
        bytes_per_cycle = config.bytes_per_cycle
        self.links: Dict[int, LinkPair] = {
            node_id: LinkPair(node_id, bytes_per_cycle)
            for node_id in range(self.num_nodes)
        }
        self.ordered = TotallyOrderedNetwork(
            scheduler,
            self.links,
            config.latency.network_traversal,
            stats,
            broadcast_cost_factor=config.broadcast_cost_factor,
        )
        self.unordered = UnorderedNetwork(
            scheduler,
            self.links,
            config.latency.network_traversal,
            stats,
        )
        # The broadcast destination set is requested once per broadcast
        # request, so build it once rather than per call.
        self._all_nodes: FrozenSet[int] = frozenset(range(self.num_nodes))

    @property
    def all_nodes(self) -> FrozenSet[int]:
        """The full set of node identifiers (a broadcast destination)."""
        return self._all_nodes

    def reset(self, config: SystemConfig) -> None:
        """Re-arm the whole interconnect for a fresh run under ``config``.

        The node count must be unchanged (that is a structural property of the
        built system); bandwidth and broadcast cost factor may differ — the
        links pick up the new ``bytes_per_cycle`` and the ordered network
        recompiles its arrival closures only when the cost factor actually
        changed.
        """
        if config.num_processors != self.num_nodes:
            raise NetworkError(
                f"cannot reset a {self.num_nodes}-node interconnect to "
                f"{config.num_processors} nodes; rebuild instead"
            )
        self.config = config
        bytes_per_cycle = config.bytes_per_cycle
        for pair in self.links.values():
            pair.reset(bytes_per_cycle)
        self.ordered.reset(config.broadcast_cost_factor)
        self.unordered.reset()

    def register_node(
        self,
        node_id: int,
        ordered_handler: OrderedHandler,
        unordered_handler: UnorderedHandler,
    ) -> None:
        """Attach a node's delivery handlers to both virtual networks."""
        if node_id not in self.links:
            raise NetworkError(f"node {node_id} is outside this interconnect")
        self.ordered.register(node_id, ordered_handler)
        self.unordered.register(node_id, unordered_handler)

    def attach_node(self, node_id: int, dispatcher: object) -> None:
        """Attach a node's compiled dispatch tables to both virtual networks.

        ``dispatcher`` is typically a :class:`repro.system.node.Node`; the
        networks index its ``ordered_entry``/``unordered_entry`` tables
        directly, so delivery events fire the protocol handlers with no
        node-level dispatch frame.
        """
        if node_id not in self.links:
            raise NetworkError(f"node {node_id} is outside this interconnect")
        self.ordered.register_dispatcher(node_id, dispatcher)
        self.unordered.register_dispatcher(node_id, dispatcher)

    def send_ordered(self, message: Message, recipients: Iterable[int]) -> None:
        """Send a request on the totally ordered network."""
        self.ordered.send(message, frozenset(recipients))

    def broadcast(self, message: Message) -> None:
        """Send a request to every node on the totally ordered network."""
        self.ordered.send(message, self.all_nodes)

    def send_unordered(self, message: Message) -> None:
        """Send a point-to-point message on the unordered network."""
        self.unordered.send(message)

    def mean_endpoint_utilization(self, now: int) -> float:
        """Average endpoint-link utilization over ``[0, now)`` (Figure 6).

        A node's utilization is that of its busier direction, as in the
        paper's local estimate of "the utilization of its link to the
        interconnection network": sensitive both to broadcast floods
        (incoming) and to data-response pressure (outgoing).
        """
        if not self.links or now <= 0:
            return 0.0
        total = sum(
            max(pair.incoming.busy_time_up_to(now), pair.outgoing.busy_time_up_to(now))
            / now
            for pair in self.links.values()
        )
        return total / len(self.links)
