"""Ordered and unordered virtual networks."""

import pytest

from repro.common.config import SystemConfig
from repro.common.stats import StatsRegistry
from repro.errors import NetworkError
from repro.interconnect.message import DestinationUnit, Message, MessageType
from repro.interconnect.network import Interconnect
from repro.sim.scheduler import Scheduler

from ..conftest import StubDispatcher


def make_interconnect(num_nodes=4, bandwidth=100_000.0, broadcast_cost_factor=1.0):
    config = SystemConfig(
        num_processors=num_nodes,
        bandwidth_mb_per_second=bandwidth,
        broadcast_cost_factor=broadcast_cost_factor,
    )
    scheduler = Scheduler()
    stats = StatsRegistry()
    interconnect = Interconnect(config, scheduler, stats)
    deliveries = {n: [] for n in range(num_nodes)}
    for node in range(num_nodes):
        interconnect.attach_node(
            node,
            StubDispatcher(
                lambda msg, n=node: deliveries[n].append(("ordered", msg)),
                lambda msg, n=node: deliveries[n].append(("unordered", msg)),
            ),
        )
    return config, scheduler, interconnect, deliveries


def broadcast(interconnect, message):
    interconnect.ordered.send(message, interconnect.all_nodes)


def request(src, address=0, msg_type=MessageType.GETM, dest=None):
    return Message(
        msg_type=msg_type,
        src=src,
        dest=dest,
        address=address,
        size_bytes=8,
        requester=src,
        transaction_id=1,
    )


class TestOrderedNetwork:
    def test_broadcast_reaches_every_node(self):
        _, scheduler, interconnect, deliveries = make_interconnect()
        broadcast(interconnect, request(src=0))
        scheduler.run()
        assert all(len(deliveries[n]) == 1 for n in range(4))

    def test_multicast_reaches_only_recipients(self):
        _, scheduler, interconnect, deliveries = make_interconnect()
        interconnect.ordered.send(request(src=1), frozenset({0, 1}))
        scheduler.run()
        assert len(deliveries[0]) == 1
        assert len(deliveries[1]) == 1
        assert len(deliveries[2]) == 0

    def test_total_order_is_consistent_across_nodes(self):
        _, scheduler, interconnect, deliveries = make_interconnect(bandwidth=200.0)
        for src in range(4):
            broadcast(interconnect, request(src=src, address=src * 64))
        scheduler.run()
        orders = []
        for node in range(4):
            seqs = [msg.order_seq for kind, msg in deliveries[node] if kind == "ordered"]
            srcs = [msg.src for kind, msg in deliveries[node] if kind == "ordered"]
            assert seqs == sorted(seqs)
            orders.append(srcs)
        # Every node observes the same global order of requesters.
        assert all(order == orders[0] for order in orders)

    def test_order_seq_assigned_monotonically(self):
        _, scheduler, interconnect, deliveries = make_interconnect()
        broadcast(interconnect, request(src=0))
        broadcast(interconnect, request(src=1))
        scheduler.run()
        seqs = [msg.order_seq for _, msg in deliveries[2]]
        assert seqs == [0, 1]

    def test_fixed_traversal_latency(self):
        config, scheduler, interconnect, deliveries = make_interconnect()
        broadcast(interconnect, request(src=0))
        scheduler.run()
        # One out-link cycle + 50 traversal + one in-link cycle.
        assert scheduler.now == pytest.approx(config.latency.network_traversal + 2)

    def test_requires_recipients_and_known_nodes(self):
        _, scheduler, interconnect, _ = make_interconnect()
        with pytest.raises(NetworkError):
            interconnect.ordered.send(request(src=0), frozenset())
        with pytest.raises(NetworkError):
            interconnect.ordered.send(request(src=0), frozenset({99}))

    def test_node_without_a_dispatcher_fails_loudly(self):
        scheduler = Scheduler()
        interconnect = Interconnect(
            SystemConfig(num_processors=2), scheduler, StatsRegistry()
        )
        broadcast(interconnect, request(src=0))
        with pytest.raises(NetworkError, match="no ordered dispatcher"):
            scheduler.run()

    def test_broadcast_cost_factor_slows_broadcasts_only(self):
        _, sched_plain, icn_plain, _ = make_interconnect(bandwidth=800.0)
        _, sched_costly, icn_costly, _ = make_interconnect(
            bandwidth=800.0, broadcast_cost_factor=4.0
        )
        broadcast(icn_plain, request(src=0))
        broadcast(icn_costly, request(src=0))
        sched_plain.run()
        sched_costly.run()
        assert sched_costly.now > sched_plain.now


class TestUnorderedNetwork:
    def test_point_to_point_delivery(self):
        _, scheduler, interconnect, deliveries = make_interconnect()
        message = request(src=0, dest=2, msg_type=MessageType.DATA)
        message.dest_unit = DestinationUnit.CACHE
        interconnect.unordered.send(message)
        scheduler.run()
        assert len(deliveries[2]) == 1
        kind, delivered = deliveries[2][0]
        assert kind == "unordered"
        assert delivered.msg_type is MessageType.DATA

    def test_node_without_a_dispatcher_fails_loudly(self):
        scheduler = Scheduler()
        interconnect = Interconnect(
            SystemConfig(num_processors=2), scheduler, StatsRegistry()
        )
        interconnect.unordered.send(request(src=0, dest=1, msg_type=MessageType.DATA))
        with pytest.raises(NetworkError, match="no unordered dispatcher"):
            scheduler.run()

    def test_requires_destination(self):
        _, _, interconnect, _ = make_interconnect()
        with pytest.raises(NetworkError):
            interconnect.unordered.send(request(src=0, dest=None))

    def test_mean_endpoint_utilization(self):
        _, scheduler, interconnect, _ = make_interconnect(bandwidth=800.0)
        broadcast(interconnect, request(src=0))
        scheduler.run()
        assert 0.0 < interconnect.mean_endpoint_utilization(scheduler.now) <= 1.0

    def test_endpoint_utilization_is_the_busier_direction(self):
        _, _, interconnect, _ = make_interconnect(num_nodes=2, bandwidth=1000.0)
        pair = interconnect.links[0]                    # 1 byte per cycle
        pair.incoming.transmit(now=0, size_bytes=80)
        pair.outgoing.transmit(now=0, size_bytes=20)
        # Node 0's incoming link is busy 80 of 100 cycles (all of the first
        # 40); node 1 is idle.
        assert interconnect.mean_endpoint_utilization(100) == pytest.approx(0.4)
        assert interconnect.mean_endpoint_utilization(40) == pytest.approx(0.5)

    def test_idle_interconnect_has_zero_utilization(self):
        _, _, interconnect, _ = make_interconnect()
        assert interconnect.mean_endpoint_utilization(100) == 0.0
        assert interconnect.mean_endpoint_utilization(0) == 0.0
