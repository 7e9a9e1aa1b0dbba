"""Endpoint link bandwidth, FIFO occupancy and busy-time accounting."""

import pytest

from repro.errors import NetworkError
from repro.interconnect.link import EndpointLink


class TestEndpointLink:
    def test_occupancy_matches_size_over_bandwidth(self):
        link = EndpointLink("l", bytes_per_cycle=1.6)
        assert link.occupancy_cycles(72) == 45
        assert link.occupancy_cycles(8) == 5

    def test_broadcast_cost_factor_multiplies_occupancy(self):
        link = EndpointLink("l", bytes_per_cycle=1.6)
        assert link.occupancy_cycles(8, cost_factor=4.0) == 20

    def test_transmit_when_idle(self):
        link = EndpointLink("l", bytes_per_cycle=2.0)
        assert link.transmit(now=100, size_bytes=8) == 104
        assert link.busy_until == 104

    def test_transmit_queues_fifo_behind_busy_link(self):
        link = EndpointLink("l", bytes_per_cycle=2.0)
        first = link.transmit(now=0, size_bytes=72)   # 36 cycles -> done at 36
        second = link.transmit(now=10, size_bytes=8)  # waits, 4 cycles -> 40
        assert first == 36
        assert second == 40

    def test_busy_time_up_to_the_present(self):
        link = EndpointLink("l", bytes_per_cycle=2.0)
        link.transmit(now=0, size_bytes=20)    # busy 0-10
        assert link.busy_time_up_to(0) == 0
        assert link.busy_time_up_to(4) == 4    # mid-transfer: partial credit
        assert link.busy_time_up_to(10) == 10
        assert link.busy_time_up_to(50) == 10  # idle cycles are not busy
        link.transmit(now=50, size_bytes=20)   # new period, busy 50-60
        assert link.busy_time_up_to(50) == 10
        assert link.busy_time_up_to(55) == 15
        assert link.busy_time_up_to(100) == 20

    def test_queued_transfers_extend_the_busy_period(self):
        link = EndpointLink("l", bytes_per_cycle=1.0)
        link.transmit(now=10, size_bytes=20)           # busy 10-30
        assert link.transmit(now=15, size_bytes=5) == 35  # queued, busy to 35
        assert link.transmit(now=35, size_bytes=5) == 40  # back-to-back
        assert link.busy_time_up_to(20) == 10
        assert link.busy_time_up_to(38) == 28
        assert link.busy_time_up_to(100) == 30

    def test_busy_time_before_the_current_period_raises(self):
        link = EndpointLink("node3.in", bytes_per_cycle=1.0)
        link.transmit(now=0, size_bytes=10)
        link.transmit(now=50, size_bytes=10)
        with pytest.raises(NetworkError, match="node3.in"):
            link.busy_time_up_to(49)

    def test_reset_clears_busy_state(self):
        link = EndpointLink("l", bytes_per_cycle=1.0)
        link.transmit(now=0, size_bytes=10)
        link.transmit(now=40, size_bytes=10)   # period from 40, 10 cycles before
        link.reset(bytes_per_cycle=2.0)
        assert link.busy_until == 0
        assert link.busy_time_up_to(0) == 0
        assert link.transmit(now=0, size_bytes=10) == 5
        assert link.busy_time_up_to(3) == 3

    def test_counters(self):
        link = EndpointLink("l", bytes_per_cycle=1.0)
        link.transmit(now=0, size_bytes=8)
        link.transmit(now=0, size_bytes=72)
        assert link.messages_carried == 2
        assert link.bytes_carried == 80

    def test_validation(self):
        with pytest.raises(NetworkError):
            EndpointLink("l", bytes_per_cycle=0)
        link = EndpointLink("l", bytes_per_cycle=1.0)
        with pytest.raises(NetworkError):
            link.occupancy_cycles(0)
        with pytest.raises(NetworkError):
            link.occupancy_cycles(8, cost_factor=0.5)
