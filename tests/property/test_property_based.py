"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.config import AdaptiveConfig
from repro.common.counters import SignedSaturatingCounter, UnsignedSaturatingCounter
from repro.common.lfsr import LinearFeedbackShiftRegister
from repro.common.stats import RunningMean
from repro.common.units import transfer_cycles
from repro.coherence.directory import DirectoryEntry
from repro.interconnect.link import EndpointLink
from repro.protocols.bash.adaptive import BandwidthAdaptiveMechanism
from repro.queueing.mva import mva_single_station


class TestCounterProperties:
    @given(st.lists(st.integers(min_value=-50, max_value=50), max_size=200))
    def test_signed_counter_never_leaves_its_range(self, deltas):
        counter = SignedSaturatingCounter(limit=100)
        for delta in deltas:
            counter.add(delta)
            assert -100 <= counter.value <= 100

    @given(
        st.integers(min_value=1, max_value=12),
        st.lists(st.tuples(st.booleans(), st.integers(min_value=0, max_value=20)), max_size=100),
    )
    def test_unsigned_counter_never_leaves_its_range(self, bits, steps):
        counter = UnsignedSaturatingCounter(bits=bits)
        for up, amount in steps:
            if up:
                counter.increment(amount)
            else:
                counter.decrement(amount)
            assert 0 <= counter.value <= counter.maximum

    @given(st.lists(st.booleans(), min_size=1, max_size=512))
    def test_utilization_counter_sign_matches_threshold_comparison(self, pattern):
        config = AdaptiveConfig(utilization_threshold=0.75, sampling_interval=len(pattern))
        mechanism = BandwidthAdaptiveMechanism(config)
        for busy in pattern:
            mechanism.observe_cycle(busy)
        utilization = sum(pattern) / len(pattern)
        value = mechanism.utilization_counter.value
        if utilization > 0.75:
            assert value > 0
        elif utilization < 0.75:
            assert value < 0
        else:
            assert value == 0


class TestLfsrProperties:
    @given(st.integers(min_value=1, max_value=0xFFFF), st.integers(min_value=1, max_value=64))
    def test_outputs_fit_width(self, seed, draws):
        lfsr = LinearFeedbackShiftRegister(seed=seed)
        for _ in range(draws):
            assert 0 <= lfsr.next_int(8) <= 255

    @given(st.integers(min_value=1, max_value=0xFFFF))
    def test_state_never_becomes_zero(self, seed):
        lfsr = LinearFeedbackShiftRegister(seed=seed)
        for _ in range(64):
            lfsr.next_bit()
            assert lfsr.state != 0


def union_length_before(intervals, time):
    """Cycles in ``[0, time)`` covered by any ``[start, finish)`` interval."""
    covered, reach = 0, 0
    for start, finish in sorted(intervals):
        start, finish = max(start, reach), min(finish, time)
        if finish > start:
            covered += finish - start
        reach = max(reach, finish)
    return covered


class TestLinkProperties:
    @given(
        st.sampled_from([0.35, 1.0, 1.6]),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=300),
                st.integers(min_value=1, max_value=200),
                st.sampled_from([1.0, 1.0, 4.0, 2.5]),
            ),
            min_size=1,
            max_size=60,
        ),
    )
    def test_present_busy_time_is_the_union_of_busy_intervals(
        self, bandwidth, transfers
    ):
        link = EndpointLink("l", bytes_per_cycle=bandwidth)
        intervals = []
        now = 0
        for delay, size, cost in transfers:
            now += delay
            finish = link.transmit(now=now, size_bytes=size, cost_factor=cost)
            intervals.append((finish - link.occupancy_cycles(size, cost), finish))
            # Every time from the present on is answerable and exact.
            for t in (now, (now + finish) // 2, finish, finish + 7):
                assert link.busy_time_up_to(t) == union_length_before(intervals, t)
        assert link.busy_time_up_to(link.busy_until) == sum(
            finish - start for start, finish in intervals
        )

    @given(
        size=st.integers(min_value=1, max_value=4096),
        bandwidth=st.floats(min_value=0.05, max_value=64.0),
    )
    @example(size=693, bandwidth=0.35)
    def test_transfer_cycles_cover_the_payload(self, size, bandwidth):
        cycles = transfer_cycles(size, bandwidth)
        assert cycles * bandwidth >= size - 1e-6
        assert (cycles - 1) * bandwidth < size or cycles == 1


class TestDirectoryEntryProperties:
    @given(
        st.integers(min_value=0, max_value=7),
        st.sets(st.integers(min_value=0, max_value=7), max_size=8),
        st.integers(min_value=-1, max_value=7),
        st.sets(st.integers(min_value=0, max_value=7), max_size=8),
    )
    def test_superset_recipients_preserve_sufficiency(self, requester, sharers, owner, recipients):
        entry = DirectoryEntry(address=0, owner=owner, sharers=set(sharers))
        base = frozenset(recipients)
        everyone = frozenset(range(8))
        for is_getm in (True, False):
            if entry.is_sufficient(is_getm, requester, base):
                assert entry.is_sufficient(is_getm, requester, everyone)

    @given(st.sets(st.integers(min_value=0, max_value=15), max_size=16), st.integers(min_value=0, max_value=15))
    def test_broadcast_is_always_sufficient(self, sharers, owner):
        entry = DirectoryEntry(address=0, owner=owner, sharers=set(sharers))
        everyone = frozenset(range(16))
        assert entry.is_sufficient(True, 0, everyone)
        assert entry.is_sufficient(False, 0, everyone)


class TestStatsProperties:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=300))
    def test_running_mean_matches_batch_mean(self, values):
        mean = RunningMean("x")
        mean.record_many(values)
        assert mean.mean == (sum(values) / len(values)) or math.isclose(
            mean.mean, sum(values) / len(values), rel_tol=1e-9, abs_tol=1e-6
        )
        assert mean.minimum == min(values)
        assert mean.maximum == max(values)


class TestQueueingProperties:
    @settings(max_examples=30)
    @given(
        st.integers(min_value=1, max_value=64),
        st.floats(min_value=0.1, max_value=4.0),
        st.floats(min_value=0.0, max_value=100.0),
    )
    def test_mva_outputs_are_physical(self, customers, service, think):
        point = mva_single_station(customers, service, think)
        assert 0.0 <= point.utilization <= 1.0
        assert point.queueing_delay >= 0.0
        assert point.throughput * service <= 1.0 + 1e-9
        assert point.queue_length <= customers + 1e-9
