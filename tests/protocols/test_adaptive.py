"""The bandwidth adaptive mechanism (Section 2.2, Figure 3)."""

import pytest

from repro.common.config import AdaptiveConfig
from repro.errors import ConfigurationError
from repro.protocols.bash.adaptive import (
    BandwidthAdaptiveMechanism,
    utilization_counter_trace,
)


class TestUtilizationCounter:
    def test_figure3_example_ends_at_minus_five(self):
        # Link used 4 of the previous 7 cycles (57%) with a 75% target:
        # 4 * (+1) + 3 * (-3) = -5.
        pattern = [False, True, True, False, True, False, True]
        values = utilization_counter_trace(pattern)
        assert values[-1] == -5

    def test_counter_positive_above_threshold(self):
        mechanism = BandwidthAdaptiveMechanism(AdaptiveConfig())
        # 90% utilization over a 512-cycle interval.
        value = mechanism.observe_cycles(busy_cycles=461, idle_cycles=51)
        assert value > 0

    def test_counter_negative_below_threshold(self):
        mechanism = BandwidthAdaptiveMechanism(AdaptiveConfig())
        value = mechanism.observe_cycles(busy_cycles=256, idle_cycles=256)
        assert value < 0

    def test_counter_zero_exactly_at_threshold(self):
        mechanism = BandwidthAdaptiveMechanism(AdaptiveConfig())
        value = mechanism.observe_cycles(busy_cycles=384, idle_cycles=128)
        assert value == 0

    def test_other_thresholds_balance(self):
        for threshold, busy, idle in ((0.55, 55, 45), (0.95, 95, 5)):
            mechanism = BandwidthAdaptiveMechanism(
                AdaptiveConfig(utilization_threshold=threshold, sampling_interval=100)
            )
            assert mechanism.observe_cycles(busy, idle) == 0


class TestPolicyCounter:
    def test_sustained_high_utilization_drives_toward_unicast(self):
        mechanism = BandwidthAdaptiveMechanism(AdaptiveConfig(policy_counter_bits=8))
        for _ in range(300):
            mechanism.observe_interval(utilization=0.95)
        assert mechanism.unicast_probability == pytest.approx(1.0)

    def test_sustained_low_utilization_drives_toward_broadcast(self):
        mechanism = BandwidthAdaptiveMechanism(AdaptiveConfig(policy_counter_bits=8))
        for _ in range(300):
            mechanism.observe_interval(utilization=0.95)
        for _ in range(300):
            mechanism.observe_interval(utilization=0.10)
        assert mechanism.unicast_probability == pytest.approx(0.0)

    def test_full_swing_takes_2_to_the_bits_samples(self):
        mechanism = BandwidthAdaptiveMechanism(AdaptiveConfig(policy_counter_bits=8))
        for count in range(1, 256):
            mechanism.observe_interval(utilization=1.0)
            assert mechanism.policy_counter.value == count
        mechanism.observe_interval(utilization=1.0)
        assert mechanism.policy_counter.value == 255  # saturated

    def test_utilization_counter_reset_after_sample(self):
        mechanism = BandwidthAdaptiveMechanism(AdaptiveConfig())
        mechanism.observe_interval(utilization=1.0)
        assert mechanism.utilization_counter.value == 0

    def test_history_records_samples(self):
        mechanism = BandwidthAdaptiveMechanism(AdaptiveConfig())
        mechanism.observe_interval(utilization=0.9, time=512)
        assert len(mechanism.history) == 1
        sample = mechanism.history[0]
        assert sample.time == 512
        assert sample.policy_counter == 1


class TestDecision:
    def test_policy_zero_always_broadcasts(self):
        mechanism = BandwidthAdaptiveMechanism(AdaptiveConfig())
        assert all(mechanism.should_broadcast() for _ in range(200))
        assert mechanism.broadcast_fraction == 1.0

    def test_policy_saturated_never_broadcasts(self):
        mechanism = BandwidthAdaptiveMechanism(AdaptiveConfig())
        mechanism.policy_counter.reset(mechanism.policy_counter.maximum)
        broadcasts = sum(mechanism.should_broadcast() for _ in range(200))
        assert broadcasts == 0

    def test_intermediate_policy_gives_intermediate_probability(self):
        mechanism = BandwidthAdaptiveMechanism(AdaptiveConfig())
        mechanism.policy_counter.reset(100)  # 39% unicast probability
        decisions = [mechanism.should_broadcast() for _ in range(4000)]
        broadcast_fraction = sum(decisions) / len(decisions)
        assert broadcast_fraction == pytest.approx(1 - 100 / 255, abs=0.06)

    def test_decision_counters(self):
        mechanism = BandwidthAdaptiveMechanism(AdaptiveConfig())
        for _ in range(10):
            mechanism.should_broadcast()
        assert mechanism.decisions == 10


class TestHistoryBounds:
    def test_history_is_a_ring_buffer_by_default(self):
        config = AdaptiveConfig(history_capacity=4)
        mechanism = BandwidthAdaptiveMechanism(config)
        for index in range(10):
            mechanism.observe_interval(utilization=0.5, time=index)
        assert len(mechanism.history) == 4
        # The ring keeps the most recent samples.
        assert [sample.time for sample in mechanism.history] == [6, 7, 8, 9]

    def test_capacity_above_the_samples_keeps_every_one(self):
        config = AdaptiveConfig(history_capacity=16)
        mechanism = BandwidthAdaptiveMechanism(config)
        for index in range(10):
            mechanism.observe_interval(utilization=0.5, time=index)
        assert [sample.time for sample in mechanism.history] == list(range(10))

    def test_history_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            AdaptiveConfig(history_capacity=0)
