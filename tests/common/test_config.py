"""System configuration objects."""

import pytest

NAN = float("nan")

from repro.common.config import AdaptiveConfig, LatencyConfig, ProtocolName, SystemConfig
from repro.errors import ConfigurationError


class TestLatencyConfig:
    def test_paper_latencies(self):
        latency = LatencyConfig()
        assert latency.memory_fetch == 180
        assert latency.snooping_cache_to_cache == 125
        assert latency.directory_cache_to_cache == 255

    def test_cache_to_cache_is_about_70_percent_of_memory(self):
        latency = LatencyConfig()
        ratio = latency.snooping_cache_to_cache / latency.memory_fetch
        assert 0.65 < ratio < 0.75

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            LatencyConfig(network_traversal=-1)

    @pytest.mark.parametrize(
        "field", ["network_traversal", "dram_access", "cache_response"]
    )
    @pytest.mark.parametrize("value", [NAN, 2.5, 25.0, True, "25"])
    def test_rejects_non_integral_latency(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            LatencyConfig(**{field: value})


class TestAdaptiveConfig:
    def test_defaults_match_paper(self):
        adaptive = AdaptiveConfig()
        assert adaptive.utilization_threshold == 0.75
        assert adaptive.sampling_interval == 512
        assert adaptive.policy_counter_bits == 8

    def test_counter_increments_for_75_percent(self):
        # 75% threshold -> +1 busy / -3 idle, as published.
        assert AdaptiveConfig(utilization_threshold=0.75).counter_increments() == (1, 3)

    def test_counter_increments_balance_at_threshold(self):
        for threshold in (0.55, 0.75, 0.95):
            busy, idle = AdaptiveConfig(
                utilization_threshold=threshold
            ).counter_increments()
            # At exactly the threshold the counter should not drift:
            # busy_fraction * busy == idle_fraction * idle.
            assert threshold * busy == pytest.approx((1 - threshold) * idle, rel=0.02)

    def test_full_swing_cycles_match_paper(self):
        adaptive = AdaptiveConfig()
        swing = adaptive.sampling_interval * ((1 << adaptive.policy_counter_bits) - 1)
        assert swing == 512 * 255  # ~130,000 cycles, as stated in Section 2.2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AdaptiveConfig(utilization_threshold=0.0)
        with pytest.raises(ConfigurationError):
            AdaptiveConfig(utilization_threshold=1.5)
        with pytest.raises(ConfigurationError):
            AdaptiveConfig(sampling_interval=0)
        with pytest.raises(ConfigurationError):
            AdaptiveConfig(retry_buffer_size=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sampling_interval", NAN),
            ("sampling_interval", 512.0),
            ("policy_counter_bits", NAN),
            ("policy_counter_bits", 0),
            ("max_retries_before_broadcast", NAN),
            ("max_retries_before_broadcast", 0),
            ("retry_buffer_size", 1.5),
            ("history_capacity", NAN),
            ("history_capacity", 0),
            ("lfsr_seed", NAN),
            ("lfsr_seed", 1.0),
        ],
    )
    def test_integer_fields_are_integral_and_in_range(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            AdaptiveConfig(**{field: value})


class TestSystemConfig:
    def test_defaults(self):
        config = SystemConfig()
        assert config.num_processors == 16
        assert config.protocol is ProtocolName.BASH
        assert config.bytes_per_cycle == pytest.approx(1.6)
        assert config.cache_capacity_blocks == 65536

    def test_protocol_coercion_from_string(self):
        config = SystemConfig(protocol="snooping")
        assert config.protocol is ProtocolName.SNOOPING

    def test_home_node_interleaving(self):
        config = SystemConfig(num_processors=4)
        homes = {config.home_node(i * 64) for i in range(8)}
        assert homes == {0, 1, 2, 3}
        assert config.home_node(0) == 0
        assert config.home_node(64) == 1

    def test_block_address_alignment(self):
        config = SystemConfig()
        assert config.block_address(130) == 128
        assert config.block_address(64) == 64

    def test_with_helpers(self):
        config = SystemConfig()
        assert config.with_protocol("directory").protocol is ProtocolName.DIRECTORY
        assert config.with_bandwidth(800).bandwidth_mb_per_second == 800
        # Original unchanged (frozen dataclass semantics).
        assert config.protocol is ProtocolName.BASH

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(num_processors=1)
        with pytest.raises(ConfigurationError):
            SystemConfig(bandwidth_mb_per_second=0)
        with pytest.raises(ConfigurationError):
            SystemConfig(broadcast_cost_factor=0.5)
        with pytest.raises(ConfigurationError):
            SystemConfig(cache_capacity_blocks=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("broadcast_cost_factor", float("nan")),
            ("broadcast_cost_factor", float("inf")),
            ("bandwidth_mb_per_second", float("nan")),
        ],
    )
    def test_non_finite_link_parameters_are_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            SystemConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_processors", NAN),
            ("num_processors", 4.0),
            ("cache_capacity_blocks", NAN),
            ("cache_capacity_blocks", 8.5),
            ("cache_block_bytes", 0),
            ("cache_block_bytes", -64),
            ("cache_block_bytes", NAN),
            ("request_message_bytes", NAN),
            ("request_message_bytes", 0),
            ("data_message_bytes", 72.0),
            ("random_seed", NAN),
            ("random_seed", 1.5),
        ],
    )
    def test_integer_fields_are_integral_and_in_range(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            SystemConfig(**{field: value})

    def test_nested_nan_latency_fails_before_any_run(self):
        # A NaN latency must fail here, not in a run: there the pure backend
        # completed while the compiled one raised TypeError.
        with pytest.raises(ConfigurationError, match="network_traversal"):
            SystemConfig(
                num_processors=2, latency=LatencyConfig(network_traversal=NAN)
            )
