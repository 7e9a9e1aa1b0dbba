"""Configuration objects for building simulated systems.

A :class:`SystemConfig` fully describes one simulated machine: the number of
processors, the endpoint link bandwidth, the timing model, the coherence
protocol, and (for BASH) the parameters of the bandwidth adaptive mechanism.
Experiment drivers construct these and hand them to
:func:`repro.system.builder.build_system`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from typing import Tuple

from .._core import stock
from ..errors import ConfigurationError
from . import constants
from .units import mb_per_second_to_bytes_per_cycle


class ProtocolName(str, Enum):
    """The three protocols evaluated in the paper."""

    SNOOPING = "snooping"
    DIRECTORY = "directory"
    BASH = "bash"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class LatencyConfig:
    """Fixed latencies of the timing model (Section 4.2), in cycles."""

    network_traversal: int = constants.NETWORK_TRAVERSAL_CYCLES
    dram_access: int = constants.DRAM_ACCESS_CYCLES
    cache_response: int = constants.CACHE_RESPONSE_CYCLES

    def __post_init__(self) -> None:
        for name in ("network_traversal", "dram_access", "cache_response"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigurationError(f"{name} must be non-negative, got {value}")

    @property
    def memory_fetch(self) -> int:
        """Uncontended latency of a fetch satisfied by memory."""
        return self.network_traversal + self.dram_access + self.network_traversal

    @property
    def snooping_cache_to_cache(self) -> int:
        """Uncontended latency of a broadcast-satisfied cache-to-cache transfer."""
        return self.network_traversal + self.cache_response + self.network_traversal

    @property
    def directory_cache_to_cache(self) -> int:
        """Uncontended latency of an indirected cache-to-cache transfer."""
        return (
            self.network_traversal
            + self.dram_access
            + self.network_traversal
            + self.cache_response
            + self.network_traversal
        )


@dataclass(frozen=True)
class AdaptiveConfig:
    """Parameters of the BASH bandwidth adaptive mechanism (Section 2.2)."""

    utilization_threshold: float = constants.DEFAULT_UTILIZATION_THRESHOLD
    sampling_interval: int = constants.DEFAULT_SAMPLING_INTERVAL_CYCLES
    policy_counter_bits: int = constants.DEFAULT_POLICY_COUNTER_BITS
    lfsr_seed: int = 0xACE1
    max_retries_before_broadcast: int = constants.BASH_MAX_RETRIES_BEFORE_BROADCAST
    retry_buffer_size: int = 16
    #: Ring-buffer capacity of each mechanism's sample history.  PAPER-scale
    #: runs take millions of samples per node; only the most recent
    #: ``history_capacity`` are kept unless ``record_full_history`` opts into
    #: unbounded recording (plots and tests that replay whole traces).
    history_capacity: int = 512
    record_full_history: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.utilization_threshold < 1.0:
            raise ConfigurationError(
                "utilization_threshold must be strictly between 0 and 1, got "
                f"{self.utilization_threshold}"
            )
        if self.sampling_interval <= 0:
            raise ConfigurationError(
                f"sampling_interval must be positive, got {self.sampling_interval}"
            )
        if self.policy_counter_bits <= 0:
            raise ConfigurationError(
                f"policy_counter_bits must be positive, got {self.policy_counter_bits}"
            )
        if self.max_retries_before_broadcast < 1:
            raise ConfigurationError(
                "max_retries_before_broadcast must be at least 1, got "
                f"{self.max_retries_before_broadcast}"
            )
        if self.retry_buffer_size < 1:
            raise ConfigurationError(
                f"retry_buffer_size must be at least 1, got {self.retry_buffer_size}"
            )
        if self.history_capacity < 1:
            raise ConfigurationError(
                f"history_capacity must be at least 1, got {self.history_capacity}"
            )

    def counter_increments(self) -> Tuple[int, int]:
        """The (busy, idle) deltas of the utilization counter.

        For a threshold of ``p/q`` the counter adds ``q - p`` per busy cycle and
        subtracts ``p`` per idle cycle, so it is positive over a sampling
        interval exactly when the measured utilization exceeds the threshold.
        The paper's 75 % threshold yields the published +1 / -3 pair.
        """
        ratio = Fraction(self.utilization_threshold).limit_denominator(100)
        busy_delta = ratio.denominator - ratio.numerator
        idle_delta = ratio.numerator
        return busy_delta, idle_delta


@stock
@dataclass(frozen=True)
class SystemConfig:
    """Complete description of one simulated multiprocessor."""

    num_processors: int = 16
    protocol: ProtocolName = ProtocolName.BASH
    bandwidth_mb_per_second: float = 1600.0
    broadcast_cost_factor: float = 1.0
    latency: LatencyConfig = field(default_factory=LatencyConfig)
    adaptive: AdaptiveConfig = field(default_factory=AdaptiveConfig)
    cache_capacity_blocks: int = (
        constants.DEFAULT_L2_CAPACITY_BYTES // constants.CACHE_BLOCK_BYTES
    )
    cache_block_bytes: int = constants.CACHE_BLOCK_BYTES
    request_message_bytes: int = constants.REQUEST_MESSAGE_BYTES
    data_message_bytes: int = constants.DATA_MESSAGE_BYTES
    random_seed: int = 1

    def __post_init__(self) -> None:
        if self.num_processors < 2:
            raise ConfigurationError(
                f"need at least 2 processors, got {self.num_processors}"
            )
        # Written so that NaN fails each test (every comparison with NaN is
        # False) instead of slipping through to the first link transfer.
        if not self.bandwidth_mb_per_second > 0:
            raise ConfigurationError(
                "bandwidth_mb_per_second must be positive, got "
                f"{self.bandwidth_mb_per_second}"
            )
        if not 1.0 <= self.broadcast_cost_factor < math.inf:
            raise ConfigurationError(
                "broadcast_cost_factor must be finite and >= 1, got "
                f"{self.broadcast_cost_factor}"
            )
        if self.cache_capacity_blocks < 1:
            raise ConfigurationError(
                "cache_capacity_blocks must be positive, got "
                f"{self.cache_capacity_blocks}"
            )
        if self.request_message_bytes <= 0 or self.data_message_bytes <= 0:
            raise ConfigurationError("message sizes must be positive")
        if not isinstance(self.protocol, ProtocolName):
            object.__setattr__(self, "protocol", ProtocolName(self.protocol))

    @property
    def bytes_per_cycle(self) -> float:
        """Endpoint link bandwidth in bytes per simulated cycle."""
        return mb_per_second_to_bytes_per_cycle(self.bandwidth_mb_per_second)

    def home_node(self, address: int) -> int:
        """The node whose memory controller is home for ``address``.

        Memory is interleaved across the nodes at cache-block granularity,
        matching the paper's integrated processor/memory nodes.
        """
        return (address // self.cache_block_bytes) % self.num_processors

    def block_address(self, address: int) -> int:
        """The cache-block-aligned address containing ``address``."""
        return address - (address % self.cache_block_bytes)

    def with_protocol(self, protocol: ProtocolName) -> "SystemConfig":
        """A copy of this configuration running a different protocol."""
        return replace(self, protocol=ProtocolName(protocol))

    def with_bandwidth(self, mb_per_second: float) -> "SystemConfig":
        """A copy of this configuration with a different link bandwidth."""
        return replace(self, bandwidth_mb_per_second=mb_per_second)
