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


def _require_int(name: str, value, minimum=None) -> None:
    """Reject a non-integral (a float, NaN, a bool) or out-of-range field.

    A float slips past plain ``<`` tests (every comparison with NaN is
    False) and would fail only deep in a run, or differently on the two
    backends; this fails at construction, naming the field.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, got {value!r}")


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
            _require_int(name, getattr(self, name), 0)

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
    #: ``history_capacity`` are kept (a caller that needs a whole run's
    #: samples sets a capacity above the samples the run takes).
    history_capacity: int = 512

    def __post_init__(self) -> None:
        if not 0.0 < self.utilization_threshold < 1.0:
            raise ConfigurationError(
                "utilization_threshold must be strictly between 0 and 1, got "
                f"{self.utilization_threshold}"
            )
        for name in (
            "sampling_interval",
            "policy_counter_bits",
            "max_retries_before_broadcast",
            "retry_buffer_size",
            "history_capacity",
        ):
            _require_int(name, getattr(self, name), 1)
        _require_int("lfsr_seed", self.lfsr_seed)

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
        _require_int("num_processors", self.num_processors, 2)
        for name in (
            "cache_capacity_blocks",
            "cache_block_bytes",
            "request_message_bytes",
            "data_message_bytes",
        ):
            _require_int(name, getattr(self, name), 1)
        _require_int("random_seed", self.random_seed)
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
