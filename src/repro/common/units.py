"""Unit conversions used throughout the simulator.

The paper's timing model (Section 4.2) is expressed in nanoseconds and the
simulator runs with a 1 ns cycle (a 2 GHz processor with a perfect-L2 IPC of 2,
i.e. four billion instructions per second).  Bandwidth is quoted in megabytes
per second of endpoint link bandwidth; internally the interconnect works in
bytes per cycle.
"""

from __future__ import annotations

import math

from ..errors import ConfigurationError

#: Simulated cycles per second (1 cycle == 1 ns).
CYCLES_PER_SECOND: int = 1_000_000_000

#: Bytes in a megabyte as used by the paper's "MB/second" axis labels.
BYTES_PER_MEGABYTE: int = 1_000_000


def mb_per_second_to_bytes_per_cycle(mb_per_second: float) -> float:
    """Convert an endpoint bandwidth in MB/s to bytes per simulated cycle.

    >>> mb_per_second_to_bytes_per_cycle(1600)
    1.6
    """
    if mb_per_second <= 0:
        raise ConfigurationError(
            f"bandwidth must be positive, got {mb_per_second!r} MB/s"
        )
    return mb_per_second * BYTES_PER_MEGABYTE / CYCLES_PER_SECOND


def bytes_per_cycle_to_mb_per_second(bytes_per_cycle: float) -> float:
    """Convert bytes per simulated cycle back to MB/s."""
    if bytes_per_cycle <= 0:
        raise ConfigurationError(
            f"bandwidth must be positive, got {bytes_per_cycle!r} bytes/cycle"
        )
    return bytes_per_cycle * CYCLES_PER_SECOND / BYTES_PER_MEGABYTE


def transfer_cycles(size_bytes: int, bytes_per_cycle: float) -> int:
    """Number of cycles a message of ``size_bytes`` occupies a link.

    The occupancy is rounded up to a whole cycle and is never less than one
    cycle, matching a link that transmits at most ``bytes_per_cycle`` each
    cycle.  A quotient within two units in the last place of a whole number
    *is* that whole number: float division can overshoot an exact quotient
    (``693 / 0.35`` gives ``1980.0000000000002``), which would otherwise
    charge a spurious extra cycle.

    >>> transfer_cycles(693, 0.35)
    1980
    """
    if size_bytes <= 0:
        raise ConfigurationError(f"message size must be positive, got {size_bytes}")
    if bytes_per_cycle <= 0:
        raise ConfigurationError(
            f"bandwidth must be positive, got {bytes_per_cycle!r} bytes/cycle"
        )
    quotient = size_bytes / bytes_per_cycle
    return max(1, math.ceil(quotient - 2 * math.ulp(quotient)))


def nanoseconds_to_cycles(nanoseconds: float) -> int:
    """Convert a latency in nanoseconds to whole cycles (1 cycle == 1 ns)."""
    if nanoseconds < 0:
        raise ConfigurationError(f"latency must be non-negative, got {nanoseconds}")
    return int(round(nanoseconds))
