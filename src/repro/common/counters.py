"""Saturating hardware-style counters.

The bandwidth adaptive mechanism (Section 2.2 of the paper) is built from two
such counters:

* a *signed* saturating utilization counter that is incremented by one for each
  busy link cycle and decremented by three for each idle cycle (for a 75 %
  utilization target), and
* an *unsigned* saturating policy counter (8 bits in the paper) whose value,
  compared against a pseudo-random number, gives the probability that a request
  is unicast rather than broadcast.

Both are modelled here as small value objects so they can be unit- and
property-tested in isolation from the simulator.
"""

from __future__ import annotations

from .._core import stock
from ..errors import ConfigurationError


class SignedSaturatingCounter:
    """A signed counter that saturates symmetrically at ``+/- limit``."""

    __slots__ = ("_limit", "_value")

    def __init__(self, limit: int, initial: int = 0) -> None:
        if limit <= 0:
            raise ConfigurationError(f"limit must be positive, got {limit}")
        if not -limit <= initial <= limit:
            raise ConfigurationError(
                f"initial value {initial} outside [-{limit}, {limit}]"
            )
        self._limit = limit
        self._value = initial

    @property
    def value(self) -> int:
        """Current counter value."""
        return self._value

    @property
    def limit(self) -> int:
        """Saturation magnitude."""
        return self._limit

    def add(self, delta: int) -> int:
        """Add ``delta`` (may be negative), saturating at the limits."""
        self._value = max(-self._limit, min(self._limit, self._value + delta))
        return self._value

    def reset(self, value: int = 0) -> None:
        """Reset the counter (the paper resets it to zero after each sample)."""
        if not -self._limit <= value <= self._limit:
            raise ConfigurationError(
                f"reset value {value} outside [-{self._limit}, {self._limit}]"
            )
        self._value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SignedSaturatingCounter(value={self._value}, limit={self._limit})"


@stock
class UnsignedSaturatingCounter:
    """An unsigned counter that saturates at ``0`` and ``2**bits - 1``."""

    __slots__ = ("_bits", "_maximum", "_value")

    def __init__(self, bits: int, initial: int = 0) -> None:
        if bits <= 0:
            raise ConfigurationError(f"bits must be positive, got {bits}")
        self._bits = bits
        self._maximum = (1 << bits) - 1
        if not 0 <= initial <= self._maximum:
            raise ConfigurationError(
                f"initial value {initial} outside [0, {self._maximum}]"
            )
        self._value = initial

    @property
    def value(self) -> int:
        """Current counter value."""
        return self._value

    @property
    def bits(self) -> int:
        """Width of the counter in bits."""
        return self._bits

    @property
    def maximum(self) -> int:
        """Largest representable value (``2**bits - 1``)."""
        return self._maximum

    def increment(self, amount: int = 1) -> int:
        """Increase the counter, saturating at ``maximum``."""
        if amount < 0:
            raise ConfigurationError("use decrement() for negative changes")
        self._value = min(self._maximum, self._value + amount)
        return self._value

    def decrement(self, amount: int = 1) -> int:
        """Decrease the counter, saturating at zero."""
        if amount < 0:
            raise ConfigurationError("use increment() for positive changes")
        self._value = max(0, self._value - amount)
        return self._value

    def reset(self, value: int = 0) -> None:
        """Set the counter to an explicit value."""
        if not 0 <= value <= self._maximum:
            raise ConfigurationError(
                f"reset value {value} outside [0, {self._maximum}]"
            )
        self._value = value

    def fraction(self) -> float:
        """Counter value as a fraction of its maximum (0.0 .. 1.0)."""
        return self._value / self._maximum

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UnsignedSaturatingCounter(value={self._value}, bits={self._bits})"
