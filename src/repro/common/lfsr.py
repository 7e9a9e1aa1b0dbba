"""Linear feedback shift register pseudo-random number generator.

The paper (Section 2.2, citing Golomb's "Shift Register Sequences") generates
the random numbers compared against the policy counter with an LFSR, because an
LFSR is trivially cheap in hardware and can be kept off the critical path.  We
implement a Fibonacci LFSR with the maximal-length 16-bit polynomial
``x^16 + x^15 + x^13 + x^4 + 1`` (taps 16, 15, 13, 4), which cycles through all
65535 non-zero states.
"""

from __future__ import annotations

from .._core import stock
from ..errors import ConfigurationError

#: Default register width.
DEFAULT_WIDTH: int = 16

#: Maximal-length tap positions (1-indexed from the output bit) keyed by width.
_MAXIMAL_TAPS = {
    8: (8, 6, 5, 4),
    16: (16, 15, 13, 4),
    24: (24, 23, 22, 17),
    32: (32, 22, 2, 1),
}


@stock
class LinearFeedbackShiftRegister:
    """A Fibonacci LFSR producing a deterministic pseudo-random bit stream."""

    def __init__(self, seed: int = 0xACE1, width: int = DEFAULT_WIDTH) -> None:
        if width not in _MAXIMAL_TAPS:
            raise ConfigurationError(
                f"unsupported LFSR width {width}; choose one of "
                f"{sorted(_MAXIMAL_TAPS)}"
            )
        mask = (1 << width) - 1
        seed &= mask
        if seed == 0:
            raise ConfigurationError("LFSR seed must be non-zero")
        self._width = width
        self._mask = mask
        self._taps = _MAXIMAL_TAPS[width]
        # Tap shifts (width - tap) precomputed: next_bits runs once per BASH
        # broadcast/unicast decision, so the inner loop avoids re-deriving
        # them per bit.
        self._tap_shifts = tuple(width - tap for tap in self._taps)
        self._state = seed

    @property
    def state(self) -> int:
        """Current register contents."""
        return self._state

    @property
    def width(self) -> int:
        """Register width in bits."""
        return self._width

    def next_bit(self) -> int:
        """Shift the register once and return the output bit."""
        feedback = 0
        for tap in self._taps:
            feedback ^= (self._state >> (self._width - tap)) & 1
        output = self._state & 1
        self._state = ((self._state >> 1) | (feedback << (self._width - 1))) & self._mask
        return output

    def next_bits(self, count: int) -> int:
        """Return ``count`` freshly generated bits packed into an integer.

        The shift loop is inlined rather than delegating to :meth:`next_bit`:
        every BASH request pays one ``policy_counter_bits``-wide draw here.
        """
        if count <= 0:
            raise ConfigurationError(f"count must be positive, got {count}")
        state = self._state
        mask = self._mask
        tap_shifts = self._tap_shifts
        top = self._width - 1
        value = 0
        for _ in range(count):
            feedback = 0
            for shift in tap_shifts:
                feedback ^= (state >> shift) & 1
            value = (value << 1) | (state & 1)
            state = ((state >> 1) | (feedback << top)) & mask
        self._state = state
        return value

    def next_int(self, bits: int) -> int:
        """Return a pseudo-random integer uniform over ``[0, 2**bits - 1]``."""
        return self.next_bits(bits)

    def period_is_maximal(self, limit: int | None = None) -> bool:
        """Check (by brute force) that the register cycles through every
        non-zero state before repeating.

        ``limit`` bounds the number of steps examined; by default the full
        ``2**width - 1`` states are walked, which is only practical for small
        widths and is used by the test-suite with ``width=8``.
        """
        expected = (1 << self._width) - 1
        steps = expected if limit is None else min(limit, expected)
        start = self._state
        seen = set()
        for _ in range(steps):
            if self._state in seen:
                return False
            seen.add(self._state)
            self.next_bit()
        self._state = start
        return len(seen) == steps
