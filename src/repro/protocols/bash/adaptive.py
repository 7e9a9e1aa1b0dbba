"""The bandwidth adaptive mechanism of Section 2.

Each processor decides per request whether to broadcast or unicast, using only
a local estimate of interconnect utilization:

1. A signed saturating *utilization counter* observes the processor's own link:
   for a target utilization of ``p/q`` it adds ``q - p`` for every busy cycle
   and subtracts ``p`` for every idle cycle, so its sign after a sampling
   interval tells whether utilization exceeded the threshold (the paper's 75 %
   target yields the published +1 busy / -3 idle pair).
2. Every ``sampling_interval`` cycles (512 in the paper) an unsigned saturating
   *policy counter* (8 bits in the paper) is incremented when the utilization
   counter is positive and decremented when it is negative; the utilization
   counter is then reset.
3. A request is unicast when the policy counter exceeds a pseudo-random number
   ``r`` of the same width drawn from an LFSR (``r < policy``); otherwise it is
   broadcast.  ``r`` takes ``2**bits`` values, so the unicast probability is
   ``policy / 2**bits``: 0 at an empty counter, at most ``255/256`` at a
   saturated 8-bit one (a broadcast still happens when ``r`` is all ones).

With the default parameters the mechanism can swing from always-broadcast to
mostly-unicast (or back) in ``512 * 255 ≈ 130,000`` cycles of consistently
high/low utilization — about a thousand L2 misses on the paper's target system.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence

from ..._core import stock
from ...common.config import AdaptiveConfig
from ...common.counters import SignedSaturatingCounter, UnsignedSaturatingCounter
from ...common.lfsr import LinearFeedbackShiftRegister


@stock
@dataclass(slots=True)
class AdaptiveSample:
    """Snapshot of one sampling-interval update (useful for tests and plots).

    Treat instances as immutable.  Not ``frozen=True``: one is allocated per
    node per sampling interval, and a frozen dataclass pays an
    ``object.__setattr__`` call per field where this pays a plain store.
    """

    time: int
    utilization: float
    utilization_counter: int
    policy_counter: int
    unicast_probability: float


@stock
class BandwidthAdaptiveMechanism:
    """Per-processor broadcast/unicast policy driven by local link utilization."""

    def __init__(self, config: AdaptiveConfig, lfsr_seed: Optional[int] = None) -> None:
        seed = config.lfsr_seed if lfsr_seed is None else lfsr_seed
        self._seed = seed
        self.config = config
        busy_delta, idle_delta = config.counter_increments()
        self._busy_delta = busy_delta
        self._idle_delta = idle_delta
        # The utilization counter must be wide enough never to saturate within
        # one sampling interval so that its sign is an exact threshold test.
        limit = config.sampling_interval * max(busy_delta, idle_delta) + 1
        self.utilization_counter = SignedSaturatingCounter(limit=limit)
        self.policy_counter = UnsignedSaturatingCounter(bits=config.policy_counter_bits)
        self.lfsr = LinearFeedbackShiftRegister(seed=seed)
        #: The most recent ``history_capacity`` samples (PAPER-scale runs take
        #: millions of samples per node).
        self.history: Deque[AdaptiveSample] = deque(maxlen=config.history_capacity)
        self._broadcasts = 0
        self._unicasts = 0

    def reset(
        self, config: Optional[AdaptiveConfig] = None, lfsr_seed: Optional[int] = None
    ) -> None:
        """Return to the exact post-construction state, optionally re-parameterised.

        Re-running ``__init__`` rebuilds the saturating counters (whose widths
        depend on the threshold and sampling interval), re-seeds the LFSR, and
        empties the history — a reset mechanism is indistinguishable from a
        freshly constructed one, which the sweep engine's reset-equivalence
        contract relies on.
        """
        self.__init__(
            self.config if config is None else config,
            self._seed if lfsr_seed is None else lfsr_seed,
        )

    # ----------------------------------------------------------- observation

    def observe_cycles(self, busy_cycles: int, idle_cycles: int) -> int:
        """Feed one sampling interval's worth of busy/idle cycles.

        Equivalent to stepping the hardware counter once per cycle: the counter
        value after the interval is ``busy * (q - p) - idle * p`` (clamped), so
        its sign reports whether utilization exceeded ``p / q``.
        """
        self.utilization_counter.add(busy_cycles * self._busy_delta)
        self.utilization_counter.add(-idle_cycles * self._idle_delta)
        return self.utilization_counter.value

    def observe_cycle(self, busy: bool) -> int:
        """Feed a single cycle (used by the Figure 3 walk-through and tests)."""
        if busy:
            return self.utilization_counter.add(self._busy_delta)
        return self.utilization_counter.add(-self._idle_delta)

    # --------------------------------------------------------------- sampling

    def sample(self, time: int = 0, utilization: float = 0.0) -> AdaptiveSample:
        """End a sampling interval: adjust the policy counter and reset.

        A positive utilization counter (link above threshold) makes broadcasts
        less likely by incrementing the policy counter; a negative one makes
        them more likely.
        """
        value = self.utilization_counter.value
        if value > 0:
            self.policy_counter.increment()
        elif value < 0:
            self.policy_counter.decrement()
        self.utilization_counter.reset()
        sample = AdaptiveSample(
            time=time,
            utilization=utilization,
            utilization_counter=value,
            policy_counter=self.policy_counter.value,
            unicast_probability=self.unicast_probability,
        )
        self.history.append(sample)
        return sample

    def observe_window(
        self, busy: int, idle: int, time: int, utilization: float
    ) -> AdaptiveSample:
        """Fused :meth:`observe_cycles` + :meth:`sample` for the sampling event.

        Valid only under the sampling loop's invariant that the utilization
        counter is zero at window start (it is reset after every sample): the
        raw sum ``busy*(q-p) - idle*p`` then equals the two sequential
        saturating adds, because the counter limit is sized so neither partial
        sum can reach it within one interval (``limit = interval *
        max(deltas) + 1`` and ``busy + idle = interval``).  One sampling event
        per node per interval makes this the BASH-specific hot path, so the
        counters' slots are updated directly instead of through their
        saturating method calls — the net counter state (zero, ready for the
        next window) and every :class:`AdaptiveSample` field are identical.
        """
        value = busy * self._busy_delta - idle * self._idle_delta
        policy = self.policy_counter
        if value > 0:
            if policy._value < policy._maximum:
                policy._value += 1
        elif value < 0:
            if policy._value > 0:
                policy._value -= 1
        sample = AdaptiveSample(
            time=time,
            utilization=utilization,
            utilization_counter=value,
            policy_counter=policy._value,
            unicast_probability=policy._value / policy._maximum,
        )
        self.history.append(sample)
        return sample

    def observe_interval(
        self, utilization: float, time: int = 0
    ) -> AdaptiveSample:
        """Convenience: feed a whole interval at a given utilization and sample."""
        busy = int(round(utilization * self.config.sampling_interval))
        busy = max(0, min(self.config.sampling_interval, busy))
        idle = self.config.sampling_interval - busy
        self.observe_cycles(busy, idle)
        return self.sample(time=time, utilization=utilization)

    # --------------------------------------------------------------- decision

    @property
    def unicast_probability(self) -> float:
        """The policy counter as a fraction of its maximum, ``policy / (2**bits - 1)``.

        This is the statistic every sample records (and the figures plot).
        The true chance that :meth:`should_broadcast` unicasts is slightly
        lower, ``policy / 2**bits``, since the drawn number ranges over
        ``2**bits`` values; it never reaches 1.
        """
        return self.policy_counter.fraction()

    def should_broadcast(self) -> bool:
        """Decide the fate of one outgoing request.

        The processor compares the policy counter against a freshly generated
        pseudo-random number of the same width: it unicasts when the policy
        counter is larger, and broadcasts otherwise (so even a saturated
        counter broadcasts when the number is all ones).  The comparison
        happens off the critical path in hardware, so it adds no latency here
        either.
        """
        random_value = self.lfsr.next_int(self.policy_counter.bits)
        broadcast = self.policy_counter.value <= random_value
        if broadcast:
            self._broadcasts += 1
        else:
            self._unicasts += 1
        return broadcast

    # ------------------------------------------------------------- reporting

    @property
    def decisions(self) -> int:
        """Total number of broadcast/unicast decisions taken."""
        return self._broadcasts + self._unicasts

    @property
    def broadcast_fraction(self) -> float:
        """Fraction of decisions that chose to broadcast."""
        if not self.decisions:
            return 0.0
        return self._broadcasts / self.decisions


def utilization_counter_trace(
    busy_pattern: Sequence[bool], config: Optional[AdaptiveConfig] = None
) -> List[int]:
    """Counter values after each cycle of ``busy_pattern`` (Figure 3).

    The paper's example feeds the pattern idle, busy, busy, idle, busy, idle,
    busy through a 75 % threshold counter and ends at -5 (4 busy, 3 idle:
    ``4*1 - 3*3``).
    """
    mechanism = BandwidthAdaptiveMechanism(config or AdaptiveConfig())
    return [mechanism.observe_cycle(busy) for busy in busy_pattern]
