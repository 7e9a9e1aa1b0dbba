"""Lightweight statistics primitives used by simulator components.

Components register named counters, running means and histograms here instead
of keeping ad-hoc attributes, so that experiment drivers can collect every
metric from a single registry and the benchmark harness can print the same rows
the paper reports (miss latency, link utilization, broadcast fraction, ...).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .._core import stock


@stock
class Counter:
    """A monotonically increasing event counter."""

    __slots__ = ("name", "_count")

    def __init__(self, name: str) -> None:
        self.name = name
        self._count = 0

    @property
    def count(self) -> int:
        """Number of recorded events."""
        return self._count

    def increment(self, amount: int = 1) -> None:
        """Record ``amount`` additional events."""
        self._count += amount

    def reset(self) -> None:
        """Discard all recorded events."""
        self._count = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, count={self._count})"


@stock
class RunningMean:
    """Streaming mean / variance / extrema accumulator (Welford's algorithm)."""

    __slots__ = ("name", "_count", "_mean", "_m2", "_minimum", "_maximum", "_total")

    def __init__(self, name: str) -> None:
        self.name = name
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._minimum = math.inf
        self._maximum = -math.inf
        self._total = 0.0

    @property
    def count(self) -> int:
        """Number of recorded samples."""
        return self._count

    @property
    def mean(self) -> float:
        """Arithmetic mean of the samples (0.0 when empty)."""
        return self._mean if self._count else 0.0

    @property
    def total(self) -> float:
        """Sum of all samples."""
        return self._total

    @property
    def variance(self) -> float:
        """Population variance of the samples (0.0 with fewer than 2 samples)."""
        if self._count < 2:
            return 0.0
        return self._m2 / self._count

    @property
    def std_dev(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        """Smallest sample seen (``inf`` when empty)."""
        return self._minimum

    @property
    def maximum(self) -> float:
        """Largest sample seen (``-inf`` when empty)."""
        return self._maximum

    def record(self, value: float) -> None:
        """Add one sample."""
        self._count += 1
        self._total += value
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)
        if value < self._minimum:
            self._minimum = value
        if value > self._maximum:
            self._maximum = value

    def record_many(self, values: Iterable[float]) -> None:
        """Add several samples."""
        for value in values:
            self.record(value)

    def reset(self) -> None:
        """Discard all samples."""
        self.__init__(self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunningMean({self.name!r}, count={self._count}, mean={self.mean:.3f})"


class Histogram:
    """A fixed-width bucket histogram with overflow bucket."""

    __slots__ = ("name", "bucket_width", "bucket_count", "_buckets", "_samples")

    def __init__(self, name: str, bucket_width: float, bucket_count: int) -> None:
        if bucket_width <= 0:
            raise ValueError(f"bucket_width must be positive, got {bucket_width}")
        if bucket_count <= 0:
            raise ValueError(f"bucket_count must be positive, got {bucket_count}")
        self.name = name
        self.bucket_width = bucket_width
        self.bucket_count = bucket_count
        self._buckets = [0] * (bucket_count + 1)  # final bucket is overflow
        self._samples = RunningMean(name + ".samples")

    @property
    def buckets(self) -> List[int]:
        """Copy of the bucket occupancy (last entry is the overflow bucket)."""
        return list(self._buckets)

    @property
    def count(self) -> int:
        """Number of recorded samples."""
        return self._samples.count

    @property
    def mean(self) -> float:
        """Mean of the recorded samples."""
        return self._samples.mean

    def record(self, value: float) -> None:
        """Add one sample to the appropriate bucket."""
        index = int(value // self.bucket_width)
        if index < 0:
            index = 0
        if index >= self.bucket_count:
            index = self.bucket_count
        self._buckets[index] += 1
        self._samples.record(value)

    def reset(self) -> None:
        """Discard all samples and empty every bucket."""
        self._buckets = [0] * (self.bucket_count + 1)
        self._samples.reset()

    def percentile(self, fraction: float) -> float:
        """Approximate percentile based on bucket boundaries."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be within [0, 1], got {fraction}")
        if self.count == 0:
            return 0.0
        target = fraction * self.count
        cumulative = 0
        for index, occupancy in enumerate(self._buckets):
            cumulative += occupancy
            if cumulative >= target:
                return (index + 1) * self.bucket_width
        return (self.bucket_count + 1) * self.bucket_width


class StatsRegistry:
    """A flat namespace of named statistics owned by one simulation run."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._means: Dict[str, RunningMean] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._baseline: Optional[Tuple[frozenset, frozenset, frozenset]] = None

    def counter(self, name: str) -> Counter:
        """Return (creating if needed) the counter called ``name``."""
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def running_mean(self, name: str) -> RunningMean:
        """Return (creating if needed) the running mean called ``name``."""
        if name not in self._means:
            self._means[name] = RunningMean(name)
        return self._means[name]

    def histogram(
        self, name: str, bucket_width: float = 25.0, bucket_count: int = 40
    ) -> Histogram:
        """Return (creating if needed) the histogram called ``name``."""
        if name not in self._histograms:
            self._histograms[name] = Histogram(name, bucket_width, bucket_count)
        return self._histograms[name]

    def counters(self) -> Mapping[str, int]:
        """Snapshot of every counter value."""
        return {name: counter.count for name, counter in self._counters.items()}

    def means(self) -> Mapping[str, float]:
        """Snapshot of every running mean."""
        return {name: mean.mean for name, mean in self._means.items()}

    def snapshot(self) -> Dict[str, float]:
        """All counters and means flattened into one dictionary."""
        data: Dict[str, float] = {}
        data.update({name: float(value) for name, value in self.counters().items()})
        data.update(self.means())
        return data

    def mark_baseline(self) -> None:
        """Record the currently registered statistic names as the baseline set.

        Called once a system finishes construction.  A later :meth:`reset`
        zeroes baseline statistics in place (prebound handles stay valid) and
        *removes* statistics registered lazily after the mark, so a reset
        registry reports exactly the names a freshly constructed system would.
        """
        self._baseline = (
            frozenset(self._counters),
            frozenset(self._means),
            frozenset(self._histograms),
        )

    def reset(self) -> None:
        """Reset every registered statistic in place.

        When a baseline has been marked (:meth:`mark_baseline`), statistics
        created after the mark are dropped from the registry instead of being
        zeroed, so snapshots of a reset run never carry ghost names from an
        earlier run.
        """
        baseline = self._baseline
        if baseline is not None:
            counters, means, histograms = baseline
            for name in [n for n in self._counters if n not in counters]:
                del self._counters[name]
            for name in [n for n in self._means if n not in means]:
                del self._means[name]
            for name in [n for n in self._histograms if n not in histograms]:
                del self._histograms[name]
        for counter in self._counters.values():
            counter.reset()
        for mean in self._means.values():
            mean.reset()
        for histogram in self._histograms.values():
            histogram.reset()
