"""Base class for simulated hardware components."""

from __future__ import annotations

from typing import Any, Callable

from .._core import stock
from ..common.stats import StatsRegistry
from .scheduler import Scheduler


@stock
class Component:
    """Anything that lives on the simulated clock and records statistics.

    A component holds a reference to the shared :class:`Scheduler` and the
    run-wide :class:`StatsRegistry`; subclasses use :meth:`schedule_fast` to
    model latency and the ``stats`` attribute to record metrics under a name
    prefixed with the component's own name.
    """

    def __init__(self, name: str, scheduler: Scheduler, stats: StatsRegistry) -> None:
        self.name = name
        self.scheduler = scheduler
        self.stats = stats
        # Hot-path caches: formatted labels and resolved stat handles, keyed by
        # the (small, fixed) set of suffixes each component uses.
        self._label_prefix = name + ":"
        self._label_cache: dict = {}
        self._counter_cache: dict = {}
        self._mean_cache: dict = {}

    @property
    def now(self) -> int:
        """Current simulation time."""
        return self.scheduler.now

    def schedule_fast(self, delay: int, callback: Callable[[], Any], label: str = "") -> None:
        """Schedule ``callback`` after ``delay`` cycles, tagged with this component."""
        full = self._label_cache.get(label)
        if full is None:
            full = self._label_prefix + label
            self._label_cache[label] = full
        self.scheduler.schedule_after_fast(delay, callback, full)

    def full_label(self, label: str) -> str:
        """The component-prefixed event label for ``label``, memoised.

        Hot call sites resolve their labels once at construction and pass the
        result straight to the scheduler fast-path API, skipping the per-call
        cache probe in :meth:`schedule_fast`.
        """
        full = self._label_cache.get(label)
        if full is None:
            full = self._label_cache[label] = self._label_prefix + label
        return full

    def reset_stat_caches(self) -> None:
        """Drop the lazily resolved stat handles (label caches stay).

        Part of the system reset protocol: the registry prunes statistics
        created after its construction baseline, so any cached handle for a
        pruned name would silently count into an unregistered object.  The
        next :meth:`count`/:meth:`record` re-resolves through the registry —
        baseline names get the same (just-zeroed) object back.
        """
        self._counter_cache.clear()
        self._mean_cache.clear()

    def stat_name(self, suffix: str) -> str:
        """Fully qualified statistic name for this component."""
        return f"{self.name}.{suffix}"

    def count(self, suffix: str, amount: int = 1) -> None:
        """Increment a counter scoped to this component."""
        counter = self._counter_cache.get(suffix)
        if counter is None:
            counter = self.stats.counter(self.stat_name(suffix))
            self._counter_cache[suffix] = counter
        counter._count += amount

    def record(self, suffix: str, value: float) -> None:
        """Record a sample in a running mean scoped to this component."""
        mean = self._mean_cache.get(suffix)
        if mean is None:
            mean = self.stats.running_mean(self.stat_name(suffix))
            self._mean_cache[suffix] = mean
        mean.record(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"
