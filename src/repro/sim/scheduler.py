"""The event queue at the heart of the discrete-event simulator.

This is the repository's hottest loop: a full figure reproduction fires
hundreds of millions of events through it.  The design choices are therefore
throughput-driven:

* the queue is a *bucket queue*: a dict mapping each distinct timestamp to a
  FIFO list of entries, plus a small heap of the distinct timestamps
  themselves.  Protocol traffic is bursty — a broadcast fans out to every
  node at the same cycle — so the multiprocessor workloads average ~5 events
  per distinct time, and a push is usually a C-level ``dict.get`` +
  ``list.append`` instead of a heap sift;
* an entry has one of two shapes: ``(callback, label)``, fired as
  ``callback()``, or ``(callback, label, arg)``, fired as ``callback(arg)``.
  Its time is the key of its bucket, and entries are appended in schedule
  order, so FIFO draining reproduces the classic ``(time, sequence)`` heap
  order exactly without storing either;
* events cannot be cancelled: every queued entry fires unless a bound stops
  the run or :meth:`drain` discards the queue;
* :meth:`run` inlines the drain fast path — no per-event method calls beyond
  the event callback itself, and the clock and bound checks are paid once per
  *bucket* rather than once per event.

``pending`` is the number of queued entries, and ``run(until=...)`` stops the
clock at ``until`` without firing or leaking any later event.

The network fast paths (see :mod:`repro.interconnect.ordered_network` /
``unordered_network``) push entries directly into ``_buckets``/``_times``;
both containers are therefore cleared *in place* on :meth:`drain`/:meth:`reset`
so compiled closures holding references stay valid across system resets.
"""

from __future__ import annotations

from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, Dict, List, Optional

from .. import _core
from ..errors import SimulationError

#: Sentinel bound for `run`'s until/max_events checks: larger than any event
#: time or counter, so "no bound" needs no per-event None test.
_NO_BOUND = float("inf")


class Scheduler:
    """A time-ordered bucket queue of simulation events."""

    __slots__ = (
        "_buckets",
        "_times",
        "now",
        "_fired",
        "on_fire",
        "_fire_hooks",
        "_installed_fire",
        "arena",
    )

    def __init__(self) -> None:
        #: time -> FIFO list of entries scheduled for that cycle.
        self._buckets: Dict[int, list] = {}
        #: Min-heap of the bucket timestamps.
        self._times: List[int] = []
        #: Current simulation time in cycles.  A plain attribute (not a
        #: property): it is read on every schedule call and in most event
        #: callbacks, where a Python-level descriptor call is measurable.
        self.now = 0
        self._fired = 0
        #: Optional per-fired-event hook ``(time, label) -> None`` used by the
        #: golden-trace tests and ad-hoc tracing; ``None`` costs one branch.
        #: Multiple observers (e.g. a golden-trace recorder plus a
        #: verification event ring buffer) subscribe through
        #: :meth:`add_fire_hook`, which composes them into this one callable.
        self.on_fire: Optional[Callable[[int, str], None]] = None
        #: Subscribed fire hooks backing the composed ``on_fire`` callable.
        #: Empty while ``on_fire`` was assigned directly (the legacy single
        #: -observer surface, still used by the golden-trace tests).
        self._fire_hooks: List[Callable[[int, str], None]] = []
        #: What the hook machinery last installed into ``on_fire``; a
        #: mismatch at the next add/remove means the caller assigned
        #: ``on_fire`` directly in between, and that assignment wins.
        self._installed_fire: Optional[Callable[[int, str], None]] = None
        #: Optional :class:`repro.sim.arena.SimulationArena` shared by every
        #: component built on this scheduler.  Controllers and networks consult
        #: it once at construction to prebind their pooled allocation/release
        #: paths; ``None`` means plain allocation everywhere.
        self.arena = None

    # ------------------------------------------------------------- accounting

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return sum(map(len, self._buckets.values()))

    @property
    def fired(self) -> int:
        """Number of events executed so far."""
        return self._fired

    # -------------------------------------------------------------- fire hooks

    def add_fire_hook(self, hook: Callable[[int, str], None]) -> None:
        """Subscribe ``hook(time, label)`` to every fired event.

        Hooks compose: any number of observers may subscribe and each sees
        every event, in subscription order.  Assigning ``on_fire`` directly
        (the legacy single-observer surface) stays authoritative: whatever
        was assigned since the last add/remove replaces the whole observer
        set and is adopted as the sole base subscriber.  Hooks survive
        :meth:`reset` like ``on_fire`` does — they belong to the harness
        around the scheduler, not to one run.
        """
        self._sync_external_assignment()
        self._fire_hooks.append(hook)
        self._rebind_fire_hooks()

    def remove_fire_hook(self, hook: Callable[[int, str], None]) -> None:
        """Unsubscribe a hook added with :meth:`add_fire_hook` (idempotent)."""
        self._sync_external_assignment()
        try:
            self._fire_hooks.remove(hook)
        except ValueError:
            return
        self._rebind_fire_hooks()

    def _sync_external_assignment(self) -> None:
        """Adopt a direct ``on_fire`` assignment made since the last rebind.

        The legacy surface wins: a caller that assigned (or cleared)
        ``on_fire`` directly replaced the observer set, so the hook list is
        rebuilt from the current value rather than resurrecting stale
        subscribers.
        """
        if self.on_fire is not self._installed_fire:
            self._fire_hooks.clear()
            if self.on_fire is not None:
                self._fire_hooks.append(self.on_fire)

    def _rebind_fire_hooks(self) -> None:
        hooks = self._fire_hooks
        if not hooks:
            self.on_fire = None
        elif len(hooks) == 1:
            self.on_fire = hooks[0]
        else:
            chain = tuple(hooks)

            def _fan_out(time: int, label: str) -> None:
                for fire_hook in chain:
                    fire_hook(time, label)

            self.on_fire = _fan_out
        self._installed_fire = self.on_fire

    # -------------------------------------------------------------- scheduling

    def schedule_after_fast(
        self, delay: int, callback: Callable[[], Any], label: str = ""
    ) -> None:
        """Schedule ``callback()`` ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        time = self.now + delay
        buckets = self._buckets
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = [(callback, label)]
            _heappush(self._times, time)
        else:
            bucket.append((callback, label))

    def schedule_after_fast1(
        self, delay: int, callback: Callable[[Any], Any], arg: Any, label: str = ""
    ) -> None:
        """Schedule ``callback(arg)`` ``delay`` cycles from now.

        Carrying the single argument in the queue entry lets hot call sites
        reuse one prebound callable per (node, kind) instead of allocating a
        ``partial`` per event.
        """
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        time = self.now + delay
        buckets = self._buckets
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = [(callback, label, arg)]
            _heappush(self._times, time)
        else:
            bucket.append((callback, label, arg))

    # ---------------------------------------------------------------- running

    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
        stop_flag: Optional[List[bool]] = None,
    ) -> int:
        """Run events until the queue drains or a stop condition is met.

        ``stop_when`` is a predicate called between events; ``stop_flag`` is a
        cheaper alternative for drivers that *know* when they are done: a
        one-element list whose slot 0 an event callback flips to True.
        Checking it costs a C-level subscript per event instead of a Python
        call.  Returns the number of events fired by this call.  An ``until``
        before the current time raises :class:`SimulationError`: the clock
        never moves backwards.

        Two loops share the semantics: a specialised one for the driver
        configuration every multiprocessor run uses (stop cell, no predicate,
        no trace hook) whose per-event work is a subscript, two bound checks
        and the callback — the clock advances once per *bucket* — and a
        generic one carrying ``stop_when``/``on_fire`` support.  Events at
        one timestamp fire in scheduling order (the bucket is FIFO), exactly
        as the previous ``(time, sequence)`` heap ordered them.
        """
        if until is not None and until < self.now:
            raise SimulationError(
                f"run(until={until}) is before the current time {self.now}"
            )
        buckets = self._buckets
        times = self._times
        fired_before = fired = self._fired
        # Normalise the bounds so the checks are single comparisons:
        # float('inf') compares against ints in C.
        until_bound = _NO_BOUND if until is None else until
        limit = _NO_BOUND if max_events is None else fired_before + max_events
        on_fire = self.on_fire
        fast = stop_when is None and on_fire is None and stop_flag is not None
        try:
            while times:
                time = _heappop(times)
                bucket = buckets.get(time)
                if bucket is None:
                    continue  # a timestamp with no bucket has nothing to fire
                if time > until_bound:
                    _heappush(times, time)
                    self.now = until
                    break
                # Stop *before* advancing the clock into a bucket no event of
                # which will fire: `now` must remain the last fired time when
                # a stop cell, predicate or event budget ends the run.
                if (
                    fired >= limit
                    or (stop_flag is not None and stop_flag[0])
                    or (stop_when is not None and stop_when())
                ):
                    _heappush(times, time)
                    break
                self.now = time
                index = 0
                stopped = False
                try:
                    if fast:
                        # Single-entry bucket: the guard above already proved
                        # the stop cell clear and the budget open, so the one
                        # event fires with no further checks.  Directory-protocol
                        # traffic is mostly unicast (one event per cycle), making
                        # this the common case there.
                        if len(bucket) == 1:
                            entry = bucket[0]
                            # Consumed before firing: a raising callback must
                            # not leave its own entry queued for re-delivery.
                            index = 1
                            if len(entry) == 3:
                                entry[0](entry[2])
                            else:
                                entry[0]()
                            fired += 1
                            if len(bucket) == 1:
                                del buckets[time]
                                continue
                            if not bucket:
                                # A mid-callback drain() emptied the queue.
                                continue
                            # The callback scheduled into this same cycle: fall
                            # through and drain the rest with full checks.
                        # `length` caches len(bucket); the walrus re-check picks up
                        # entries appended by fired callbacks (same-cycle
                        # scheduling) without a len() call per event.
                        length = len(bucket)
                        while index < length or index < (length := len(bucket)):
                            if stop_flag[0] or fired >= limit:
                                stopped = True
                                break
                            try:
                                entry = bucket[index]
                            except IndexError:
                                # A mid-callback drain() emptied the bucket while
                                # `length` was still caching its old size (zero
                                # cost when not raised on 3.11+).
                                break
                            index += 1
                            if len(entry) == 3:
                                entry[0](entry[2])
                            else:
                                entry[0]()
                            fired += 1
                    else:
                        length = len(bucket)
                        while index < length or index < (length := len(bucket)):
                            if stop_flag is not None and stop_flag[0]:
                                stopped = True
                                break
                            try:
                                entry = bucket[index]
                            except IndexError:
                                break  # mid-callback drain(); see the fast loop
                            if fired >= limit or (
                                stop_when is not None and stop_when()
                            ):
                                stopped = True
                                break
                            index += 1
                            if len(entry) == 3:
                                entry[0](entry[2])
                            else:
                                entry[0]()
                            fired += 1
                            if on_fire is not None:
                                on_fire(time, entry[1])
                except BaseException:
                    # The old heap loop popped each entry before firing,
                    # so a raising callback was exception-safe by
                    # construction.  Restore that here: drop the consumed
                    # prefix (the raising event included) and put the
                    # bucket's timestamp back so the remaining same-cycle
                    # events stay reachable by a later run().
                    if index:
                        del bucket[:index]
                    if buckets.get(time) is bucket:
                        if bucket:
                            _heappush(times, time)
                        else:
                            del buckets[time]
                    raise
                if stopped:
                    if index:
                        del bucket[:index]
                    if bucket:
                        _heappush(times, time)
                    elif buckets.get(time) is bucket:
                        del buckets[time]
                    break
                if buckets.get(time) is bucket:
                    # Identity-guarded: a mid-callback drain() already removed
                    # (or drain + reschedule replaced) this bucket.
                    del buckets[time]
        finally:
            self._fired = fired
        return fired - fired_before

    def drain(self) -> None:
        """Discard all pending events without running them."""
        for bucket in self._buckets.values():
            # Each bucket list is cleared in place as well as the dict: a
            # drain issued from *inside* a fired callback (Simulator.finish
            # mid-run) must stop the loop, which is still indexing into the
            # active bucket's list.
            bucket.clear()
        # In place: compiled network closures hold direct references to both
        # containers, and they must observe the emptied queue.
        self._buckets.clear()
        self._times.clear()

    def reset(self) -> None:
        """Re-arm the scheduler for a fresh run: empty queue, time zero.

        The bucket containers are cleared *in place* (via :meth:`drain`) —
        compiled network closures hold direct aliases to them, and those
        closures survive a system reset.  ``on_fire`` and ``arena`` are
        deliberately preserved: both are installed by the harness around the
        scheduler, not by the run.
        """
        self.drain()
        self.now = 0
        self._fired = 0


# --------------------------------------------------------- compiled backend
#
# The compiled backend (repro._core._cext) implements only the scheduler's
# hot methods in C, against the *same* observable data layout (`_buckets`
# dict of tuple-entry lists, `_times` heap, integer counters).  Everything
# cold — drain/reset/fire hooks — is the pure implementation
# above, reused verbatim as class attributes of a thin Python subclass.  The
# pure class therefore stays the executable specification: any behavioural
# divergence between backends is a bug in the extension.


def _build_compiled_scheduler() -> type:
    """Create the compiled Scheduler class (imports the extension).

    Called lazily by :mod:`repro._core` so that ``REPRO_BACKEND=pure``
    never imports the extension at all; raises ImportError when the
    extension is not built.
    """
    _cext = _core.load_extension()
    _cext._init_classes(SimulationError)

    class CompiledScheduler(_cext.SchedulerBase):
        """Bucket-queue scheduler with the hot methods compiled to C.

        Drop-in replacement for :class:`Scheduler`: identical event
        ordering, identical error messages, identical container layout —
        the network fast paths that push entries straight into
        ``_buckets``/``_times`` work unchanged against it.
        """

        __slots__ = ()

        # Cold paths shared with the pure implementation (plain functions
        # and property descriptors work across classes via attribute access;
        # every attribute they touch exists on the C base as a member).
        pending = Scheduler.pending
        fired = Scheduler.fired
        add_fire_hook = Scheduler.add_fire_hook
        remove_fire_hook = Scheduler.remove_fire_hook
        _sync_external_assignment = Scheduler._sync_external_assignment
        _rebind_fire_hooks = Scheduler._rebind_fire_hooks
        drain = Scheduler.drain
        reset = Scheduler.reset

    return CompiledScheduler


_core.provide(pure=Scheduler, compiled_factory=_build_compiled_scheduler)


def active_scheduler_class() -> type:
    """The Scheduler class of the active backend (see :mod:`repro._core`)."""
    return _core.scheduler_class()
