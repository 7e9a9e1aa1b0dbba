"""Discrete-event scheduler, on both event-core backends."""

import pytest

from repro import _core
from repro.errors import SimulationError
from repro.sim.scheduler import active_scheduler_class
from repro.sim.simulator import Simulator


@pytest.fixture
def scheduler(backend):
    """A fresh scheduler of each backend."""
    return active_scheduler_class()()


@pytest.fixture(params=["generic", "stop-cell"])
def run(request):
    """``scheduler.run()`` through each of the pure backend's two loops.

    A stop cell with no predicate and no fire hook takes the pure
    scheduler's specialised loop; plain ``run()`` takes the generic one.
    The compiled backend has one loop, so both legs pin it against both.
    """
    if request.param == "generic":
        return lambda scheduler, **bounds: scheduler.run(**bounds)
    return lambda scheduler, **bounds: scheduler.run(stop_flag=[False], **bounds)


def queued_shapes(scheduler):
    return sorted(
        {len(entry) for bucket in scheduler._buckets.values() for entry in bucket}
    )


class TestScheduler:
    def test_events_fire_in_time_order(self, scheduler):
        fired = []
        scheduler.schedule_after_fast(30, lambda: fired.append("c"))
        scheduler.schedule_after_fast(10, lambda: fired.append("a"))
        scheduler.schedule_after_fast(20, lambda: fired.append("b"))
        scheduler.run()
        assert fired == ["a", "b", "c"]
        assert scheduler.now == 30

    def test_ties_break_by_insertion_order(self, scheduler):
        fired = []
        for name in "abcd":
            scheduler.schedule_after_fast(5, lambda n=name: fired.append(n))
        scheduler.run()
        assert fired == ["a", "b", "c", "d"]

    def test_schedule_after_is_relative(self, scheduler):
        times = []
        scheduler.schedule_after_fast(
            10,
            lambda: scheduler.schedule_after_fast(
                5, lambda: times.append(scheduler.now)
            ),
        )
        scheduler.run()
        assert times == [15]

    def test_negative_delay_is_rejected(self, scheduler):
        scheduler.schedule_after_fast(10, lambda: None)
        scheduler.run()
        with pytest.raises(SimulationError, match="delay must be non-negative, got -1"):
            scheduler.schedule_after_fast(-1, lambda: None)
        with pytest.raises(SimulationError, match="delay must be non-negative, got -2"):
            scheduler.schedule_after_fast1(-2, print, None)
        # A rejected delay queues nothing: no bucket, no heap time.
        assert scheduler.pending == 0
        assert (scheduler._buckets, scheduler._times) == ({}, [])

    def test_fast_paths_interleave(self, scheduler, run):
        # Both entry shapes share one FIFO bucket per cycle, so a 2-tuple
        # and a 3-tuple entry at the same cycle fire in schedule order.
        fired, labels = [], []
        scheduler.schedule_after_fast(10, lambda: fired.append("plain10"), "p10")
        scheduler.schedule_after_fast1(5, fired.append, "arg5", "a5")
        scheduler.schedule_after_fast(5, lambda: fired.append("plain5"), "p5")
        scheduler.schedule_after_fast1(7, fired.append, "arg7", "a7")
        scheduler.schedule_after_fast1(5, fired.append, "arg5b", "a5b")
        assert queued_shapes(scheduler) == [2, 3]
        assert scheduler.pending == 5
        scheduler.add_fire_hook(lambda time, label: labels.append((time, label)))
        # The fire hook forces the generic loop; remove it to let the
        # stop-cell leg take the specialised one for the second half.
        assert run(scheduler, until=6) == 3
        assert labels == [(5, "a5"), (5, "p5"), (5, "a5b")]
        scheduler.on_fire = None
        assert run(scheduler) == 2
        assert fired == ["arg5", "plain5", "arg5b", "arg7", "plain10"]
        assert labels == [(5, "a5"), (5, "p5"), (5, "a5b")]
        assert scheduler.now == 10
        assert scheduler.fired == 5

    def test_drain_from_inside_a_callback_stops_the_run(self, scheduler, run):
        # Simulator.finish() (which drains) can be called by a fired event;
        # the loop must stop cleanly: no later event fires — same-cycle
        # events included — and the queue ends empty.
        fired = []
        scheduler.schedule_after_fast(
            5, lambda: (fired.append("drainer"), scheduler.drain())
        )
        scheduler.schedule_after_fast(5, lambda: fired.append("same-cycle"))
        scheduler.schedule_after_fast(9, lambda: fired.append("later"))
        assert run(scheduler) == 1
        assert fired == ["drainer"]
        assert scheduler.pending == 0
        assert scheduler._times == []
        # The scheduler remains usable afterwards.
        scheduler.schedule_after_fast(15, lambda: fired.append("fresh"))
        run(scheduler)
        assert fired == ["drainer", "fresh"]
        assert scheduler.now == 20

    def test_drain_from_a_single_entry_bucket(self, scheduler, run):
        fired = []
        scheduler.schedule_after_fast(5, scheduler.drain)
        scheduler.schedule_after_fast(9, lambda: fired.append("later"))
        assert run(scheduler) == 1
        assert fired == []
        assert scheduler.pending == 0
        assert scheduler.now == 5

    def test_drain_then_reschedule_same_cycle_from_callback(self, scheduler, run):
        fired = []

        def drain_and_rearm():
            scheduler.drain()
            scheduler.schedule_after_fast(0, lambda: fired.append("rearmed"))

        scheduler.schedule_after_fast(5, drain_and_rearm)
        scheduler.schedule_after_fast(5, lambda: fired.append("victim"))
        scheduler.schedule_after_fast(9, lambda: fired.append("later"))
        run(scheduler)
        assert fired == ["rearmed"]
        assert scheduler.pending == 0
        assert scheduler.now == 5

    def test_raising_callback_keeps_remaining_events_reachable(self, scheduler, run):
        # The heap loop popped each entry before firing, so a raising
        # callback was exception-safe; the bucket loop must match: the
        # raising event is consumed, same-cycle survivors still fire on a
        # later run(), and new events at that cycle are not swallowed.
        fired = []

        def boom():
            raise RuntimeError("boom")

        scheduler.schedule_after_fast(5, lambda: fired.append("first"))
        scheduler.schedule_after_fast(5, boom)
        scheduler.schedule_after_fast1(5, fired.append, "survivor")
        scheduler.schedule_after_fast(9, lambda: fired.append("later"))
        with pytest.raises(RuntimeError, match="boom"):
            run(scheduler)
        assert fired == ["first"]
        assert scheduler.pending == 2
        assert scheduler.fired == 1
        assert scheduler.now == 5
        scheduler.schedule_after_fast(0, lambda: fired.append("rescheduled"))
        assert run(scheduler) == 3
        assert fired == ["first", "survivor", "rescheduled", "later"]
        assert scheduler.pending == 0

    def test_raising_single_event_is_consumed(self, scheduler, run):
        def boom():
            raise RuntimeError("boom")

        scheduler.schedule_after_fast(5, boom)
        with pytest.raises(RuntimeError):
            run(scheduler)
        assert scheduler.pending == 0
        assert scheduler._buckets == {}
        assert run(scheduler) == 0  # nothing re-fires

    def test_raising_last_event_of_a_bucket_drops_the_bucket(self, scheduler, run):
        def boom():
            raise RuntimeError("boom")

        scheduler.schedule_after_fast(5, lambda: None)
        scheduler.schedule_after_fast(5, boom)
        scheduler.schedule_after_fast(9, lambda: None)
        with pytest.raises(RuntimeError):
            run(scheduler)
        assert list(scheduler._buckets) == [9]
        assert scheduler._times == [9]

    def test_run_until_bound(self, scheduler, run):
        fired = []
        scheduler.schedule_after_fast(10, lambda: fired.append(10))
        scheduler.schedule_after_fast(100, lambda: fired.append(100))
        run(scheduler, until=50)
        assert fired == [10]
        assert scheduler.now == 50
        assert scheduler.pending == 1

    def test_run_until_now_fires_nothing_later(self, scheduler, run):
        fired = []
        scheduler.schedule_after_fast(10, lambda: fired.append(10))
        scheduler.schedule_after_fast(15, lambda: fired.append(15))
        run(scheduler, until=10)
        assert run(scheduler, until=10) == 0
        assert fired == [10]
        assert scheduler.now == 10

    def test_run_until_before_now_raises_and_keeps_the_clock(self, scheduler):
        fired = []
        scheduler.schedule_after_fast(10, lambda: fired.append(10))
        scheduler.schedule_after_fast(15, lambda: fired.append(15))
        scheduler.run(max_events=1)
        assert scheduler.now == 10
        buckets, times = dict(scheduler._buckets), list(scheduler._times)
        with pytest.raises(
            SimulationError, match=r"run\(until=3\) is before the current time 10"
        ):
            scheduler.run(until=3)
        assert scheduler.now == 10
        assert scheduler._buckets == buckets
        assert scheduler._times == times
        # A zero-delay event still lands at the current cycle, not the rewound one.
        scheduler.schedule_after_fast(0, lambda: fired.append(scheduler.now))
        assert list(scheduler._buckets) == [15, 10]
        scheduler.run()
        assert fired == [10, 10, 15]

    def test_run_max_events(self, scheduler, run):
        for i in range(10):
            scheduler.schedule_after_fast(i, lambda: None)
        assert run(scheduler, max_events=3) == 3
        assert scheduler.fired == 3
        assert scheduler.now == 2
        assert scheduler.pending == 7

    def test_max_events_stops_inside_a_bucket(self, scheduler, run):
        fired = []
        for name in "abc":
            scheduler.schedule_after_fast(4, lambda n=name: fired.append(n))
        assert run(scheduler, max_events=2) == 2
        assert fired == ["a", "b"]
        assert scheduler.pending == 1
        assert run(scheduler) == 1
        assert fired == ["a", "b", "c"]

    def test_stop_cell_set_by_a_callback(self, scheduler):
        cell = [False]
        fired = []
        scheduler.schedule_after_fast(3, lambda: (fired.append("a"), cell.__setitem__(0, True)))
        scheduler.schedule_after_fast(3, lambda: fired.append("b"))
        scheduler.schedule_after_fast(8, lambda: fired.append("c"))
        assert scheduler.run(stop_flag=cell) == 1
        assert fired == ["a"]
        assert scheduler.now == 3
        assert scheduler.pending == 2
        cell[0] = False
        assert scheduler.run(stop_flag=cell) == 2
        assert fired == ["a", "b", "c"]

    def test_stop_when_predicate(self, scheduler):
        seen = []
        for i in range(10):
            scheduler.schedule_after_fast(i, lambda i=i: seen.append(i))
        scheduler.run(stop_when=lambda: len(seen) >= 4)
        assert len(seen) == 4
        assert scheduler.now == 3
        assert scheduler.pending == 6

    def test_reset_rearms_the_clock_and_queue(self, scheduler):
        scheduler.schedule_after_fast(4, lambda: None)
        scheduler.schedule_after_fast(9, lambda: None)
        scheduler.run(max_events=1)
        assert (scheduler.now, scheduler.fired, scheduler.pending) == (4, 1, 1)
        scheduler.reset()
        assert (scheduler.now, scheduler.fired) == (0, 0)
        assert scheduler.pending == 0
        assert (scheduler._buckets, scheduler._times) == ({}, [])


class TestFireHooks:
    def test_multiple_hooks_each_see_every_event(self, scheduler):
        first, second = [], []
        scheduler.add_fire_hook(lambda t, label: first.append((t, label)))
        scheduler.add_fire_hook(lambda t, label: second.append((t, label)))
        scheduler.schedule_after_fast(5, lambda: None, "a")
        scheduler.schedule_after_fast(9, lambda: None, "b")
        scheduler.run()
        assert first == [(5, "a"), (9, "b")]
        assert second == first

    def test_remove_fire_hook_stops_delivery(self, scheduler):
        seen = []
        hook = lambda t, label: seen.append(label)
        scheduler.add_fire_hook(hook)
        scheduler.schedule_after_fast(1, lambda: None, "x")
        scheduler.run()
        scheduler.remove_fire_hook(hook)
        assert scheduler.on_fire is None
        scheduler.schedule_after_fast(1, lambda: None, "y")
        scheduler.run()
        assert seen == ["x"]

    def test_remove_unknown_hook_is_idempotent(self, scheduler):
        scheduler.remove_fire_hook(lambda t, label: None)
        assert scheduler.on_fire is None

    def test_directly_assigned_on_fire_is_adopted_as_first_hook(self, scheduler):
        order = []
        scheduler.on_fire = lambda t, label: order.append("legacy")
        scheduler.add_fire_hook(lambda t, label: order.append("added"))
        scheduler.schedule_after_fast(3, lambda: None, "e")
        scheduler.run()
        assert order == ["legacy", "added"]

    def test_single_hook_binds_without_fan_out_wrapper(self, scheduler):
        hook = lambda t, label: None
        scheduler.add_fire_hook(hook)
        assert scheduler.on_fire is hook

    def test_legacy_direct_assignment_can_be_removed(self, scheduler):
        hook = lambda t, label: None
        scheduler.on_fire = hook
        scheduler.remove_fire_hook(hook)
        assert scheduler.on_fire is None

    def test_direct_clear_after_adoption_is_not_resurrected(self, scheduler):
        # A tracer assigned directly, adopted by add_fire_hook, then cleared
        # directly must stay gone when the added hook is removed — the legacy
        # surface is authoritative.
        seen = []
        scheduler.on_fire = lambda t, label: seen.append(label)
        added = lambda t, label: None
        scheduler.add_fire_hook(added)
        scheduler.on_fire = None
        scheduler.remove_fire_hook(added)
        assert scheduler.on_fire is None
        scheduler.schedule_after_fast(1, lambda: None, "late")
        scheduler.run()
        assert seen == []

    def test_direct_reassignment_after_adoption_wins(self, scheduler):
        order = []
        scheduler.on_fire = lambda t, label: order.append("old")
        hook = lambda t, label: order.append("hook")
        scheduler.add_fire_hook(hook)
        scheduler.on_fire = lambda t, label: order.append("new")
        scheduler.add_fire_hook(hook)
        scheduler.schedule_after_fast(1, lambda: None, "e")
        scheduler.run()
        assert order == ["new", "hook"]

    def test_hooks_survive_reset(self, scheduler):
        seen = []
        scheduler.add_fire_hook(lambda t, label: seen.append(label))
        scheduler.schedule_after_fast(1, lambda: None, "before")
        scheduler.run()
        scheduler.reset()
        scheduler.schedule_after_fast(1, lambda: None, "after")
        scheduler.run()
        assert seen == ["before", "after"]

    def test_raising_hook_consumes_the_fired_event(self, scheduler):
        def hook(time, label):
            raise ValueError(label)

        fired = []
        scheduler.on_fire = hook
        scheduler.schedule_after_fast1(2, fired.append, "x", "lx")
        scheduler.schedule_after_fast1(2, fired.append, "y", "ly")
        with pytest.raises(ValueError, match="lx"):
            scheduler.run()
        assert fired == ["x"]
        assert scheduler.fired == 1
        assert scheduler.pending == 1


@pytest.mark.skipif(
    not _core.compiled_available(),
    reason="compiled extension not built (python -m repro._core.build)",
)
def test_compiled_loop_refuses_a_malformed_entry():
    # The C loop reads entries without Python's bounds checks, so it tests
    # the shape first.
    with _core.use_backend(_core.COMPILED):
        scheduler = active_scheduler_class()()
    scheduler._buckets[4] = [(lambda: None,)]
    scheduler._times.append(4)
    with pytest.raises(TypeError, match="queue entry must be a"):
        scheduler.run()
    assert scheduler.fired == 0
    assert scheduler.pending == 1


@pytest.mark.usefixtures("backend")
class TestSimulator:
    def test_run_until_quiescent(self):
        simulator = Simulator()
        fired = []
        simulator.scheduler.schedule_after_fast(5, lambda: fired.append(1))
        simulator.run_until_quiescent()
        assert fired == [1]

    def test_quiescence_guard_raises(self):
        simulator = Simulator()

        def rearm():
            simulator.scheduler.schedule_after_fast(1, rearm)

        simulator.scheduler.schedule_after_fast(0, rearm)
        with pytest.raises(SimulationError):
            simulator.run_until_quiescent(max_events=100)

    def test_finish_blocks_further_runs(self):
        simulator = Simulator()
        simulator.finish()
        with pytest.raises(SimulationError):
            simulator.run()
