"""The durable job store: claims, leases, retries, corruption, recovery."""

from __future__ import annotations

import json
import multiprocessing
import threading
import time

import pytest

from repro.errors import JobStoreError
from repro.experiments.jobstore import (
    DONE,
    FAILED,
    LEASED,
    PENDING,
    QUARANTINED,
    JobStore,
    WorkUnit,
)


class FakeClock:
    """Manually advanced wall clock anchored at real time."""

    def __init__(self) -> None:
        self.now = time.time()

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def store(tmp_path, clock):
    return JobStore(
        tmp_path / "store",
        lease_timeout=10.0,
        max_attempts=3,
        backoff_base=0.5,
        backoff_cap=30.0,
        clock=clock,
    )


def _unit(unit_id: str = "u1", **payload) -> WorkUnit:
    return WorkUnit(unit_id=unit_id, kind="test", description=unit_id,
                    payload=payload or {"n": 1})


def _events(store, name=None):
    events = store.journal_entries()
    if name is None:
        return events
    return [event for event in events if event["event"] == name]


class TestLifecycle:
    def test_enqueue_claim_complete_roundtrip(self, store):
        assert store.enqueue(_unit("a")) == PENDING
        lease = store.claim("w1")
        assert lease is not None and lease.unit.unit_id == "a"
        assert store.find("a") == LEASED
        assert store.complete(lease, {"value": 42})
        assert store.find("a") == DONE
        assert store.load_result("a") == {"value": 42}
        assert [e["event"] for e in _events(store)] == ["enqueue", "claim", "done"]
        assert store.finished(["a"])

    def test_enqueue_known_unit_preserves_state(self, store):
        store.enqueue(_unit("a"))
        lease = store.claim("w1")
        store.complete(lease, {"value": 1})
        # Re-enqueueing the same campaign resumes instead of recomputing.
        assert store.enqueue(_unit("a")) == DONE
        assert len(_events(store, "enqueue")) == 1

    def test_claim_has_exactly_one_winner(self, store):
        store.enqueue(_unit("a"))
        first = store.claim("w1")
        second = store.claim("w2")
        assert first is not None
        assert second is None

    def test_claim_skips_units_in_backoff(self, store, clock):
        store.enqueue(_unit("a"))
        lease = store.claim("w1")
        store.fail(lease, "boom")
        clock.advance(store._backoff(1) + 0.01)
        store.recover()  # moves the due retry back to pending
        claimed = store.claim("w1")
        assert claimed is not None and claimed.unit.attempts == 1

    def test_unknown_unit_raises(self, store):
        with pytest.raises(JobStoreError):
            store.unit("nope")


class TestLeases:
    def test_expired_lease_is_redispatched(self, store, clock):
        store.enqueue(_unit("a"))
        store.claim("w1")
        clock.advance(store.lease_timeout + 1.0)
        recovered = store.recover()
        assert recovered["expired"] == 1
        assert store.find("a") == PENDING
        assert store.unit("a").attempts == 1
        events = [e["event"] for e in _events(store)]
        assert "lease-expired" in events and "requeue" in events

    def test_heartbeat_extends_the_lease(self, store, clock):
        store.enqueue(_unit("a"))
        lease = store.claim("w1")
        clock.advance(store.lease_timeout - 1.0)
        assert store.heartbeat(lease)
        clock.advance(store.lease_timeout - 1.0)
        assert store.recover()["expired"] == 0
        assert store.find("a") == LEASED

    def test_commit_after_lease_loss_is_fenced(self, store, clock):
        store.enqueue(_unit("a"))
        stale = store.claim("w1")
        clock.advance(store.lease_timeout + 1.0)
        store.recover()
        clock.advance(store._backoff(1) + 0.01)  # past the retry backoff
        fresh = store.claim("w2")
        assert fresh is not None
        assert not store.complete(stale, {"value": "stale"})
        assert store.complete(fresh, {"value": "fresh"})
        assert store.load_result("a") == {"value": "fresh"}

    def test_fail_after_lease_loss_is_fenced(self, store, clock):
        store.enqueue(_unit("a"))
        stale = store.claim("w1")
        clock.advance(store.lease_timeout + 1.0)
        store.recover()
        clock.advance(store._backoff(1) + 0.01)  # past the retry backoff
        fresh = store.claim("w2")
        assert fresh is not None
        assert store.fail(stale, "stale failure") == LEASED
        # The new holder's unit was not touched by the stale failure.
        assert store.find("a") == LEASED
        assert store.complete(fresh, {"value": 1})

    def test_expire_worker_redispatches_immediately(self, store):
        store.enqueue(_unit("a"))
        store.claim("w1")
        # No clock advance: the coordinator observed the process die.
        assert store.expire_worker("w1") == 1
        assert store.find("a") == PENDING


class TestRetries:
    def test_backoff_is_exponential_and_capped(self, store):
        assert store._backoff(1) == 0.5
        assert store._backoff(2) == 1.0
        assert store._backoff(3) == 2.0
        assert store._backoff(100) == store.backoff_cap

    def test_failed_unit_waits_out_its_backoff(self, store, clock):
        store.enqueue(_unit("a"))
        store.fail(store.claim("w1"), "boom")
        assert store.find("a") == FAILED
        assert store.recover()["retried"] == 0  # not due yet
        clock.advance(store._backoff(1) + 0.01)
        assert store.recover()["retried"] == 1
        assert store.find("a") == PENDING
        assert store.unit("a").last_error == "boom"

    def test_poison_unit_quarantined_with_artifact(self, store, clock):
        store.enqueue(_unit("a"))
        for attempt in range(store.max_attempts):
            clock.advance(store.backoff_cap + 1.0)
            store.recover()
            lease = store.claim("w1")
            assert lease is not None, f"attempt {attempt} could not claim"
            store.fail(lease, f"boom {attempt}")
        assert store.find("a") == QUARANTINED
        artifact = store.artifacts_dir / "a.poison.json"
        payload = json.loads(artifact.read_text())
        assert payload["format"] == "repro-poison-unit-v1"
        assert "boom" in payload["reason"]
        # Quarantine is terminal but not fatal: the campaign can finish.
        assert store.finished(["a"])

    def test_release_returns_unit_without_burning_an_attempt(self, store):
        store.enqueue(_unit("a"))
        store.release(store.claim("w1"))
        assert store.find("a") == PENDING
        assert store.unit("a").attempts == 0


class TestCorruptResults:
    def test_torn_result_is_quarantined_and_recomputed(self, store):
        store.enqueue(_unit("a"))
        store.complete(store.claim("w1"), {"value": 1}, _corrupt=True)
        assert store.find("a") == DONE
        assert store.load_result("a") is None  # detected on read
        assert (store.artifacts_dir / "a.result.corrupt").exists()
        assert store.find("a") == PENDING  # requeued for recomputation
        assert store.complete(store.claim("w2"), {"value": 1})
        assert store.load_result("a") == {"value": 1}
        assert len(_events(store, "result-corrupt")) == 1


class TestRecovery:
    def test_recover_is_idempotent_on_a_quiet_store(self, store):
        store.enqueue(_unit("a"))
        store.complete(store.claim("w1"), {"value": 1})
        before = store.journal_offset()
        assert store.recover() == {"expired": 0, "retried": 0}
        assert store.journal_offset() == before

    def test_fresh_store_reopens_with_state_intact(self, tmp_path, clock):
        first = JobStore(tmp_path / "s", clock=clock)
        first.enqueue(_unit("a"))
        first.complete(first.claim("w1"), {"value": 7})
        first.enqueue(_unit("b"))
        # A brand-new handle (fresh process) sees the same truth.
        second = JobStore(tmp_path / "s", clock=clock)
        assert second.find("a") == DONE
        assert second.find("b") == PENDING
        assert second.load_result("a") == {"value": 7}


class TestSpeculation:
    def test_speculative_copy_is_claimable(self, store):
        store.enqueue(_unit("a"))
        original = store.claim("w1")
        assert store.speculate("a")
        speculative = store.claim("w2")
        assert speculative is not None and speculative.unit.unit_id == "a"
        # The speculative claim re-fenced the lease: the straggler loses.
        assert not store.complete(original, {"value": 1})
        assert store.complete(speculative, {"value": 1})
        assert store.load_result("a") == {"value": 1}

    def test_speculate_refuses_double_dispatch_twice(self, store):
        store.enqueue(_unit("a"))
        store.claim("w1")
        assert store.speculate("a")
        assert not store.speculate("a")  # pending copy already exists

    def test_stragglers_are_leases_claimed_before_the_bar(self, store, clock):
        store.enqueue(_unit("a"))
        store.enqueue(_unit("b"))
        lease = store.claim("w1")
        clock.advance(5.0)
        store.claim("w2")
        assert store.stragglers(older_than=5.0) == ["a"]
        assert store.stragglers(older_than=0.0) == ["a", "b"]
        # Heartbeats extend the deadline, not the age of the claim.
        assert store.heartbeat(lease)
        assert store.stragglers(older_than=5.0) == ["a"]
        store.complete(lease, {"value": 1})
        assert store.stragglers(older_than=0.0) == ["b"]


def _recover_forever(root: str, ready, stop) -> None:
    """Second process: hammer recovery and counting until told to stop."""
    store = JobStore(root)
    ready.set()
    while not stop.is_set():
        store.recover()
        store.counts()


class TestConcurrency:
    def test_recovery_in_another_process_never_loses_a_claim(self, tmp_path):
        """Claims racing a recovery loop in a second process all commit."""
        root = tmp_path / "store"
        store = JobStore(root)
        context = multiprocessing.get_context("spawn")
        ready, stop = context.Event(), context.Event()
        poller = context.Process(
            target=_recover_forever, args=(str(root), ready, stop), daemon=True
        )
        started = time.monotonic()
        poller.start()
        try:
            assert ready.wait(timeout=10.0)
            unit_ids = [f"u{index:03d}" for index in range(200)]
            for unit_id in unit_ids:
                store.enqueue(_unit(unit_id))
            # A full pending queue keeps every claim racing the recoveries.
            for unit_id in unit_ids:
                lease = store.claim("w1")
                assert lease is not None and lease.unit.unit_id == unit_id
                assert store.complete(lease, {"value": unit_id})
        finally:
            stop.set()
            poller.join(timeout=10.0)
        assert poller.exitcode == 0
        assert store.ids(DONE) == unit_ids
        assert store.finished(unit_ids)
        assert not _events(store, "commit-fenced")
        assert time.monotonic() - started < 15.0

    def test_heartbeat_thread_shares_the_store_object(self, tmp_path):
        """A second thread heartbeating on the same object never breaks a commit."""
        store = JobStore(tmp_path / "store")
        unit_ids = [f"u{index:03d}" for index in range(50)]
        for unit_id in unit_ids:
            store.enqueue(_unit(unit_id))
        current = []
        errors = []
        stop = threading.Event()

        def beat() -> None:
            try:
                while not stop.is_set():
                    if current:
                        store.heartbeat(current[-1])
            except Exception as error:  # surfaced by the assertion below
                errors.append(error)

        beater = threading.Thread(target=beat, daemon=True)
        beater.start()
        try:
            for unit_id in unit_ids:
                lease = store.claim("w1")
                assert lease is not None and lease.unit.unit_id == unit_id
                current.append(lease)
                assert store.complete(lease, {"value": unit_id})
        finally:
            stop.set()
            beater.join(timeout=10.0)
        assert not beater.is_alive()
        assert errors == []
        assert store.ids(DONE) == unit_ids
        assert not _events(store, "commit-fenced")
