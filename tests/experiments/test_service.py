"""The campaign service: chaos tolerance, resume, and serial equivalence."""

from __future__ import annotations

import dataclasses
import os
import time

import pytest

from repro.errors import ServiceError
from repro.experiments.jobstore import DONE, JobStore
from repro.experiments.parallel import (
    PointSpec,
    _point_to_json,
    run_sweep,
)
from repro.experiments.runner import (
    QUICK,
    microbenchmark_factory,
)
from repro.experiments.service import (
    FaultPlan,
    ServiceConfig,
    run_service_sweep,
    run_worker,
    unit_for_spec,
)

TINY = dataclasses.replace(
    QUICK,
    name="tiny",
    microbenchmark_processors=4,
    acquires_per_processor=8,
    num_locks=16,
    bandwidth_points=(800.0, 3200.0),
    seeds=(1,),
)


#: A regression in the fleet path must fail in seconds, not wait out the
#: coordinator's 300 s production default.
STALL_TIMEOUT = 20.0


def _specs(protocols=("bash", "snooping")):
    workload = microbenchmark_factory(TINY)
    return [
        PointSpec(scale=TINY, protocol=protocol, bandwidth=bandwidth, workload=workload)
        for protocol in protocols
        for bandwidth in TINY.bandwidth_points
    ]


def _json(points):
    return [_point_to_json(point) for point in points]


@pytest.fixture(scope="module")
def serial_points():
    return run_sweep(_specs(), workers=1)


class TestFaultPlan:
    def test_parse_round_trips_every_token(self):
        plan = FaultPlan.parse("kill-after:3,drop-heartbeats,corrupt-result:2")
        assert plan.kill_after == 3
        assert plan.drop_heartbeats
        assert plan.corrupt_results == 2
        assert FaultPlan.parse(None) is None
        assert FaultPlan.parse("") is None

    def test_parse_rejects_unknown_tokens(self):
        with pytest.raises(ServiceError):
            FaultPlan.parse("explode-randomly")


class TestServiceEqualsSerial:
    def test_inline_service_matches_serial_field_for_field(
        self, tmp_path, serial_points
    ):
        points, summary = run_service_sweep(
            _specs(), ServiceConfig(store=tmp_path / "store")
        )
        assert _json(points) == _json(serial_points)
        assert summary.to_jsonable()["ok"]
        assert summary.done == len(points)

    def test_fleet_service_matches_serial_field_for_field(
        self, tmp_path, serial_points
    ):
        points, summary = run_service_sweep(
            _specs(),
            ServiceConfig(
                store=tmp_path / "store", workers=2, stall_timeout=STALL_TIMEOUT
            ),
        )
        assert _json(points) == _json(serial_points)
        assert summary.done == len(points)


class TestChaos:
    def test_killed_worker_campaign_still_completes(self, tmp_path, serial_points):
        """A worker dying mid-unit re-dispatches its lease; results unchanged."""
        config = ServiceConfig(
            store=tmp_path / "store",
            fault_plan=FaultPlan(kill_after=2),
        )
        points, summary = run_service_sweep(_specs(), config)
        assert _json(points) == _json(serial_points)
        assert summary.worker_deaths >= 1
        assert summary.redispatched >= 1
        assert not summary.quarantined

    def test_corrupt_result_write_is_recomputed(self, tmp_path, serial_points):
        config = ServiceConfig(
            store=tmp_path / "store",
            fault_plan=FaultPlan(corrupt_results=1),
        )
        points, summary = run_service_sweep(_specs(), config)
        assert _json(points) == _json(serial_points)
        assert summary.corrupt_results >= 1
        store = config.job_store()
        corrupt = list(store.artifacts_dir.glob("*.result.corrupt"))
        assert corrupt, "torn result was not quarantined"

    def test_dropped_heartbeats_expire_and_redispatch(self, tmp_path, serial_points):
        """With heartbeats off and a tiny lease, every unit survives expiry."""
        config = ServiceConfig(
            store=tmp_path / "store",
            fault_plan=FaultPlan(drop_heartbeats=True),
            lease_timeout=0.5,
        )
        points, summary = run_service_sweep(_specs(), config)
        assert _json(points) == _json(serial_points)
        assert not summary.quarantined


class TestResume:
    def test_interrupted_campaign_resumes_with_zero_recomputation(
        self, tmp_path, serial_points
    ):
        specs = _specs()
        store = JobStore(tmp_path / "store")
        for spec in specs:
            store.enqueue(unit_for_spec(spec))
        # Interrupt: a bounded worker drains part of the campaign and exits.
        stats = run_worker(store, max_units=2)
        assert stats.completed == 2
        done_before = set(store.ids(DONE))
        offset = store.journal_offset()

        points, summary = run_service_sweep(specs, ServiceConfig(store=store))
        assert _json(points) == _json(serial_points)
        assert summary.resumed == 2
        # The journal proves no done unit was ever claimed again.
        claimed_after = {
            event["unit"]
            for event in store.journal_entries(offset=offset)
            if event["event"] == "claim"
        }
        assert done_before.isdisjoint(claimed_after)
        assert len(claimed_after) == len(specs) - 2

    def test_second_run_recomputes_nothing_at_all(self, tmp_path):
        specs = _specs()
        config = ServiceConfig(store=tmp_path / "store")
        run_service_sweep(specs, config)
        store = config.job_store()
        offset = store.journal_offset()
        points, summary = run_service_sweep(specs, config)
        assert summary.resumed == len(specs)
        events = store.journal_entries(offset=offset)
        assert not [event for event in events if event["event"] == "claim"]
        assert all(point is not None for point in points)


class TestPoisonUnits:
    def test_poison_unit_quarantines_and_campaign_continues(self, tmp_path):
        """A unit that always crashes is quarantined; the rest still finish."""
        from repro.experiments import service as service_module

        specs = _specs()
        units = [unit_for_spec(spec) for spec in specs]
        poison_id = units[0].unit_id
        original = service_module.execute_unit

        def sabotaged(unit, runner=None, store=None):
            if unit.unit_id == poison_id:
                raise RuntimeError("synthetic poison unit")
            return original(unit, runner, store)

        config = ServiceConfig(
            store=tmp_path / "store", max_attempts=2, lease_timeout=5.0
        )
        store = config.job_store()
        store.backoff_base = 0.01  # keep retry waits test-sized
        import unittest.mock

        with unittest.mock.patch.object(
            service_module, "execute_unit", sabotaged
        ):
            with pytest.raises(ServiceError, match="poison"):
                run_service_sweep(specs, ServiceConfig(store=store))
        # Strictness raised after the fact; the rest of the campaign is done.
        assert store.find(poison_id) == "quarantine"
        done = [u.unit_id for u in units if store.find(u.unit_id) == DONE]
        assert len(done) == len(units) - 1
        assert (store.artifacts_dir / f"{poison_id}.poison.json").exists()

        points, summary = run_service_sweep(specs, ServiceConfig(store=store), strict=False)
        assert summary.quarantined == [poison_id]
        assert [p is None for p in points].count(True) == 1


class TestSweepIntegration:
    def test_run_sweep_routes_through_the_service(self, tmp_path, serial_points):
        specs = _specs()
        points = run_sweep(specs, cache_dir=tmp_path / "store")
        assert _json(points) == _json(serial_points)
        # The store now holds every unit durably.
        store = JobStore(tmp_path / "store")
        assert len(store.ids(DONE)) == len(specs)


_PARENT_PID = os.getpid()


class TestStragglerRescue:
    def test_wedged_fleet_worker_is_rescued_by_speculation(
        self, tmp_path, monkeypatch
    ):
        """Exactly one worker process wedges mid-unit, heartbeats still going.

        Its lease never expires, so only tail speculation can finish the
        campaign — and only if an idle worker is still alive to claim the
        speculated copy.
        """
        from repro.experiments import service as service_module

        specs = _specs(protocols=("bash", "snooping", "directory"))
        serial = run_sweep(specs, workers=1)
        marker = tmp_path / "wedged"
        original = service_module.execute_unit

        def wedge_first_child(unit, runner, store=None):
            if os.getpid() != _PARENT_PID:
                try:
                    os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                except FileExistsError:
                    pass
                else:
                    time.sleep(3600)  # terminated by the coordinator
            return original(unit, runner, store)

        monkeypatch.setattr(service_module, "execute_unit", wedge_first_child)
        points, summary = run_service_sweep(
            specs,
            ServiceConfig(
                store=tmp_path / "store",
                workers=2,
                lease_timeout=2.0,
                stall_timeout=15.0,
            ),
        )
        assert marker.exists(), "no worker process wedged"
        assert _json(points) == _json(serial)
        assert summary.speculated >= 1
        assert not summary.quarantined
