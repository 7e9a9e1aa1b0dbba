"""The sweep executor: determinism, the store-backed cache, and dispatch."""

from __future__ import annotations

import dataclasses
import tempfile

import pytest

from repro.common.config import ProtocolName
from repro.errors import ConfigurationError, ServiceError
from repro.experiments import parallel as parallel_module
from repro.experiments.batch import BatchRunner
from repro.experiments.jobstore import DONE, JobStore
from repro.experiments.parallel import PointSpec, available_workers, run_sweep
from repro.experiments.runner import (
    PROTOCOLS,
    QUICK,
    LockingWorkloadSpec,
    microbenchmark_factory,
)
from repro.experiments.scenario import SCENARIOS, run_scenario
from repro.experiments.service import unit_for_spec

#: A deliberately tiny scale so each test point simulates in milliseconds.
TINY = dataclasses.replace(
    QUICK,
    name="tiny",
    microbenchmark_processors=4,
    acquires_per_processor=8,
    num_locks=16,
    bandwidth_points=(800.0, 3200.0),
    seeds=(1, 2),
)


def _specs(protocols=PROTOCOLS):
    workload = microbenchmark_factory(TINY)
    return [
        PointSpec(scale=TINY, protocol=protocol, bandwidth=bandwidth, workload=workload)
        for protocol in protocols
        for bandwidth in TINY.bandwidth_points
    ]


def _store_path(directory):
    return directory / "store.sqlite3"


def _poison_execution(monkeypatch):
    """Make any simulation of a sweep point fail the test."""

    def boom(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("cache miss: a point was simulated again")

    monkeypatch.setattr(BatchRunner, "run_spec", boom)


def _key(point):
    return (
        point.protocol,
        point.x,
        point.performance,
        point.mean_miss_latency,
        point.link_utilization,
        point.retries,
    )


class TestDeterminism:
    def test_serial_equals_parallel_point_for_point(self):
        specs = _specs()
        serial = run_sweep(specs, workers=1)
        parallel = run_sweep(specs, workers=2)
        assert [_key(p) for p in serial] == [_key(p) for p in parallel]

    def test_scenario_parallel_matches_serial(self):
        serial = run_scenario("figure1", scale=TINY).data
        parallel = run_scenario("figure1", scale=TINY, workers=2).data
        for protocol in serial:
            assert [_key(p) for p in serial[protocol]] == [
                _key(p) for p in parallel[protocol]
            ]

    def test_per_point_seeding_is_independent_of_order(self):
        specs = _specs()
        forward = run_sweep(specs, workers=1)
        backward = run_sweep(list(reversed(specs)), workers=1)
        assert [_key(p) for p in forward] == [_key(p) for p in reversed(backward)]


class TestCache:
    def test_cache_hit_skips_resimulation(self, tmp_path, monkeypatch):
        specs = _specs(protocols=(ProtocolName.BASH,))
        first = run_sweep(specs, cache_dir=tmp_path)
        offset = JobStore(tmp_path).journal_offset()
        # Poison execution: a done unit in the store must not re-simulate.
        _poison_execution(monkeypatch)
        second = run_sweep(specs, cache_dir=tmp_path)
        assert [_key(p) for p in first] == [_key(p) for p in second]
        assert second[0].results[0].stats  # full RunResults survive the cache
        events = JobStore(tmp_path).journal_entries(offset=offset)
        assert not [event for event in events if event["event"] == "claim"]

    def test_stale_json_entries_are_ignored(self, tmp_path):
        """A directory from the retired JSON cache is reused, not migrated."""
        specs = _specs(protocols=(ProtocolName.SNOOPING,))[:1]
        stale = tmp_path / f"{specs[0].cache_key()}.json"
        stale.write_text('{"torn":')
        (point,) = run_sweep(specs, cache_dir=tmp_path)
        assert [_key(point)] == [_key(p) for p in run_sweep(specs, workers=1)]
        assert stale.read_text() == '{"torn":'
        assert JobStore(tmp_path).ids(DONE) == [specs[0].cache_key()]

    def test_cache_key_distinguishes_configs(self):
        workload = microbenchmark_factory(TINY)
        base = PointSpec(
            scale=TINY, protocol=ProtocolName.BASH, bandwidth=800.0, workload=workload
        )
        assert base.cache_key() == dataclasses.replace(base).cache_key()
        assert base.cache_key() != dataclasses.replace(base, bandwidth=1600.0).cache_key()
        assert (
            base.cache_key()
            != dataclasses.replace(base, protocol=ProtocolName.SNOOPING).cache_key()
        )
        other_workload = LockingWorkloadSpec(
            num_locks=TINY.num_locks,
            acquires_per_processor=TINY.acquires_per_processor + 1,
        )
        assert (
            base.cache_key()
            != dataclasses.replace(base, workload=other_workload).cache_key()
        )

    def test_cache_key_distinguishes_backends(self):
        from repro import _core

        workload = microbenchmark_factory(TINY)
        spec = PointSpec(
            scale=TINY, protocol=ProtocolName.BASH, bandwidth=800.0, workload=workload
        )
        with _core.use_backend("pure"):
            pure_key = spec.cache_key()
            assert spec.cache_key() == pure_key  # stable within a backend
        if not _core.compiled_available():
            pytest.skip("compiled extension not built")
        with _core.use_backend("compiled"):
            assert spec.cache_key() != pure_key


class TestFallbacks:
    def test_unportable_workload_runs_serially(self):
        def closure_factory(seed):
            from repro.workloads.microbenchmark import LockingMicrobenchmark

            return LockingMicrobenchmark(num_locks=16, acquires_per_processor=8)

        spec = PointSpec(
            scale=TINY,
            protocol=ProtocolName.SNOOPING,
            bandwidth=800.0,
            workload=closure_factory,
        )
        assert not spec.is_portable()
        (point,) = run_sweep([spec], workers=4)
        assert point.performance > 0

    def test_workers_auto_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "3")
        assert available_workers() == 3
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "garbage")
        with pytest.raises(
            ConfigurationError, match=r"\$REPRO_SWEEP_WORKERS='garbage'"
        ):
            available_workers()

    def test_frame_curves_group_in_input_order(self):
        curves = SCENARIOS["figure1"].grid(TINY).run(workers=1).curves()
        for protocol in PROTOCOLS:
            assert [p.x for p in curves[protocol]] == list(TINY.bandwidth_points)
            assert all(p.protocol is protocol for p in curves[protocol])


class TestCacheEnvDefault:
    def test_repro_sweep_cache_env_supplies_default_cache_dir(
        self, tmp_path, monkeypatch
    ):
        """$REPRO_SWEEP_CACHE makes interrupted sweeps resume automatically."""
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path))
        specs = _specs(protocols=(ProtocolName.SNOOPING,))
        first = run_sweep(specs)
        assert len(JobStore(tmp_path).ids(DONE)) == len(specs), (
            "sweep points were not kept in the $REPRO_SWEEP_CACHE store"
        )
        _poison_execution(monkeypatch)
        second = run_sweep(specs)
        assert [_key(p) for p in second] == [_key(p) for p in first]

    def test_explicit_cache_dir_wins_over_env(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "env"
        explicit_dir = tmp_path / "explicit"
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(env_dir))
        run_sweep(_specs(protocols=(ProtocolName.SNOOPING,)), cache_dir=explicit_dir)
        assert _store_path(explicit_dir).exists()
        assert not env_dir.exists()

    def test_unset_env_means_no_cache(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_CACHE", raising=False)
        from repro.experiments.parallel import default_cache_dir

        assert default_cache_dir() is None

    def test_cache_dir_false_disables_env_cache(self, tmp_path, monkeypatch):
        """Benchmarks pass cache_dir=False so timed sweeps really run."""
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path))
        run_sweep(_specs(protocols=(ProtocolName.SNOOPING,)), cache_dir=False)
        assert not list(tmp_path.iterdir()), (
            "cache_dir=False must neither read nor write the env cache"
        )

    def test_cache_dir_true_means_default_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path))
        run_sweep(_specs(protocols=(ProtocolName.SNOOPING,)), cache_dir=True)
        assert _store_path(tmp_path).exists()
        monkeypatch.delenv("REPRO_SWEEP_CACHE")
        # True with no env default degrades to "no cache", not a crash.
        run_sweep(_specs(protocols=(ProtocolName.SNOOPING,))[:1], cache_dir=True)


# ----------------------------------------------------------------- dispatch


class TestDispatch:
    def test_uncached_serial_run_never_touches_the_service(self, monkeypatch):
        """workers=1, cache_dir=False (the benchmarked path) stays in-process."""

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("the serial path reached the job service")

        monkeypatch.setattr(parallel_module, "run_service_sweep", boom)
        points = run_sweep(_specs(), workers=1, cache_dir=False)
        assert all(point.performance > 0 for point in points)

    def test_parallel_run_removes_its_temporary_store(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.delenv("REPRO_SWEEP_CACHE", raising=False)
        specs = _specs(protocols=(ProtocolName.SNOOPING,))
        points = run_sweep(specs, workers=2)
        assert [_key(p) for p in points] == [
            _key(p) for p in run_sweep(specs, workers=1)
        ]
        assert not list(tmp_path.iterdir()), "the temporary store was left behind"

    def test_one_portable_point_never_builds_a_store(self, monkeypatch):
        """Spare workers with nothing to share them out do not make a fleet."""

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("a one-point sweep reached the job service")

        monkeypatch.setattr(parallel_module, "run_service_sweep", boom)
        (point,) = run_sweep(_specs()[:1], workers=4, cache_dir=False)
        assert point.performance > 0


class TestSharedStore:
    """A cache directory is shared: a run drains its own units, no others."""

    @staticmethod
    def _foreign_units(store):
        """A stale-looking foreign lease and a foreign pending unit."""
        foreign = _specs(protocols=(ProtocolName.DIRECTORY,))
        held = unit_for_spec(foreign[0])
        waiting = unit_for_spec(foreign[1])
        store.enqueue(held)
        lease = store.claim("ghost-worker")
        assert lease is not None
        store.enqueue(waiting)
        return held.unit_id, waiting.unit_id

    def _assert_untouched(self, store, offset, held, waiting):
        assert store.find(held) == "leased"
        assert store.find(waiting) == "pending"
        claims = {
            event["unit"]
            for event in store.journal_entries(offset=offset)
            if event["event"] == "claim"
        }
        assert not claims & {held, waiting}, "a foreign unit was claimed"
        return store.journal_entries(offset=offset)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cached_sweep_never_claims_foreign_units(self, tmp_path, workers):
        store = JobStore(tmp_path)
        held, waiting = self._foreign_units(store)
        offset = store.journal_offset()
        specs = _specs(protocols=(ProtocolName.SNOOPING,))
        points = run_sweep(specs, workers=workers, cache_dir=tmp_path)
        assert [_key(p) for p in points] == [
            _key(p) for p in run_sweep(specs, workers=1)
        ]
        events = self._assert_untouched(store, offset, held, waiting)
        if workers > 1:
            # Every fleet worker went idle and left by itself once this
            # run's units settled, despite the foreign lease still live.
            starts = [e for e in events if e["event"] == "worker-start"]
            exits = [e for e in events if e["event"] == "worker-exit"]
            assert len(starts) >= 2
            assert len(exits) == len(starts)


class TestFailingPoints:
    @staticmethod
    def _sabotage(monkeypatch):
        """Every run of a 3200 MB/s point raises; the others run normally."""
        original = BatchRunner.run_spec

        def sabotaged(runner, spec):
            if spec.bandwidth == 3200.0:
                raise RuntimeError("synthetic point failure")
            return original(runner, spec)

        monkeypatch.setattr(BatchRunner, "run_spec", sabotaged)

    def test_uncached_serial_run_raises_the_error_directly(self, monkeypatch):
        self._sabotage(monkeypatch)
        with pytest.raises(RuntimeError, match="synthetic point failure"):
            run_sweep(
                _specs(protocols=(ProtocolName.SNOOPING,)), workers=1, cache_dir=False
            )

    def test_store_backed_run_quarantines_and_names_the_error(
        self, tmp_path, monkeypatch
    ):
        self._sabotage(monkeypatch)
        specs = _specs(protocols=(ProtocolName.SNOOPING,))
        with pytest.raises(ServiceError, match="synthetic point failure"):
            run_sweep(specs, cache_dir=tmp_path)
        # The healthy point was committed before the sweep raised.
        store = JobStore(tmp_path)
        assert store.ids(DONE) == [specs[0].cache_key()]
        assert store.find(specs[1].cache_key()) == "quarantine"
