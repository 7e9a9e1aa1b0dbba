"""The parallel sweep executor: determinism, caching, and fallback."""

from __future__ import annotations

import dataclasses
import os
import time

import pytest

from repro.common.config import ProtocolName
from repro.errors import ConfigurationError
from repro.experiments.parallel import (
    TASK_TIMEOUT_ENV,
    PointSpec,
    SweepCache,
    available_workers,
    resolve_task_timeout,
    run_sweep,
    sweep_curves,
)
from repro.experiments.runner import (
    PROTOCOLS,
    QUICK,
    LockingWorkloadSpec,
    microbenchmark_factory,
    protocol_sweep,
)

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

    def test_protocol_sweep_parallel_matches_serial(self):
        workload = microbenchmark_factory(TINY)
        serial = protocol_sweep(TINY, TINY.bandwidth_points, workload)
        parallel = protocol_sweep(TINY, TINY.bandwidth_points, workload, workers=2)
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
        # Poison run_point: a cache hit must not re-simulate.
        import repro.experiments.parallel as parallel_module

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("cache miss: run_point was called")

        monkeypatch.setattr(parallel_module, "run_point", boom)
        second = run_sweep(specs, cache_dir=tmp_path)
        assert [_key(p) for p in first] == [_key(p) for p in second]
        assert second[0].results[0].stats  # full RunResults survive the cache

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

    def test_corrupt_cache_entry_is_recomputed(self, tmp_path):
        specs = _specs(protocols=(ProtocolName.SNOOPING,))[:1]
        run_sweep(specs, cache_dir=tmp_path)
        entry = tmp_path / f"{specs[0].cache_key()}.json"
        entry.write_text("{not json")
        again = run_sweep(specs, cache_dir=tmp_path)
        assert again[0].performance > 0


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

    def test_sweep_curves_groups_in_input_order(self):
        specs = _specs()
        points = run_sweep(specs, workers=1)
        curves = sweep_curves(specs, points, PROTOCOLS)
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
        cached_files = list(tmp_path.glob("*.json"))
        assert cached_files, "sweep points were not memoised in $REPRO_SWEEP_CACHE"

        calls = []
        original = PointSpec.run

        def counting_run(spec):
            calls.append(spec)
            return original(spec)

        monkeypatch.setattr(PointSpec, "run", counting_run)
        second = run_sweep(specs)
        assert not calls, "cached points were re-simulated despite the env cache"
        assert [_key(p) for p in second] == [_key(p) for p in first]

    def test_explicit_cache_dir_wins_over_env(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "env"
        explicit_dir = tmp_path / "explicit"
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(env_dir))
        run_sweep(_specs(protocols=(ProtocolName.SNOOPING,)), cache_dir=explicit_dir)
        assert list(explicit_dir.glob("*.json"))
        assert not env_dir.exists()

    def test_unset_env_means_no_cache(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_CACHE", raising=False)
        from repro.experiments.parallel import default_cache_dir

        assert default_cache_dir() is None

    def test_cache_dir_false_disables_env_cache(self, tmp_path, monkeypatch):
        """Benchmarks pass cache_dir=False so timed sweeps really run."""
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path))
        run_sweep(_specs(protocols=(ProtocolName.SNOOPING,)), cache_dir=False)
        assert not list(tmp_path.glob("*.json")), (
            "cache_dir=False must neither read nor write the env cache"
        )

    def test_cache_dir_true_means_default_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path))
        run_sweep(_specs(protocols=(ProtocolName.SNOOPING,)), cache_dir=True)
        assert list(tmp_path.glob("*.json"))
        monkeypatch.delenv("REPRO_SWEEP_CACHE")
        # True with no env default degrades to "no cache", not a crash.
        run_sweep(_specs(protocols=(ProtocolName.SNOOPING,))[:1], cache_dir=True)


# --------------------------------------------------------------- robustness

_PARENT_PID = os.getpid()


def _hang_in_child(specs_chunk):
    """Pool chunk runner that wedges only inside a pool worker process."""
    if os.getpid() != _PARENT_PID:
        time.sleep(600)  # terminated by shutdown_pool, never finishes
    from repro.experiments.parallel import _run_chunk

    return _run_chunk(specs_chunk)


class TestTaskTimeout:
    def test_timeout_resolution_argument_env_and_disable(self, monkeypatch):
        monkeypatch.delenv(TASK_TIMEOUT_ENV, raising=False)
        assert resolve_task_timeout(None) is None
        assert resolve_task_timeout(5) == 5.0
        assert resolve_task_timeout(False) is None
        monkeypatch.setenv(TASK_TIMEOUT_ENV, "2.5")
        assert resolve_task_timeout(None) == 2.5
        assert resolve_task_timeout(10) == 10.0
        assert resolve_task_timeout(False) is None  # False beats the env
        monkeypatch.setenv(TASK_TIMEOUT_ENV, "garbage")
        with pytest.raises(
            ConfigurationError, match=r"\$REPRO_TASK_TIMEOUT='garbage'"
        ):
            resolve_task_timeout(None)
        assert resolve_task_timeout(5) == 5.0  # an explicit argument wins
        monkeypatch.setenv(TASK_TIMEOUT_ENV, "0")
        assert resolve_task_timeout(None) is None

    def test_hung_pool_task_is_cancelled_and_retried_serially(
        self, monkeypatch, caplog
    ):
        import logging

        import repro.experiments.parallel as parallel_module

        specs = _specs(protocols=(ProtocolName.SNOOPING,))
        expected = run_sweep(specs, workers=1)
        monkeypatch.setattr(parallel_module, "_run_chunk", _hang_in_child)
        with caplog.at_level(logging.WARNING, logger="repro.experiments.parallel"):
            points = run_sweep(specs, workers=2, task_timeout=0.5)
        assert [_key(p) for p in points] == [_key(p) for p in expected]
        assert any("task timeout" in record.message for record in caplog.records)


class TestCacheQuarantine:
    def test_corrupt_entry_is_renamed_not_left_in_place(self, tmp_path):
        specs = _specs(protocols=(ProtocolName.SNOOPING,))[:1]
        first = run_sweep(specs, cache_dir=tmp_path)
        entry = tmp_path / f"{specs[0].cache_key()}.json"
        entry.write_text('{"torn":')
        again = run_sweep(specs, cache_dir=tmp_path)
        assert [_key(p) for p in again] == [_key(p) for p in first]
        quarantined = tmp_path / f"{specs[0].cache_key()}.json.corrupt"
        assert quarantined.exists(), "corrupt cache entry was not quarantined"
        # The recomputed point was re-memoised over the old key.
        assert entry.exists()
        third = run_sweep(specs, cache_dir=tmp_path)
        assert [_key(p) for p in third] == [_key(p) for p in first]
