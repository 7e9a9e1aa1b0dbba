"""Reset-equivalence contract of the zero-rebuild sweep engine.

A :class:`MultiprocessorSystem` re-armed with :meth:`reset` must be
*indistinguishable* from a freshly constructed one: field-for-field identical
:class:`RunResult`\\ s (including the full stats snapshot) and bit-identical
golden event traces.  The batched sweep executor and the arena's pooled
allocation both rely on this contract, so it is pinned here for every
protocol, across seeds, bandwidths, thresholds and cache capacities.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.common.config import AdaptiveConfig, ProtocolName, SystemConfig
from repro.experiments.batch import BatchRunner
from repro.experiments.parallel import PointSpec
from repro.experiments.runner import QUICK, microbenchmark_factory, run_point
from repro.sim.arena import SimulationArena
from repro.system.multiprocessor import MultiprocessorSystem, simulate
from repro.workloads.microbenchmark import LockingMicrobenchmark

from ..conftest import ALL_PROTOCOLS, FAST_ADAPTIVE

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "data" / "golden_traces.json"

SEEDS = (1, 2)


def _config(protocol, seed, bandwidth=1600.0, threshold=0.75, capacity=None):
    extra = {} if capacity is None else {"cache_capacity_blocks": capacity}
    return SystemConfig(
        num_processors=8,
        protocol=protocol,
        bandwidth_mb_per_second=bandwidth,
        adaptive=dataclasses.replace(
            FAST_ADAPTIVE, utilization_threshold=threshold
        ),
        random_seed=seed,
        **extra,
    )


def _workload():
    return LockingMicrobenchmark(
        num_locks=64, acquires_per_processor=30, think_jitter=16
    )


class TestResetEquivalence:
    def test_reset_reused_system_matches_fresh_for_every_protocol_and_seed(
        self, protocol, backend
    ):
        """The headline contract: reset + run == build + run, field for field."""
        fresh = {
            seed: simulate(_config(protocol, seed), _workload()) for seed in SEEDS
        }
        arena = SimulationArena()
        system = MultiprocessorSystem(
            _config(protocol, SEEDS[0]), _workload(), arena=arena
        )
        assert system.run() == fresh[SEEDS[0]]
        for seed in SEEDS:
            # Deliberately out of construction order and repeated: the reset
            # must not depend on what ran before.
            result = system.reset(_workload(), _config(protocol, seed)).run()
            assert result == fresh[seed], f"reset run diverged for seed {seed}"

    def test_reset_across_bandwidth_and_threshold_changes(self, protocol):
        points = [(400.0, 0.75), (6400.0, 0.75), (1600.0, 0.55), (1600.0, 0.95)]
        arena = SimulationArena()
        system = MultiprocessorSystem(
            _config(protocol, 1), _workload(), arena=arena
        )
        system.run()
        for bandwidth, threshold in points:
            config = _config(protocol, 2, bandwidth=bandwidth, threshold=threshold)
            assert system.reset(_workload(), config).run() == simulate(
                config, _workload()
            )

    def test_reset_across_cache_capacity_change(self, protocol):
        small = _config(protocol, 1, capacity=2)
        large = _config(protocol, 1)
        system = MultiprocessorSystem(large, _workload())
        system.run()
        assert system.reset(_workload(), small).run() == simulate(small, _workload())
        assert system.reset(_workload(), large).run() == simulate(large, _workload())

    def test_structural_config_change_is_rejected(self):
        from repro.errors import SimulationError

        system = MultiprocessorSystem(
            _config(ProtocolName.SNOOPING, 1), _workload()
        )
        wrong_protocol = _config(ProtocolName.DIRECTORY, 1)
        with pytest.raises(SimulationError, match="structural"):
            system.reset(_workload(), wrong_protocol)
        wrong_size = dataclasses.replace(
            _config(ProtocolName.SNOOPING, 1), num_processors=4
        )
        with pytest.raises(SimulationError, match="structural"):
            system.reset(_workload(), wrong_size)

    def test_stats_snapshot_carries_no_ghost_names(self, protocol):
        """Statistics created lazily by run N must not appear after reset N+1.

        Seed variation alone rarely changes the lazily created stat set, so
        this drives one run at a *different bandwidth* first and then checks
        the reset run's snapshot against a fresh system's, key set included
        (RunResult equality already covers it; this pins the mechanism).
        """
        config = _config(protocol, 2)
        fresh = simulate(config, _workload())
        system = MultiprocessorSystem(
            _config(protocol, 1, bandwidth=200.0), _workload()
        )
        system.run()
        reset_result = system.reset(_workload(), config).run()
        assert set(reset_result.stats) == set(fresh.stats)
        assert reset_result.stats == fresh.stats


class TestGoldenTraceAfterReset:
    @pytest.mark.parametrize(
        "name", ["snooping", "directory", "bash", "directory_fastpath"]
    )
    def test_golden_trace_is_bit_identical_on_a_reused_system(self, name):
        golden = json.loads(GOLDEN_PATH.read_text())[name]
        cfg = golden["config"]
        extra = {}
        if "cache_capacity_blocks" in cfg:
            extra["cache_capacity_blocks"] = cfg["cache_capacity_blocks"]
        config = SystemConfig(
            num_processors=cfg["num_processors"],
            protocol=ProtocolName(cfg.get("protocol", name)),
            bandwidth_mb_per_second=cfg["bandwidth_mb_per_second"],
            adaptive=AdaptiveConfig(
                sampling_interval=cfg["sampling_interval"],
                policy_counter_bits=cfg["policy_counter_bits"],
            ),
            random_seed=cfg["random_seed"],
            **extra,
        )

        def workload():
            return LockingMicrobenchmark(
                num_locks=cfg["num_locks"],
                acquires_per_processor=cfg["acquires_per_processor"],
                think_cycles=0,
            )

        warm = dataclasses.replace(config, random_seed=cfg["random_seed"] + 7)
        system = MultiprocessorSystem(warm, workload(), arena=SimulationArena())
        system.run()  # warm run with a different seed dirties every component
        system.reset(workload(), config)
        trace = []
        system.simulator.scheduler.on_fire = lambda time, label: trace.append(
            [time, label]
        )
        system.run()
        assert len(trace) == golden["fired"]
        assert system.simulator.now == golden["final_time"]
        assert trace == golden["events"]


class TestArenaPooling:
    def test_pooled_run_matches_unpooled_run(self, protocol):
        config = _config(protocol, 1)
        plain = simulate(config, _workload())
        pooled = simulate(config, _workload(), arena=SimulationArena())
        assert plain == pooled

    def test_pools_recycle_across_resets(self):
        arena = SimulationArena()
        config = _config(ProtocolName.DIRECTORY, 1)
        system = MultiprocessorSystem(config, _workload(), arena=arena)
        system.run()
        assert arena.pooled_messages > 0
        assert arena.pooled_transactions > 0
        level = arena.pooled_messages
        system.reset(_workload(), config).run()
        # The second run drew from (and refilled) the free lists rather than
        # growing them without bound.
        assert arena.pooled_messages <= max(level * 2, 4096)

    def test_runtime_guard_restores_gc_state(self):
        import gc

        arena = SimulationArena()
        assert gc.isenabled()
        with arena.runtime():
            assert not gc.isenabled()
            with arena.runtime():  # reentrant: inner guard is a no-op
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_runtime_guard_restores_gc_state_on_error(self):
        import gc

        arena = SimulationArena()
        with pytest.raises(RuntimeError):
            with arena.runtime():
                raise RuntimeError("boom")
        assert gc.isenabled()


class TestBatchRunner:
    def _specs(self):
        scale = dataclasses.replace(
            QUICK,
            name="tiny-batch",
            microbenchmark_processors=4,
            acquires_per_processor=8,
            num_locks=16,
            seeds=(1, 2),
        )
        workload = microbenchmark_factory(scale)
        return [
            PointSpec(scale=scale, protocol=protocol, bandwidth=bandwidth, workload=workload)
            for protocol in ALL_PROTOCOLS
            for bandwidth in (800.0, 3200.0)
        ]

    def test_batched_points_equal_rebuilt_points(self):
        specs = self._specs()
        runner = BatchRunner()
        for spec in specs:
            batched = runner.run_spec(spec)
            rebuilt = run_point(
                spec.scale, spec.protocol, spec.bandwidth, spec.workload
            )
            assert batched.results == rebuilt.results
            assert len(batched.results) == len(spec.scale.seeds)
            assert all(result.operations > 0 for result in batched.results)
        # One system per (protocol, processor count), not one per point.
        assert len(runner._systems) == len({spec.protocol for spec in specs})

    def test_batch_key_uses_explicit_processor_count(self):
        specs = self._specs()
        runner = BatchRunner()
        runner.run_spec(specs[0])
        runner.run_spec(dataclasses.replace(specs[0], num_processors=8))
        runner.run_spec(specs[0])
        assert set(runner._systems) == {
            (specs[0].protocol, specs[0].scale.microbenchmark_processors),
            (specs[0].protocol, 8),
        }
