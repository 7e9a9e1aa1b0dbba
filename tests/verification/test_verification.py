"""Invariant checking, value consistency, and the random tester as contended
trace replays."""

import pytest

from repro.coherence.state import MOSIState
from repro.common.config import ProtocolName
from repro.errors import VerificationError
from repro.experiments.batch import BatchRunner
from repro.system.multiprocessor import MultiprocessorSystem
from repro.verification.campaign import CampaignSpec
from repro.verification.consistency import ConsistencyChecker
from repro.verification.differential import (
    CONTENDED,
    ReplayConfig,
    TraceReplayer,
    empty_trace_workload,
    generate_trace,
    run_differential,
)
from repro.verification.invariants import check_invariants
from repro.workloads.base import MemoryOperation
from repro.workloads.trace import TraceWorkload

from ..conftest import build_trace_system


class TestInvariantChecker:
    def test_clean_system_passes(self, protocol):
        ops = {
            0: [MemoryOperation(address=0, is_write=True)],
            1: [MemoryOperation(address=0, is_write=False, think_cycles=1500)],
            2: [MemoryOperation(address=64, is_write=True)],
            3: [],
        }
        system = build_trace_system(protocol, ops)
        system.run()
        report = check_invariants(system)
        assert report.ok, report.violations
        assert report.blocks_checked >= 2

    def test_detects_double_owner(self):
        ops = {0: [MemoryOperation(address=0, is_write=True)], 1: [], 2: [], 3: []}
        system = build_trace_system(ProtocolName.SNOOPING, ops)
        system.run()
        # Corrupt the system: force a second cache to claim ownership.
        rogue = system.nodes[2].cache_controller.blocks.lookup(0)
        rogue.state = MOSIState.MODIFIED
        report = check_invariants(system)
        assert not report.ok
        with pytest.raises(VerificationError):
            report.raise_on_violation()

    def test_detects_directory_owner_mismatch(self):
        ops = {0: [MemoryOperation(address=0, is_write=True)], 1: [], 2: [], 3: []}
        system = build_trace_system(ProtocolName.DIRECTORY, ops)
        system.run()
        # Corrupt the owner's cache: silently drop the modified block.
        system.nodes[0].cache_controller.blocks.lookup(0).invalidate()
        report = check_invariants(system)
        assert not report.ok

    def test_detects_stale_sharer_token(self):
        ops = {
            0: [MemoryOperation(address=0, is_write=True)],
            1: [MemoryOperation(address=0, is_write=False, think_cycles=1500)],
            2: [],
            3: [],
        }
        system = build_trace_system(ProtocolName.SNOOPING, ops)
        system.run()
        system.nodes[1].cache_controller.blocks.lookup(0).data_token = 424242
        report = check_invariants(system)
        assert not report.ok


class TestConsistencyChecker:
    def test_reads_must_see_latest_earlier_write(self):
        checker = ConsistencyChecker()
        checker.record_write(node=0, address=0, token=1, order_seq=1, time=10)
        checker.record_write(node=1, address=0, token=2, order_seq=5, time=20)
        checker.record_read(node=2, address=0, token=2, order_seq=7, time=30)
        assert checker.check() == []

    def test_stale_read_is_flagged(self):
        checker = ConsistencyChecker()
        checker.record_write(node=0, address=0, token=1, order_seq=1, time=10)
        checker.record_write(node=1, address=0, token=2, order_seq=5, time=20)
        checker.record_read(node=2, address=0, token=1, order_seq=9, time=30)
        violations = checker.check()
        assert len(violations) == 1
        with pytest.raises(VerificationError):
            checker.raise_on_violation()

    def test_read_before_any_write_sees_initial_value(self):
        checker = ConsistencyChecker()
        checker.record_read(node=0, address=0, token=0, order_seq=1, time=5)
        checker.record_write(node=1, address=0, token=3, order_seq=4, time=20)
        assert checker.check() == []

    def test_counts(self):
        checker = ConsistencyChecker()
        checker.record_write(0, 0, 1, 1, 1)
        checker.record_read(1, 0, 1, 2, 2)
        assert checker.writes == 1
        assert checker.reads == 1


def contended(
    protocol,
    seed,
    num_processors=4,
    num_blocks=4,
    operations=400,
    acquire=None,
    **replay,
):
    """One protocol's contended replay: the paper's random tester as a trace."""
    trace = generate_trace(
        seed,
        num_processors=num_processors,
        num_blocks=num_blocks,
        operations=operations,
        mode=CONTENDED,
    )
    result = run_differential(
        trace, protocols=[protocol], replay=ReplayConfig(**replay), acquire=acquire
    )
    result.raise_on_failure()
    return result.results[ProtocolName(protocol)]


class TestRandomTester:
    """False sharing on a few hot blocks under several racing writers."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_campaign_passes_for_every_protocol(self, protocol, seed):
        result = contended(
            protocol, seed, num_processors=4, num_blocks=3, operations=200
        )
        assert result.completed == result.operations == 200
        assert result.ok

    def test_bash_campaign_exercises_retries(self):
        trace = generate_trace(
            5, num_processors=4, num_blocks=2, operations=300, mode=CONTENDED
        )
        replay = ReplayConfig(bandwidth_mb_per_second=1600.0, policy_counter_bits=8)
        system = MultiprocessorSystem(
            replay.system_config(trace, ProtocolName.BASH), empty_trace_workload(4)
        )
        # Force a unicast-heavy mix so insufficiency and retries are common.
        for node in system.nodes:
            node.cache_controller.adaptive.policy_counter.reset(200)
        result = TraceReplayer(system, trace, replay).run()
        assert result.ok, result.failures()
        assert result.retries > 0

    def test_false_sharing_campaign_with_low_bandwidth(self, protocol):
        contended(
            protocol,
            11,
            num_processors=6,
            num_blocks=2,
            operations=150,
            bandwidth_mb_per_second=200.0,
        )

    def test_midrun_monitor_runs_by_default(self, protocol):
        result = contended(
            protocol, 3, num_processors=4, num_blocks=3, operations=120
        )
        assert result.midrun_report is not None
        assert result.midrun_report.blocks_checked >= result.completed


class TestOutstandingConcurrency:
    """The paper's races need multiple outstanding misses per node."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_two_outstanding_ops_pass_every_check(self, protocol, seed):
        result = contended(
            protocol,
            seed,
            num_processors=4,
            num_blocks=4,
            operations=250,
            max_outstanding_per_node=2,
        )
        assert result.ok
        # The concurrency must actually have happened, not just been allowed.
        assert result.max_outstanding_observed >= 2

    def test_four_outstanding_with_low_bandwidth(self, protocol):
        result = contended(
            protocol,
            7,
            num_processors=4,
            num_blocks=6,
            operations=200,
            bandwidth_mb_per_second=200.0,
            max_outstanding_per_node=4,
        )
        assert result.max_outstanding_observed >= 3

    def test_blocking_default_never_exceeds_one(self, protocol):
        result = contended(
            protocol, 5, num_processors=4, num_blocks=3, operations=100
        )
        assert result.max_outstanding_observed == 1

    def test_campaign_helper_threads_the_new_parameters(self):
        spec = CampaignSpec(
            name="contended",
            seeds=(),
            protocols=("directory",),
            bandwidths=(800.0,),
            outstanding=(2,),
            contended_seeds=(1, 2),
            contended_operations=120,
        )
        tasks = spec.tasks()
        assert len(tasks) == 2
        for task in tasks:
            assert task.mode == CONTENDED
            result = run_differential(
                task.source(),
                protocols=[ProtocolName.DIRECTORY],
                replay=task.replay_config(),
            )
            result.raise_on_failure()
            replay = result.results[ProtocolName.DIRECTORY]
            assert replay.max_outstanding_observed >= 2

    def test_reset_reuse_through_acquire(self):
        runner = BatchRunner()
        first = contended(
            ProtocolName.SNOOPING, 2, operations=100, acquire=runner.acquire
        )
        second = contended(
            ProtocolName.SNOOPING, 2, operations=100, acquire=runner.acquire
        )
        assert len(runner._systems) == 1
        assert first.completed == second.completed == 100
        assert (first.hits, first.silent_stores, first.retries, first.cycles) == (
            second.hits,
            second.silent_stores,
            second.retries,
            second.cycles,
        )
        assert first.observations == second.observations
