"""Invariant checking, value consistency, and the random protocol tester."""

import pytest

from repro.coherence.state import MOSIState
from repro.common.config import ProtocolName
from repro.errors import VerificationError
from repro.experiments.batch import BatchRunner
from repro.verification.consistency import ConsistencyChecker
from repro.verification.invariants import check_invariants
from repro.verification.random_tester import (
    RandomProtocolTester,
    run_random_campaign,
)
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


class TestRandomTester:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_campaign_passes_for_every_protocol(self, protocol, seed):
        tester = RandomProtocolTester(
            protocol, num_processors=4, num_blocks=3, operations=200, seed=seed
        )
        result = tester.run()
        assert result.operations_completed == result.operations_issued
        result.raise_on_failure()
        assert result.ok

    def test_bash_campaign_exercises_retries(self):
        tester = RandomProtocolTester(
            ProtocolName.BASH,
            num_processors=4,
            num_blocks=2,
            operations=300,
            seed=5,
            bandwidth_mb_per_second=1600.0,
        )
        # Force a unicast-heavy mix so insufficiency and retries are common.
        for node in tester.system.nodes:
            node.cache_controller.adaptive.policy_counter.reset(200)
        result = tester.run()
        result.raise_on_failure()
        assert result.retries > 0

    def test_false_sharing_campaign_with_low_bandwidth(self, protocol):
        tester = RandomProtocolTester(
            protocol,
            num_processors=6,
            num_blocks=2,
            operations=150,
            seed=11,
            bandwidth_mb_per_second=200.0,
        )
        result = tester.run()
        result.raise_on_failure()

    def test_midrun_monitor_runs_by_default(self, protocol):
        tester = RandomProtocolTester(
            protocol, num_processors=4, num_blocks=3, operations=120, seed=3
        )
        result = tester.run()
        result.raise_on_failure()
        assert result.midrun_report is not None
        assert result.midrun_report.blocks_checked >= result.operations_completed


class TestOutstandingConcurrency:
    """The paper's races need multiple outstanding misses per node."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_two_outstanding_ops_pass_every_check(self, protocol, seed):
        tester = RandomProtocolTester(
            protocol,
            num_processors=4,
            num_blocks=4,
            operations=250,
            seed=seed,
            max_outstanding_per_node=2,
        )
        result = tester.run()
        result.raise_on_failure()
        assert result.ok
        # The concurrency must actually have happened, not just been allowed.
        assert result.max_outstanding_observed >= 2

    def test_four_outstanding_with_low_bandwidth(self, protocol):
        tester = RandomProtocolTester(
            protocol,
            num_processors=4,
            num_blocks=6,
            operations=200,
            seed=7,
            bandwidth_mb_per_second=200.0,
            max_outstanding_per_node=4,
        )
        result = tester.run()
        result.raise_on_failure()
        assert result.max_outstanding_observed >= 3

    def test_blocking_default_never_exceeds_one(self, protocol):
        tester = RandomProtocolTester(
            protocol, num_processors=4, num_blocks=3, operations=100, seed=5
        )
        result = tester.run()
        result.raise_on_failure()
        assert result.max_outstanding_observed == 1

    def test_campaign_helper_threads_the_new_parameters(self):
        results = run_random_campaign(
            ProtocolName.DIRECTORY,
            seeds=range(2),
            operations=120,
            bandwidth_mb_per_second=800.0,
            max_outstanding_per_node=2,
        )
        assert len(results) == 2
        for result in results:
            result.raise_on_failure()
            assert result.max_outstanding_observed >= 2

    def test_reset_reuse_through_acquire(self):
        runner = BatchRunner()
        first = RandomProtocolTester(
            ProtocolName.SNOOPING, operations=100, seed=2, acquire=runner.acquire
        ).run()
        second = RandomProtocolTester(
            ProtocolName.SNOOPING, operations=100, seed=2, acquire=runner.acquire
        ).run()
        first.raise_on_failure()
        second.raise_on_failure()
        assert len(runner._systems) == 1
        assert first.operations_issued == second.operations_issued
        assert first.reads == second.reads and first.writes == second.writes
