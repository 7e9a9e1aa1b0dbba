"""Edge cases of the consistency checker plus invariant-message regressions."""

import re

import pytest

from repro.coherence.state import MOSIState
from repro.coherence.directory import MEMORY_OWNER
from repro.common.config import ProtocolName
from repro.errors import VerificationError
from repro.verification.consistency import ConsistencyChecker
from repro.verification.invariants import (
    InvariantMonitor,
    check_invariants,
    check_settled_block,
    check_single_owner,
)
from repro.workloads.base import MemoryOperation


class TestConsistencyEdgeCases:
    def test_concurrent_same_cycle_writes_order_by_sequence(self):
        """Two stores completing in the same cycle are still totally ordered
        by their interconnect sequence numbers, never by completion time."""
        checker = ConsistencyChecker()
        checker.record_write(node=0, address=0, token=1, order_seq=4, time=500)
        checker.record_write(node=1, address=0, token=2, order_seq=7, time=500)
        checker.record_read(node=2, address=0, token=2, order_seq=9, time=500)
        assert checker.check() == []
        # The same-cycle read observing the *earlier* store is stale.
        checker.record_read(node=3, address=0, token=1, order_seq=11, time=500)
        violations = checker.check()
        assert len(violations) == 1
        assert "latest earlier store wrote 2" in violations[0]

    def test_read_after_writeback_sees_memory_copy(self):
        """A writeback does not change the block's value: a read ordered after
        it must still observe the last store's token (served from memory)."""
        checker = ConsistencyChecker()
        checker.record_write(node=0, address=64, token=5, order_seq=3, time=10)
        # Writebacks are not recorded as stores; the later read is served by
        # memory, which must hold token 5.
        checker.record_read(node=1, address=64, token=5, order_seq=8, time=40)
        assert checker.check() == []
        # Observing the pre-writeback initial value instead is a violation.
        checker.record_read(node=2, address=64, token=0, order_seq=9, time=50)
        assert len(checker.check()) == 1

    def test_silent_store_chain_is_accepted(self):
        """Loads racing an owner's silent stores may see any chain prefix."""
        checker = ConsistencyChecker()
        checker.record_write(node=0, address=0, token=1, order_seq=2, time=10)
        checker.record_silent_write(node=0, address=0, token=2, parent_token=1, time=20)
        checker.record_silent_write(node=0, address=0, token=3, parent_token=2, time=30)
        for observed in (1, 2, 3):
            chain_checker = ConsistencyChecker()
            chain_checker.accesses.extend(checker.accesses)
            chain_checker.record_read(
                node=1, address=0, token=observed, order_seq=5, time=40
            )
            assert chain_checker.check() == [], observed

    def test_silent_chain_from_an_older_store_is_stale(self):
        """A chain descending from a superseded store must not satisfy reads
        ordered after the superseding store."""
        checker = ConsistencyChecker()
        checker.record_write(node=0, address=0, token=1, order_seq=2, time=10)
        checker.record_silent_write(node=0, address=0, token=2, parent_token=1, time=20)
        checker.record_write(node=1, address=0, token=9, order_seq=6, time=30)
        checker.record_read(node=2, address=0, token=2, order_seq=8, time=40)
        violations = checker.check()
        assert len(violations) == 1
        assert "latest earlier store wrote 9" in violations[0]

    def test_dangling_silent_chain_reports_unknown_token(self):
        checker = ConsistencyChecker()
        checker.record_silent_write(node=0, address=0, token=7, parent_token=99, time=5)
        checker.record_read(node=1, address=0, token=7, order_seq=3, time=10)
        violations = checker.check()
        assert len(violations) == 1
        assert "unknown token 7" in violations[0]

    def test_reset_forgets_accesses(self):
        checker = ConsistencyChecker()
        checker.record_write(0, 0, 1, 1, 1)
        checker.reset()
        assert checker.accesses == []
        assert checker.reads == checker.writes == 0


def _run_write_then_share(build_trace_system, protocol=ProtocolName.SNOOPING):
    ops = {
        0: [MemoryOperation(address=0, is_write=True)],
        1: [MemoryOperation(address=0, is_write=False, think_cycles=1500)],
        2: [],
        3: [],
    }
    system = build_trace_system(protocol, ops)
    system.run()
    return system


class TestInvariantMessageFormats:
    """Seeded regressions pinning the exact wording of every violation."""

    def test_multiple_owner_message(self, build_trace_system):
        system = _run_write_then_share(build_trace_system)
        rogue = system.nodes[2].cache_controller.blocks.lookup(0)
        rogue.state = MOSIState.MODIFIED
        report = check_invariants(system)
        assert any(
            re.fullmatch(r"block 0x0: multiple cache owners \[0, 2\]", v)
            for v in report.violations
        ), report.violations

    def test_modified_with_copies_message(self, build_trace_system):
        system = _run_write_then_share(build_trace_system)
        owner = system.nodes[0].cache_controller.blocks.lookup(0)
        owner.state = MOSIState.MODIFIED
        report = check_invariants(system)
        assert any(
            re.fullmatch(
                r"block 0x0: node 0 is Modified but \[1\] also hold copies", v
            )
            for v in report.violations
        ), report.violations

    def test_no_owner_but_home_disagrees_message(self, build_trace_system):
        system = _run_write_then_share(
            build_trace_system, ProtocolName.DIRECTORY
        )
        system.nodes[0].cache_controller.blocks.lookup(0).invalidate()
        report = check_invariants(system)
        assert any(
            re.fullmatch(r"block 0x0: no cache owner but home says P0 owns it", v)
            for v in report.violations
        ), report.violations

    def test_owner_but_home_says_memory_message(self, build_trace_system):
        system = _run_write_then_share(
            build_trace_system, ProtocolName.DIRECTORY
        )
        home = system.nodes[system.config.home_node(0)]
        home.memory_controller.directory.lookup(0).owner = MEMORY_OWNER
        report = check_invariants(system)
        assert any(
            re.fullmatch(
                r"block 0x0: cache \[0\] owns it but home says memory is the "
                r"owner",
                v,
            )
            for v in report.violations
        ), report.violations

    def test_stale_sharer_message(self, build_trace_system):
        system = _run_write_then_share(build_trace_system)
        system.nodes[1].cache_controller.blocks.lookup(0).data_token = 424242
        report = check_invariants(system)
        assert any(
            re.match(r"block 0x0: P1 holds stale token 424242 \(owner has \d+\)", v)
            for v in report.violations
        ), report.violations

    def test_consistency_unknown_token_message(self):
        checker = ConsistencyChecker()
        checker.record_read(node=2, address=64, token=17, order_seq=4, time=9)
        assert checker.check() == ["block 0x40: P2 read unknown token 17"]

    def test_consistency_stale_read_message(self):
        checker = ConsistencyChecker()
        checker.record_write(node=0, address=64, token=3, order_seq=2, time=5)
        checker.record_write(node=1, address=64, token=4, order_seq=6, time=8)
        checker.record_read(node=2, address=64, token=3, order_seq=9, time=12)
        assert checker.check() == [
            "block 0x40: P2 read token 3 at order 9 but the latest earlier "
            "store wrote 4"
        ]

    def test_raise_on_violation_wraps_the_messages(self):
        checker = ConsistencyChecker()
        checker.record_read(node=0, address=0, token=5, order_seq=1, time=1)
        with pytest.raises(VerificationError, match="unknown token 5"):
            checker.raise_on_violation()


class TestMonitorPieces:
    def test_single_owner_check_flags_two_owners(self, build_trace_system):
        system = _run_write_then_share(build_trace_system)
        assert check_single_owner(system, 0) is None
        system.nodes[3].cache_controller.blocks.lookup(0).state = MOSIState.OWNED
        assert "multiple cache owners" in check_single_owner(system, 0)

    def test_settled_check_flags_stale_sharer(self, build_trace_system):
        system = _run_write_then_share(build_trace_system)
        assert check_settled_block(system, 0) == []
        system.nodes[1].cache_controller.blocks.lookup(0).data_token = 7
        assert any(
            "stale token 7" in v for v in check_settled_block(system, 0)
        )

    def test_monitor_confirms_persistent_violations_only(self, build_trace_system):
        system = _run_write_then_share(build_trace_system)
        monitor = InvariantMonitor(system, confirm_cycles=50)
        # Corrupt a sharer, then report a completion for the address: the
        # candidate must only be recorded after it persists to the confirm
        # probe.
        system.nodes[1].cache_controller.blocks.lookup(0).data_token = 31337
        monitor.check_address(0)
        assert monitor.violations == []  # candidate, not yet confirmed
        system.simulator.run(until=system.simulator.now + 200)
        assert monitor.candidates_seen == 1
        assert any("stale token 31337" in v for v in monitor.violations)
        assert monitor.tripped
        assert not monitor.report().ok

    def test_monitor_drops_transient_violations(self, build_trace_system):
        system = _run_write_then_share(build_trace_system)
        block = system.nodes[1].cache_controller.blocks.lookup(0)
        original = block.data_token
        monitor = InvariantMonitor(system, confirm_cycles=100)
        block.data_token = 555
        monitor.check_address(0)
        # The "invalidation" lands before the confirm probe: candidate clears.
        system.simulator.scheduler.schedule_after_fast(
            10, lambda: setattr(block, "data_token", original), "heal"
        )
        system.simulator.run(until=system.simulator.now + 500)
        assert monitor.candidates_seen == 1
        assert monitor.violations == []
