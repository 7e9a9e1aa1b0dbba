"""Racing-transaction scenarios run across every protocol.

These integration tests aim the simulator at the corner cases Section 3
discusses: racing GETM requests, writebacks racing with ownership transfers,
heavily false-shared blocks, and (for BASH) the window of vulnerability
between an insufficient request and its retry.  After every run the coherence
invariants and value-consistency checks must hold.
"""

import pytest

from repro.common.config import ProtocolName
from repro.verification.invariants import check_invariants
from repro.verification.differential import (
    CONTENDED,
    ReplayConfig,
    generate_trace,
    run_differential,
)
from repro.workloads.base import MemoryOperation
from repro.workloads.microbenchmark import LockingMicrobenchmark
from repro.system.multiprocessor import MultiprocessorSystem
from repro.workloads.trace import TraceWorkload

# The shared helpers arrive via the ``build_trace_system`` and
# ``small_config`` fixtures defined in the top-level tests/conftest.py.


class TestRacingWriters:
    def test_simultaneous_writers_serialise(self, protocol, build_trace_system):
        # Every processor stores to the same block at the same time.
        ops = {
            node: [MemoryOperation(address=192, is_write=True)] for node in range(4)
        }
        system = build_trace_system(protocol, ops, bandwidth=800.0)
        system.run()
        owners = [
            node.node_id
            for node in system.nodes
            if node.cache_controller.state_of(192).is_owner
        ]
        assert len(owners) == 1
        check_invariants(system).raise_on_violation()

    def test_simultaneous_readers_after_writer(self, protocol, build_trace_system):
        ops = {0: [MemoryOperation(address=64, is_write=True)]}
        ops.update(
            {
                node: [MemoryOperation(address=64, is_write=False, think_cycles=1000)]
                for node in range(1, 4)
            }
        )
        system = build_trace_system(protocol, ops, bandwidth=800.0)
        system.run()
        tokens = {
            node.cache_controller.blocks.lookup(64).data_token
            for node in system.nodes
            if node.cache_controller.state_of(64).has_valid_data
        }
        assert len(tokens) == 1
        check_invariants(system).raise_on_violation()

    def test_interleaved_read_write_chains(self, protocol, build_trace_system):
        ops = {
            0: [MemoryOperation(address=128, is_write=True),
                MemoryOperation(address=128, is_write=False, think_cycles=900)],
            1: [MemoryOperation(address=128, is_write=True, think_cycles=300)],
            2: [MemoryOperation(address=128, is_write=True, think_cycles=600)],
            3: [MemoryOperation(address=128, is_write=False, think_cycles=1200)],
        }
        system = build_trace_system(protocol, ops, bandwidth=400.0)
        system.run()
        check_invariants(system).raise_on_violation()


class TestFalseSharingStress:
    @pytest.mark.parametrize("bandwidth", [400.0, 3200.0])
    def test_contended_microbenchmark_stays_coherent(self, protocol, bandwidth, small_config):
        config = small_config(protocol, num_processors=6, bandwidth=bandwidth)
        workload = LockingMicrobenchmark(num_locks=4, acquires_per_processor=25)
        system = MultiprocessorSystem(config, workload)
        system.run()
        check_invariants(system).raise_on_violation()

    def test_random_tester_with_two_hot_blocks(self, protocol):
        trace = generate_trace(
            23, num_processors=5, num_blocks=2, operations=250, mode=CONTENDED
        )
        run_differential(
            trace,
            protocols=[protocol],
            replay=ReplayConfig(bandwidth_mb_per_second=300.0),
        ).raise_on_failure()


class TestBashWindowOfVulnerability:
    def test_unicast_racing_with_broadcasts(self, build_trace_system):
        # P1 unicasts a GETM for a block owned by P0 while P2 and P3 broadcast
        # their own GETMs for the same block: the retry of P1's request lands
        # in the window after the broadcasts changed the owner, forcing the
        # memory controller to retry again with an updated recipient set.
        ops = {
            0: [MemoryOperation(address=192, is_write=True)],
            1: [MemoryOperation(address=192, is_write=True, think_cycles=1200)],
            2: [MemoryOperation(address=192, is_write=True, think_cycles=1250)],
            3: [MemoryOperation(address=192, is_write=True, think_cycles=1300)],
        }
        system = build_trace_system(ProtocolName.BASH, ops, bandwidth=400.0)
        # P1 unicasts; P2 and P3 broadcast.
        system.nodes[1].cache_controller.adaptive.should_broadcast = lambda: False
        system.run()
        owners = [
            node.node_id
            for node in system.nodes
            if node.cache_controller.state_of(192).is_owner
        ]
        assert len(owners) == 1
        check_invariants(system).raise_on_violation()

    def test_writeback_racing_with_unicast_request(self, build_trace_system):
        ops = {
            0: [MemoryOperation(address=192, is_write=True)],
            1: [MemoryOperation(address=192, is_write=True, think_cycles=1500)],
            2: [],
            3: [],
        }
        system = build_trace_system(ProtocolName.BASH, ops, bandwidth=400.0)
        system.nodes[1].cache_controller.adaptive.should_broadcast = lambda: False
        system.run(max_cycles=900)
        cache0 = system.nodes[0].cache_controller
        if cache0.state_of(192).is_owner and not cache0.has_outstanding(192):
            cache0.issue_writeback(192)
        system.simulator.run(until=3_000_000)
        check_invariants(system).raise_on_violation()
        assert system.nodes[1].cache_controller.state_of(192).is_owner
