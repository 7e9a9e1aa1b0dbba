"""Selection and decline discipline of the compiled request-issue chain.

The compiled ``SequencerStep`` (``repro._core``) fuses the sequencer's
per-reference path — block probe, hit test, eviction, miss bookkeeping,
request issue and think-time rescheduling — into one C delivery object.  The
offer follows the same contract as the compiled protocol handlers: unpatched
stock objects get the C step, *any* unusual shape (a subclassed sequencer, a
monkeypatched send hook, a swapped workload entry point) keeps the pure path
for that node, and both paths are bit-identical by construction (pinned by
the backend-parametrized golden traces and the full-stats equivalence here).
"""

from __future__ import annotations

import dataclasses
import sys

import pytest

from repro import _core
from repro.coherence.block import CacheBlock
from repro.coherence.state import MOSIState
from repro.common.config import ProtocolName
from repro.interconnect import network as network_module
from repro.interconnect.message import MessageType
from repro.interconnect.ordered_network import TotallyOrderedNetwork
from repro.interconnect.unordered_network import UnorderedNetwork
from repro.protocols.dispatch import compile_sequencer_step
from repro.system.multiprocessor import MultiprocessorSystem, simulate
from repro.system.sequencer import Sequencer
from repro.workloads.microbenchmark import LockingMicrobenchmark
from repro.workloads.synthetic import SyntheticCommercialWorkload

from ..conftest import ALL_PROTOCOLS, run_microbenchmark, small_config

needs_compiled = pytest.mark.skipif(
    not _core.compiled_available(),
    reason="compiled extension not built (python -m repro._core.build)",
)


def _build_system(protocol, **overrides):
    config = small_config(protocol, **overrides)
    workload = LockingMicrobenchmark(
        num_locks=8, acquires_per_processor=10, think_cycles=0
    )
    return MultiprocessorSystem(config, workload)


def _selection(sequencer):
    return _core.handler_selections().get(f"Sequencer{sequencer.node_id}.step")


@needs_compiled
class TestIssueChainSelection:
    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS, ids=str)
    def test_stock_system_compiles_the_step(self, protocol):
        ext = _core.load_extension()
        with _core.use_backend("compiled"):
            system = _build_system(protocol)
            sequencer = system.nodes[0].sequencer
            step = compile_sequencer_step(sequencer)
            assert isinstance(step, ext.SequencerStep)
            assert _selection(sequencer) == "compiled"

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS, ids=str)
    def test_pure_backend_keeps_the_bound_method(self, protocol):
        with _core.use_backend("pure"):
            system = _build_system(protocol)
            sequencer = system.nodes[0].sequencer
            assert compile_sequencer_step(sequencer) is None
            sequencer.start()
            assert sequencer._perform_entry == sequencer._perform

    def test_backend_reports_issue_chain_component(self):
        with _core.use_backend("compiled"):
            info = _core.backend_info()
        assert info["components"]["issue_chain"] == "compiled"
        with _core.use_backend("pure"):
            info = _core.backend_info()
        assert info["components"]["issue_chain"] == "pure"


@needs_compiled
class TestDeclineDiscipline:
    """Any unusual node shape keeps the pure path — for that node only."""

    def test_subclassed_sequencer_declines(self):
        class TracingSequencer(Sequencer):
            def _perform(self, operation):
                super()._perform(operation)

        with _core.use_backend("compiled"):
            system = _build_system(ALL_PROTOCOLS[0])
            sequencer = system.nodes[0].sequencer
            sequencer.__class__ = TracingSequencer
            assert compile_sequencer_step(sequencer) is None
            assert _selection(sequencer) == "declined"
            sequencer.start()
            assert sequencer._perform_entry == sequencer._perform

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS, ids=str)
    def test_monkeypatched_send_request_declines(self, protocol):
        with _core.use_backend("compiled"):
            system = _build_system(protocol)
            cache = system.nodes[0].cache_controller
            original = cache._send_request
            cache._send_request = lambda txn: original(txn)
            sequencer = system.nodes[0].sequencer
            assert compile_sequencer_step(sequencer) is None
            assert _selection(sequencer) == "declined"

    def test_swapped_workload_next_operation_declines(self):
        with _core.use_backend("compiled"):
            system = _build_system(ALL_PROTOCOLS[0])
            sequencer = system.nodes[0].sequencer
            workload = sequencer.workload
            original = workload.next_operation
            workload.next_operation = lambda node, now: original(node, now)
            assert compile_sequencer_step(sequencer) is None
            assert _selection(sequencer) == "declined"

    def test_decline_is_per_node(self):
        """Patching node 0 must not cost the other nodes their C step."""
        ext = _core.load_extension()
        with _core.use_backend("compiled"):
            system = _build_system(ALL_PROTOCOLS[0])
            system.nodes[0].cache_controller._send_request = lambda txn: None
            assert compile_sequencer_step(system.nodes[0].sequencer) is None
            step = compile_sequencer_step(system.nodes[1].sequencer)
            assert isinstance(step, ext.SequencerStep)

    def test_patched_node_still_runs_correctly(self):
        """A declined node's run is the stock pure run, bit for bit."""
        with _core.use_backend("compiled"):
            stock = _build_system(ALL_PROTOCOLS[0])
            result = stock.run()
            patched = _build_system(ALL_PROTOCOLS[0])
            sequencer = patched.nodes[0].sequencer
            # An identity-preserving patch: same behaviour, unusual shape.
            original = patched.nodes[0].cache_controller._send_request
            patched.nodes[0].cache_controller._send_request = (
                lambda txn: original(txn)
            )
            patched_result = patched.run()
            assert _selection(sequencer) == "declined"
            assert patched_result.stats == result.stats


class TestEvictionDecisions:
    """Regression pin for the prebound ``_maybe_evict`` rewrite."""

    def _sequencer(self, capacity=4):
        system = _build_system(
            ALL_PROTOCOLS[0], cache_capacity_blocks=capacity
        )
        return system.nodes[0].sequencer

    def _install(self, sequencer, address, state, last_access_time):
        block = CacheBlock(address, state=state, last_access_time=last_access_time)
        sequencer.cache.blocks._blocks[address] = block
        return block

    def test_victim_is_lru_by_time_then_address(self):
        sequencer = self._sequencer(capacity=3)
        self._install(sequencer, 0x100, MOSIState.SHARED, 30)
        self._install(sequencer, 0x200, MOSIState.SHARED, 10)
        self._install(sequencer, 0x300, MOSIState.SHARED, 10)
        sequencer._maybe_evict()
        # Ties on last_access_time break toward the lower address.
        assert 0x200 not in sequencer.cache.blocks
        assert 0x100 in sequencer.cache.blocks
        assert 0x300 in sequencer.cache.blocks
        name = sequencer.stat_name("evictions.silent")
        assert sequencer.stats.counter(name).count == 1

    def test_owned_victim_issues_a_writeback(self):
        sequencer = self._sequencer(capacity=2)
        victim = self._install(sequencer, 0x100, MOSIState.MODIFIED, 5)
        self._install(sequencer, 0x200, MOSIState.SHARED, 50)
        sequencer._maybe_evict()
        # The owned block is written back, not silently dropped: it stays in
        # the store (in O->writeback flight) and the writeback MSHR is live.
        assert victim.address in sequencer.cache.writebacks
        name = sequencer.stat_name("evictions.writeback")
        assert sequencer.stats.counter(name).count == 1

    def test_victim_with_outstanding_transaction_is_skipped(self):
        sequencer = self._sequencer(capacity=2)
        self._install(sequencer, 0x100, MOSIState.SHARED, 5)
        self._install(sequencer, 0x200, MOSIState.SHARED, 50)
        sequencer.cache.transactions[0x100] = object()
        before = dict(sequencer.cache.blocks._blocks)
        sequencer._maybe_evict()
        assert dict(sequencer.cache.blocks._blocks) == before

    def test_eviction_decisions_identical_across_backends(self):
        """Counter-level pin: both backends evict the same blocks."""
        if not _core.compiled_available():
            pytest.skip("compiled extension not built")
        per_backend = {}
        for name in ("pure", "compiled"):
            with _core.use_backend(name):
                config = small_config(
                    ALL_PROTOCOLS[0], cache_capacity_blocks=4
                )
                workload = LockingMicrobenchmark(
                    num_locks=64, acquires_per_processor=40, think_cycles=0
                )
                result = simulate(config, workload)
                per_backend[name] = {
                    key: value
                    for key, value in result.stats.items()
                    if "evictions" in key
                }
        assert per_backend["pure"] == per_backend["compiled"]
        assert any(per_backend["pure"].values())


@needs_compiled
class TestIssueChainEquivalence:
    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS, ids=str)
    def test_full_stats_identical_across_backends(self, protocol):
        """The whole observable run — every counter — matches bit for bit."""
        results = {}
        for name in ("pure", "compiled"):
            with _core.use_backend(name):
                results[name] = run_microbenchmark(protocol, acquires=25)
        assert results["pure"].stats == results["compiled"].stats
        assert results["pure"].cycles == results["compiled"].cycles


SEND_MODES = {
    ProtocolName.SNOOPING: 1,
    ProtocolName.DIRECTORY: 2,
    ProtocolName.BASH: 3,
}
REQUEST_KINDS = (MessageType.GETS, MessageType.GETM, MessageType.PUTM)


def _send_system(protocol, **overrides):
    """A small system whose runs issue requests and writebacks."""
    config = small_config(
        protocol, bandwidth=400.0, cache_capacity_blocks=8, **overrides
    )
    workload = SyntheticCommercialWorkload("oltp", operations_per_processor=300)
    return MultiprocessorSystem(config, workload)


def _observed(system):
    """Run ``system``: result, memory image, statistics and fired events."""
    fired = []
    system.simulator.scheduler.on_fire = lambda time, label: fired.append(
        (time, label)
    )
    result = system.run()
    return (
        dataclasses.asdict(result),
        system.final_memory_image(),
        system.stats.snapshot(),
        fired,
    )


def _assert_send_compiled(system, protocol):
    selections = _core.handler_selections()
    for node in system.nodes:
        assert node.sequencer._perform_entry.send_mode == SEND_MODES[protocol]
        assert selections[f"Sequencer{node.node_id}.send"] == "compiled"


def _record_requests(sends, message):
    if message.msg_type in REQUEST_KINDS:
        sends.append((message.src, message.msg_type, message.address))


@needs_compiled
class TestStepSendsThroughTheNetwork:
    """The step hands its message to the controller's own network send."""

    @pytest.mark.parametrize(
        "protocol", [ProtocolName.SNOOPING, ProtocolName.BASH], ids=str
    )
    def test_expensive_broadcasts_keep_the_send_compiled(self, protocol):
        """At 4x broadcast cost the step still runs its send body."""
        observed = {}
        for backend in ("pure", "compiled"):
            with _core.use_backend(backend):
                system = _send_system(protocol, broadcast_cost_factor=4.0)
                observed[backend] = _observed(system)
        _assert_send_compiled(system, protocol)
        assert observed["compiled"] == observed["pure"]
        writebacks = f"{system.nodes[0].cache_controller.name}.writebacks"
        assert observed["pure"][2][writebacks]

    @pytest.mark.parametrize(
        "protocol", [ProtocolName.SNOOPING, ProtocolName.BASH], ids=str
    )
    def test_expensive_broadcasts_stay_in_c(self, protocol):
        """At 4x cost ``OrderedSend`` occupies the link itself.

        The pure send runs once per request the step issues; the compiled
        run enters it only on the network's first send of each request type
        (its label memo miss), exactly as at unit cost.  BASH retries are
        not the step's sends (``Interconnect.send_ordered`` makes them in
        Python on both backends), so they are not counted.
        """
        code = TotallyOrderedNetwork.send.__code__
        observed, requests = {}, {}
        for backend in ("pure", "compiled"):
            sends = []

            def profile(frame, event, arg, sends=sends):
                if event == "call" and frame.f_code is code:
                    message = frame.f_locals["message"]
                    if not message.is_retry:
                        _record_requests(sends, message)

            with _core.use_backend(backend):
                system = _send_system(protocol, broadcast_cost_factor=4.0)
                sys.setprofile(profile)
                try:
                    observed[backend] = _observed(system)
                finally:
                    sys.setprofile(None)
            requests[backend] = sends
        assert observed["compiled"] == observed["pure"]
        assert len(requests["compiled"]) <= len(REQUEST_KINDS)
        assert len(requests["pure"]) > 100

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS, ids=str)
    def test_step_calls_the_controllers_send(self, protocol):
        """A spy set as the cache's send sees the same requests on both."""
        name = (
            "_unordered_send"
            if protocol is ProtocolName.DIRECTORY
            else "_ordered_send"
        )
        observed = {}
        for backend in ("pure", "compiled"):
            sends = []
            with _core.use_backend(backend):
                system = _send_system(protocol)
                for node in system.nodes:
                    cache = node.cache_controller
                    original = getattr(cache, name)

                    def spy(message, *rest, original=original):
                        _record_requests(sends, message)
                        return original(message, *rest)

                    setattr(cache, name, spy)
                observed[backend] = (_observed(system), sends)
        _assert_send_compiled(system, protocol)
        assert observed["compiled"] == observed["pure"]
        kinds = {kind for _, kind, _ in observed["pure"][1]}
        assert kinds == set(REQUEST_KINDS)

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS, ids=str)
    def test_subclassed_network_keeps_the_send_compiled(
        self, protocol, monkeypatch
    ):
        """The step calls a subclassed network's own ``send``."""
        base = (
            UnorderedNetwork
            if protocol is ProtocolName.DIRECTORY
            else TotallyOrderedNetwork
        )
        sends = []

        class CountingNetwork(base):
            def send(self, message, *rest):
                _record_requests(sends, message)
                super().send(message, *rest)

        monkeypatch.setattr(network_module, base.__name__, CountingNetwork)
        observed = {}
        for backend in ("pure", "compiled"):
            sends.clear()
            with _core.use_backend(backend):
                system = _send_system(protocol)
                observed[backend] = (_observed(system), list(sends))
        _assert_send_compiled(system, protocol)
        assert _core.handler_selections()["CountingNetwork.send"] == "declined"
        assert observed["compiled"] == observed["pure"]
        assert {kind for _, kind, _ in observed["pure"][1]} == set(REQUEST_KINDS)
