"""Node message dispatch and the simulation Component base class."""

import pytest

from repro import _core
from repro.common.config import ProtocolName
from repro.common.stats import StatsRegistry
from repro.errors import ProtocolError, ReproError, SimulationError
from repro.interconnect.message import DestinationUnit, Message, MessageType
from repro.sim.component import Component
from repro.sim.scheduler import Scheduler

from ..conftest import build_trace_system


class TestComponent:
    def test_schedule_and_stats_helpers(self):
        scheduler = Scheduler()
        stats = StatsRegistry()
        component = Component("widget", scheduler, stats)
        fired = []
        labels = []
        scheduler.on_fire = lambda time, label: labels.append(label)
        component.schedule_fast(10, lambda: fired.append(component.now), "tick")
        scheduler.run()
        assert fired == [10]
        assert labels == ["widget:tick"]
        component.count("things", 3)
        component.record("value", 2.5)
        assert stats.counters()["widget.things"] == 3
        assert stats.means()["widget.value"] == 2.5

    def test_stat_name_prefixes_component(self):
        component = Component("cache7", Scheduler(), StatsRegistry())
        assert component.stat_name("misses") == "cache7.misses"


class TestNodeDispatch:
    def _system(self, protocol=ProtocolName.SNOOPING):
        return build_trace_system(protocol, {n: [] for n in range(4)})

    def test_unordered_messages_route_by_destination_unit(self):
        system = self._system()
        node = system.nodes[1]
        seen = {"cache": 0, "memory": 0}
        node.cache_controller.unordered_handlers[MessageType.DATA] = (
            lambda msg: seen.__setitem__("cache", seen["cache"] + 1)
        )
        node.memory_controller.unordered_handlers[MessageType.WB_DATA] = (
            lambda msg: seen.__setitem__("memory", seen["memory"] + 1)
        )
        node.invalidate_dispatch_cache()
        cache_msg = Message(
            msg_type=MessageType.DATA, src=0, dest=1, address=0, size_bytes=72,
            requester=1, dest_unit=DestinationUnit.CACHE,
        )
        memory_msg = Message(
            msg_type=MessageType.WB_DATA, src=0, dest=1, address=64, size_bytes=72,
            requester=0, dest_unit=DestinationUnit.MEMORY,
        )
        node.deliver_unordered(cache_msg)
        node.deliver_unordered(memory_msg)
        assert seen == {"cache": 1, "memory": 1}

    def test_ordered_messages_reach_both_controllers(self):
        system = self._system()
        node = system.nodes[2]
        calls = []
        node.cache_controller.ordered_handlers[MessageType.GETS] = (
            lambda msg: calls.append("cache")
        )
        node.memory_controller.ordered_handlers[MessageType.GETS] = (
            lambda msg: calls.append("memory")
        )
        node.invalidate_dispatch_cache()
        # Address 128 is homed at node 2, so the home filter admits the
        # memory-side handler after the cache snoop.
        request = Message(
            msg_type=MessageType.GETS, src=0, address=128, size_bytes=8, requester=0
        )
        node.deliver_ordered(request)
        assert calls == ["cache", "memory"]

    def test_ordered_home_filter_skips_foreign_memory(self):
        system = self._system()
        node = system.nodes[2]
        calls = []
        node.cache_controller.ordered_handlers[MessageType.GETS] = (
            lambda msg: calls.append("cache")
        )
        node.memory_controller.ordered_handlers[MessageType.GETS] = (
            lambda msg: calls.append("memory")
        )
        node.invalidate_dispatch_cache()
        # Address 0 is homed at node 0: only the cache controller snoops it.
        request = Message(
            msg_type=MessageType.GETS, src=0, address=0, size_bytes=8, requester=0
        )
        node.deliver_ordered(request)
        assert calls == ["cache"]

    @pytest.mark.parametrize(
        "protocol", [ProtocolName.SNOOPING, ProtocolName.BASH], ids=str
    )
    def test_ordered_entry_shares_the_memory_controllers_home_memo(
        self, protocol, backend
    ):
        """An ordered entry reads one home memo: the memory controller's.

        Swapping the memory's GETS entry for a spy makes a compiled backend
        decline the whole entry (the C entry serves only the stock memory
        side), so both backends run the pure entry and behave the same."""
        system = self._system(protocol)
        node = system.nodes[2]
        memory = node.memory_controller
        served = []
        memory.ordered_handlers[MessageType.GETS] = served.append
        stock_home_of = memory.home_of
        home_tests = []

        def home_of(address):
            home_tests.append(address)
            return stock_home_of(address)

        memory.home_of = home_of
        node.invalidate_dispatch_cache()
        entry = node.ordered_entry(MessageType.GETS)
        assert type(entry).__name__ != "SnoopDeliver"
        if backend == "compiled":
            controller = type(node.cache_controller).__name__
            assert _core.handler_selections()[f"{controller}2.GETS"] == "declined"
        foreign, home = 5 * 64, 6 * 64  # homed at nodes 1 and 2

        def deliver(address):
            request = Message(
                msg_type=MessageType.GETS, src=0, address=address,
                size_bytes=8, requester=0,
            )
            node.deliver_ordered(request)
            return request

        deliver(foreign)
        assert served == []
        home_request = deliver(home)
        assert served == [home_request]
        assert memory._home_memo == {foreign: 1, home: 2}
        # A second delivery of each answers from the memo.
        deliver(foreign)
        deliver(home)
        assert home_tests == [foreign, home]
        assert len(served) == 2
        # The node keeps no memo of its own.
        for value in vars(node).values():
            if isinstance(value, dict):
                assert foreign not in value and home not in value

    @pytest.mark.parametrize(
        "protocol, msg_type",
        [
            (ProtocolName.SNOOPING, MessageType.GETS),
            (ProtocolName.BASH, MessageType.GETS),
            (ProtocolName.DIRECTORY, MessageType.FWD_GETS),
        ],
        ids=str,
    )
    def test_selections_are_recorded_per_node(self, protocol, msg_type, monkeypatch):
        """Node 0's declined entry keeps its own record beside the others'."""
        if not _core.compiled_available():
            pytest.skip("compiled extension not built")
        monkeypatch.setattr(_core, "_handler_selections", {})
        with _core.use_backend("compiled"):
            system = self._system(protocol)
            hooked = system.nodes[0]
            hooked.cache_controller.ordered_handlers[msg_type] = lambda message: None
            hooked.invalidate_dispatch_cache()
            for node in system.nodes:
                node.ordered_entry(msg_type)
        selections = _core.handler_selections()
        controller = type(hooked.cache_controller).__name__
        assert selections[f"{controller}0.{msg_type.name}"] == "declined"
        for node_id in range(1, len(system.nodes)):
            assert selections[f"{controller}{node_id}.{msg_type.name}"] == "compiled"

    def test_invalidate_dispatch_cache_reaches_network_caches(self):
        system = self._system()
        scheduler = system.simulator.scheduler
        node = system.nodes[1]

        def send_data():
            message = Message(
                msg_type=MessageType.DATA, src=0, dest=1, address=0, size_bytes=72,
                requester=1, dest_unit=DestinationUnit.CACHE,
            )
            system.interconnect.unordered.send(message)
            scheduler.run()

        # Prime the network's compiled delivery cache with the real handler.
        send_data()
        seen = []
        node.cache_controller.unordered_handlers[MessageType.DATA] = seen.append
        node.invalidate_dispatch_cache()
        send_data()
        assert len(seen) == 1, "network delivered through a stale compiled entry"

    def test_unregistered_unordered_type_fails_loudly(self):
        system = self._system()
        node = system.nodes[1]
        # A marker is an ordered-network message; arriving point-to-point at
        # the cache controller must hit the shared rejection path.
        stray = Message(
            msg_type=MessageType.MARKER, src=0, dest=1, address=0, size_bytes=8,
            requester=1, dest_unit=DestinationUnit.CACHE,
        )
        with pytest.raises(ProtocolError):
            node.deliver_unordered(stray)

    def test_memory_controller_ignores_foreign_addresses(self):
        system = self._system()
        # Address 0 is homed at node 0; node 1's memory controller must not
        # create directory state for it when it snoops the request.
        request = Message(
            msg_type=MessageType.GETS, src=2, address=0, size_bytes=8, requester=2,
            recipients=frozenset(range(4)),
        )
        system.nodes[1].memory_controller.dispatch_ordered(request)
        assert 0 not in system.nodes[1].memory_controller.directory


class TestErrorHierarchy:
    def test_all_library_errors_share_a_base(self):
        from repro import errors

        for name in (
            "ConfigurationError",
            "SimulationError",
            "ProtocolError",
            "NetworkError",
            "WorkloadError",
            "VerificationError",
        ):
            assert issubclass(getattr(errors, name), ReproError)

    def test_simulation_error_is_catchable_as_repro_error(self):
        scheduler = Scheduler()
        scheduler.schedule_after_fast(5, lambda: None)
        scheduler.run()
        with pytest.raises(ReproError):
            scheduler.schedule_after_fast(-1, lambda: None)
        with pytest.raises(SimulationError):
            scheduler.run(until=1)
