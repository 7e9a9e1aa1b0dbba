"""The table-driven dispatch engine: coverage, rejection, and fusion.

Every controller declares its ``(message type -> handler)`` tables; the node
compiles them into the delivery entries the networks index directly.  These
tests pin the handled/rejected split for **every** message type on **every**
controller, so adding a message type without deciding who handles it fails
here rather than mid-simulation.
"""

from __future__ import annotations

import pytest

from repro import _core
from repro.coherence.cache_state import CacheBlockStore
from repro.common.config import ProtocolName
from repro.errors import ProtocolError
from repro.interconnect.message import DestinationUnit, Message, MessageType
from repro.protocols.bash.cache_controller import BashCacheController
from repro.protocols.bash.memory_controller import BashMemoryController
from repro.protocols.directory.cache_controller import DirectoryCacheController
from repro.protocols.directory.memory_controller import DirectoryMemoryController
from repro.protocols.snooping.cache_controller import SnoopingCacheController
from repro.protocols.snooping.memory_controller import SnoopingMemoryController
from repro.system.multiprocessor import simulate
from repro.workloads.traffic import ZipfianTrafficSpec

from ..conftest import ALL_PROTOCOLS, build_trace_system

needs_compiled = pytest.mark.skipif(
    not _core.compiled_available(),
    reason="compiled extension not built (python -m repro._core.build)",
)

#: The complete dispatch contract: for every controller class, the message
#: types it handles per network.  Everything else is explicitly rejected
#: through the shared error path.
EXPECTED_TABLES = {
    SnoopingCacheController: {
        "ordered": {MessageType.GETS, MessageType.GETM, MessageType.PUTM},
        "unordered": {MessageType.DATA},
    },
    SnoopingMemoryController: {
        "ordered": {MessageType.GETS, MessageType.GETM, MessageType.PUTM},
        "unordered": {MessageType.WB_DATA, MessageType.WB_SQUASH},
    },
    DirectoryCacheController: {
        "ordered": {
            MessageType.MARKER,
            MessageType.FWD_GETS,
            MessageType.FWD_GETM,
            MessageType.PUT_ACK,
            MessageType.PUT_NACK,
        },
        "unordered": {MessageType.DATA},
    },
    DirectoryMemoryController: {
        "ordered": set(),
        "unordered": {MessageType.GETS, MessageType.GETM, MessageType.PUTM},
    },
    BashCacheController: {
        "ordered": {MessageType.GETS, MessageType.GETM, MessageType.PUTM},
        "unordered": {MessageType.DATA, MessageType.NACK},
    },
    BashMemoryController: {
        "ordered": {MessageType.GETS, MessageType.GETM, MessageType.PUTM},
        "unordered": {MessageType.WB_DATA, MessageType.WB_SQUASH},
    },
}

CONTROLLER_CLASSES = {
    ProtocolName.SNOOPING: (SnoopingCacheController, SnoopingMemoryController),
    ProtocolName.DIRECTORY: (DirectoryCacheController, DirectoryMemoryController),
    ProtocolName.BASH: (BashCacheController, BashMemoryController),
}


def _system(protocol):
    return build_trace_system(protocol, {n: [] for n in range(4)})


def _message(msg_type, dest_unit=DestinationUnit.CACHE):
    return Message(
        msg_type=msg_type,
        src=0,
        dest=1,
        dest_unit=dest_unit,
        address=64,  # homed at node 1 in the 4-node test system
        size_bytes=8,
        requester=0,
        recipients=frozenset(range(4)),
        transaction_id=-2,  # matches no live transaction
    )


class TestDeclaredTables:
    """The class-level declarations match the compiled contract exactly."""

    @pytest.mark.parametrize("controller_class", EXPECTED_TABLES, ids=lambda c: c.__name__)
    def test_declared_types_match_contract(self, controller_class):
        expected = EXPECTED_TABLES[controller_class]
        assert set(controller_class.ORDERED_HANDLERS) == expected["ordered"]
        assert set(controller_class.UNORDERED_HANDLERS) == expected["unordered"]

    @pytest.mark.parametrize("controller_class", EXPECTED_TABLES, ids=lambda c: c.__name__)
    def test_declared_methods_exist(self, controller_class):
        for spec in (controller_class.ORDERED_HANDLERS, controller_class.UNORDERED_HANDLERS):
            for msg_type, method_name in spec.items():
                assert callable(getattr(controller_class, method_name)), (
                    f"{controller_class.__name__} declares {msg_type} -> "
                    f"{method_name!r} but has no such method"
                )

    def test_every_message_type_is_decided_everywhere(self):
        """Exhaustiveness: each controller handles or explicitly rejects each type."""
        for controller_class, expected in EXPECTED_TABLES.items():
            for msg_type in MessageType:
                for network in ("ordered", "unordered"):
                    decided = msg_type in expected[network]
                    declared = msg_type in getattr(
                        controller_class, f"{network.upper()}_HANDLERS"
                    )
                    assert declared == decided


class TestCompiledDispatch:
    """The compiled instance tables and node entries behave as declared."""

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS, ids=str)
    def test_compiled_tables_are_bound_methods(self, protocol):
        system = _system(protocol)
        node = system.nodes[1]
        for controller in (node.cache_controller, node.memory_controller):
            for table_name in ("ordered_handlers", "unordered_handlers"):
                for msg_type, handler in getattr(controller, table_name).items():
                    assert callable(handler)
                    assert getattr(handler, "__self__", None) is controller, (
                        f"{type(controller).__name__} table entry for {msg_type} "
                        "is not bound to the controller"
                    )

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS, ids=str)
    def test_unhandled_types_reject_on_both_networks(self, protocol):
        system = _system(protocol)
        node = system.nodes[1]
        cache_cls = type(node.cache_controller)
        memory_cls = type(node.memory_controller)
        for msg_type in MessageType:
            # Unordered: the destination unit selects exactly one controller.
            for unit, cls in (
                (DestinationUnit.CACHE, cache_cls),
                (DestinationUnit.MEMORY, memory_cls),
            ):
                if msg_type not in EXPECTED_TABLES[cls]["unordered"]:
                    with pytest.raises(ProtocolError):
                        node.deliver_unordered(_message(msg_type, unit))
            # Ordered: the cache controller sees everything first; a type it
            # rejects fails loudly no matter what the memory side thinks.
            if msg_type not in EXPECTED_TABLES[cache_cls]["ordered"]:
                with pytest.raises(ProtocolError):
                    node.deliver_ordered(_message(msg_type))

    def test_directory_ordered_entries_skip_the_memory_side(self):
        """The Directory home consumes nothing ordered: entries collapse to
        the bare cache handler (no home-filter wrapper, no memory frame)."""
        system = _system(ProtocolName.DIRECTORY)
        node = system.nodes[1]
        entry = node.ordered_entry(MessageType.MARKER)
        # Under a compiled backend the entry is the C delivery object for
        # the same handler; under pure it is the bare bound method.
        assert (
            entry is node.cache_controller.ordered_handlers[MessageType.MARKER]
            or type(entry).__name__ == "DirDeliver"
        )

    def test_snooping_ordered_entries_wrap_the_home_filter(self):
        system = _system(ProtocolName.SNOOPING)
        node = system.nodes[1]
        entry = node.ordered_entry(MessageType.GETS)
        assert entry is not node.cache_controller.ordered_handlers[MessageType.GETS]

    def test_rejection_names_the_controller_and_network(self):
        system = _system(ProtocolName.DIRECTORY)
        node = system.nodes[1]
        with pytest.raises(ProtocolError, match="DirectoryCacheController.*ordered"):
            node.deliver_ordered(_message(MessageType.GETS))

    def test_construction_fails_on_a_dangling_handler_declaration(self):
        from repro.protocols.dispatch import compile_handlers

        class Dangling:
            pass

        with pytest.raises(ProtocolError, match="no such method"):
            compile_handlers(Dangling(), {MessageType.DATA: "_missing_method"})


class TestCompiledDataEntries:
    """The unordered DATA fast path: selection, decline, and release folding."""

    @needs_compiled
    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS, ids=str)
    def test_data_entry_is_the_c_delivery_object(self, protocol):
        with _core.use_backend("compiled"):
            system = _system(protocol)
            node = system.nodes[1]
            entry = node.unordered_entry(DestinationUnit.CACHE, MessageType.DATA)
            assert type(entry).__name__ == "DataDeliver"
            # DATA is point-to-point (exactly one delivery), so the arena
            # release is folded into the C call; the network must see the
            # advertisement and skip its deliver_and_release wrapper.
            has_arena = getattr(system.simulator.scheduler, "arena", None) is not None
            assert entry.releases_message is has_arena

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS, ids=str)
    def test_pure_backend_keeps_the_bound_method(self, protocol):
        with _core.use_backend("pure"):
            system = _system(protocol)
            node = system.nodes[1]
            entry = node.unordered_entry(DestinationUnit.CACHE, MessageType.DATA)
            controller = node.cache_controller
            assert entry is controller.unordered_handlers[MessageType.DATA]

    @needs_compiled
    @pytest.mark.parametrize(
        "controller_class, method_name",
        [
            (SnoopingCacheController, "_finish_gets"),
            (DirectoryCacheController, "_complete"),
            (BashCacheController, "_handle_data"),
        ],
        ids=lambda value: getattr(value, "__name__", value),
    )
    def test_patched_data_chain_declines_to_pure(
        self, monkeypatch, controller_class, method_name
    ):
        """A class-level monkeypatch of any method keeps the pure
        handler authoritative for the DATA entry (bug-injection tests rely
        on exactly this)."""
        protocol = {
            SnoopingCacheController: ProtocolName.SNOOPING,
            DirectoryCacheController: ProtocolName.DIRECTORY,
            BashCacheController: ProtocolName.BASH,
        }[controller_class]
        original = getattr(controller_class, method_name)

        def patched(self, *args, **kwargs):
            return original(self, *args, **kwargs)

        monkeypatch.setattr(controller_class, method_name, patched)
        with _core.use_backend("compiled"):
            system = _system(protocol)
            node = system.nodes[1]
            entry = node.unordered_entry(DestinationUnit.CACHE, MessageType.DATA)
            assert entry is node.cache_controller.unordered_handlers[MessageType.DATA]

    @needs_compiled
    def test_swapped_table_entry_declines_to_pure(self):
        """An instance-level table swap (no class patch) also declines."""
        with _core.use_backend("compiled"):
            system = _system(ProtocolName.SNOOPING)
            node = system.nodes[1]
            controller = node.cache_controller
            seen = []

            def custom_handler(message):
                seen.append(message)

            controller.unordered_handlers[MessageType.DATA] = custom_handler
            node.invalidate_dispatch_cache()
            entry = node.unordered_entry(DestinationUnit.CACHE, MessageType.DATA)
            assert entry is custom_handler


@needs_compiled
@pytest.mark.parametrize(
    "patched_class, method_name",
    [
        (SnoopingCacheController, "_handle_other_request"),
        (CacheBlockStore, "drop"),
    ],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_class_patch_runs_the_pure_specification(
    monkeypatch, patched_class, method_name
):
    """A class-level patch reaches every call on both backends.

    The compiled entries inline both methods, so they must decline as soon
    as either is patched on its class; a counting wrapper then sees exactly
    the calls the pure run makes, and the two runs are identical.
    """
    from repro.experiments.runner import QUICK, microbenchmark_config

    original = getattr(patched_class, method_name)
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(None)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(patched_class, method_name, counted)
    config = microbenchmark_config(
        QUICK, ProtocolName.SNOOPING, 1600.0, num_processors=16, seed=3
    )
    workload = ZipfianTrafficSpec(operations_per_processor=300)
    results, counts = {}, {}
    for backend in ("pure", "compiled"):
        calls.clear()
        with _core.use_backend(backend):
            results[backend] = simulate(config, workload(3))
        counts[backend] = len(calls)
    assert counts["pure"] > 0
    assert counts["compiled"] == counts["pure"]
    assert results["compiled"] == results["pure"]
