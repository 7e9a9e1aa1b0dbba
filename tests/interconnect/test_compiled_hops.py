"""The compiled per-hop objects against the pure closures and methods.

On a compiled scheduler a message's path through the interconnect runs in C:
``SwitchEnter`` (the ordering point and fan-out), ``Relay`` and
``UnorderedArrive`` (the unordered traversal and delivery lookup) and
``LinkPush`` (endpoint-link occupancy plus the delivery push).  Each test
drives the C object and its pure twin (:func:`repro.interconnect.link.link_push`
on a pure scheduler, the networks' Python methods) with identical inputs and
requires identical link scalars, pushed entries and event streams, including
on the shapes that must fall back to the pure code.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import _core
from repro.common.config import ProtocolName, SystemConfig
from repro.common.stats import StatsRegistry
from repro.interconnect.link import EndpointLink, link_push
from repro.interconnect.message import DestinationUnit, Message, MessageType
from repro.interconnect.network import Interconnect
from repro.interconnect.ordered_network import TotallyOrderedNetwork
from repro.interconnect.unordered_network import UnorderedNetwork
from repro.protocols.bash.cache_controller import compile_sampler
from repro.system.multiprocessor import MultiprocessorSystem
from repro.workloads.microbenchmark import LockingMicrobenchmark

from ..conftest import ALL_PROTOCOLS, StubDispatcher, small_config

pytestmark = pytest.mark.skipif(
    not _core.compiled_available(),
    reason="compiled extension not built (python -m repro._core.build)",
)

LINK_FIELDS = (
    "_busy_until",
    "_busy_total",
    "_period_start",
    "_period_prefix",
)


def new_scheduler(backend: str):
    with _core.use_backend(backend):
        return _core.scheduler_class()()


def message(size_bytes: int = 8, cls=Message, **fields) -> Message:
    fields.setdefault("msg_type", MessageType.GETS)
    fields.setdefault("src", 0)
    fields.setdefault("address", 64)
    fields.setdefault("requester", 0)
    fields.setdefault("msg_id", 0)
    return cls(size_bytes=size_bytes, **fields)


def link_state(link):
    return tuple(getattr(link, name) for name in LINK_FIELDS)


def queue_state(scheduler):
    """Every pushed entry (its time from the bucket key, its message by id)."""
    return (
        {
            time: [
                (time, callback, label, arg.msg_id)
                for callback, label, arg in bucket
            ]
            for time, bucket in scheduler._buckets.items()
        },
        sorted(scheduler._times),
    )


def deliver(message) -> None:  # pragma: no cover - never fired here
    raise AssertionError("delivery entries are inspected, not fired")


#: (now, size_bytes) pushes: back-to-back sizes queue in one busy period, a
#: new size misses the occupancy memo, and a later `now` opens a new period.
PUSHES = ((0, 8), (0, 8), (3, 72), (500, 8), (500, 72), (9_000, 136))


def replay(
    backend: str,
    link_cls=EndpointLink,
    message_cls=Message,
    busy_total=0,
    factor=1.0,
):
    scheduler = new_scheduler(backend)
    link = link_cls("node0.in", 8.0)
    link._busy_total = busy_total
    push = link_push(scheduler, link, deliver, "deliver:n0", factor)
    for msg_id, (now, size) in enumerate(PUSHES):
        scheduler.now = now
        push(message(size, cls=message_cls, msg_id=msg_id))
    return push, link_state(link), queue_state(scheduler), dict(link._occupancy_cache)


class TestLinkPush:
    def test_matches_the_pure_closure(self):
        pure_push, *pure = replay(_core.PURE)
        c_push, *compiled = replay(_core.COMPILED)
        assert type(c_push).__name__ == "LinkPush"
        assert type(pure_push).__name__ == "function"
        assert compiled == pure
        # One entry per push, each one queued behind the last in its period.
        assert len(pure[1][0]) == len(PUSHES)
        assert sum(map(len, pure[1][0].values())) == len(PUSHES)

    @pytest.mark.parametrize("backend_name", [_core.PURE, _core.COMPILED])
    def test_one_unit_cost_transfer_leaves_one_memo_entry(self, backend_name):
        """occupancy_cycles is the memo's one writer, under the bare size."""
        link = EndpointLink("node0.in", 8.0)
        push = link_push(new_scheduler(backend_name), link, deliver, "deliver:n0")
        push(message(8))
        assert link._occupancy_cache == {8: 1}

    @pytest.mark.parametrize("factor", [4.0, 2.5])
    def test_cost_factor_matches_the_pure_closure(self, factor):
        """Occupancy at ``factor``, memoised under ``(size, factor)``."""
        _, *pure = replay(_core.PURE, factor=factor)
        c_push, *compiled = replay(_core.COMPILED, factor=factor)
        assert type(c_push).__name__ == "LinkPush"
        assert compiled == pure
        _, *unit = replay(_core.PURE)
        assert pure[0][1] > unit[0][1]  # busier than at unit cost
        assert all(type(key) is tuple and key[1] == factor for key in pure[2])
        # The same link occupancy EndpointLink.transmit gives.
        link = EndpointLink("node0.in", 8.0)
        for now, size in PUSHES:
            link.transmit(now, size, factor)
        assert link_state(link) == pure[0]

    def test_unit_factor_is_the_unit_cost_push(self):
        _, *unit = replay(_core.COMPILED)
        _, *one = replay(_core.COMPILED, factor=1)
        assert one == unit
        assert {size for _, size in PUSHES} <= set(unit[2])  # keyed by size

    def test_scalar_past_the_c_range_takes_the_pure_closure(self):
        _, *pure = replay(_core.PURE, busy_total=2**70)
        _, *compiled = replay(_core.COMPILED, busy_total=2**70)
        assert compiled == pure
        # 8 bytes per cycle: each push adds ceil(size / 8) busy cycles.
        assert pure[0][1] == 2**70 + sum(-(-size // 8) for _, size in PUSHES)

    def test_message_subclass_takes_the_pure_closure(self):
        reads = []

        class TracedMessage(Message):
            __slots__ = ()

            @property
            def size_bytes(self):
                value = Message.size_bytes.__get__(self)
                reads.append(value)
                return value

            @size_bytes.setter
            def size_bytes(self, value):
                Message.size_bytes.__set__(self, value)

        for factor in (1.0, 4.0):
            reads.clear()
            _, *pure = replay(_core.PURE, factor=factor)
            c_push, *compiled = replay(
                _core.COMPILED, message_cls=TracedMessage, factor=factor
            )
            assert type(c_push).__name__ == "LinkPush"
            assert compiled == pure
            # every push read through the property
            assert len(reads) == len(PUSHES)

    def test_link_with_a_shadowed_slot_declines_to_the_pure_closure(self):
        class ShadowedLink(EndpointLink):
            __slots__ = ()

            @property
            def _busy_until(self):
                return EndpointLink._busy_until.__get__(self)

            @_busy_until.setter
            def _busy_until(self, value):
                EndpointLink._busy_until.__set__(self, value)

        _, *pure = replay(_core.PURE)
        c_push, *compiled = replay(_core.COMPILED, link_cls=ShadowedLink)
        assert type(c_push).__name__ == "function"
        assert compiled == pure
        assert _core.handler_selections()["ShadowedLink.link_push"] == "declined"

    def test_class_patch_of_message_reads_through_the_patch(self, monkeypatch):
        """A class-level patch makes every read generic, even by exact type."""
        reads = []
        slot = Message.size_bytes

        def get_size(self):
            reads.append(1)
            return slot.__get__(self)

        _, *pure = replay(_core.PURE)
        monkeypatch.setattr(
            Message, "size_bytes", property(get_size, slot.__set__)
        )
        c_push, *compiled = replay(_core.COMPILED)
        assert type(c_push).__name__ == "LinkPush"
        assert compiled == pure
        assert len(reads) == len(PUSHES)


def build_interconnect(backend: str, num_nodes: int = 4):
    """A bare interconnect whose handlers record every delivery."""
    config = SystemConfig(num_processors=num_nodes, bandwidth_mb_per_second=800.0)
    scheduler = new_scheduler(backend)
    interconnect = Interconnect(config, scheduler, StatsRegistry())
    log = []
    for node in range(num_nodes):
        interconnect.attach_node(
            node,
            StubDispatcher(
                lambda msg, n=node: log.append(
                    ("ordered", n, msg.msg_id, msg.order_seq)
                ),
                lambda msg, n=node: log.append(("unordered", n, msg.msg_id)),
            ),
        )
    fired = []
    scheduler.on_fire = lambda time, label: fired.append((time, label))
    return scheduler, interconnect, log, fired


def drive_networks(backend: str):
    scheduler, interconnect, log, fired = build_interconnect(backend)
    sends = (
        ({0, 2}, MessageType.GETS),  # a fresh recipient set: memo miss
        ({0, 2}, MessageType.GETS),  # memo hit
        ({0, 1, 2, 3}, MessageType.GETM),  # a broadcast
        ({1, 3}, MessageType.GETM),
    )
    for msg_id, (recipients, msg_type) in enumerate(sends):
        interconnect.ordered.send(
            message(msg_type=msg_type, src=msg_id % 4, msg_id=msg_id),
            frozenset(recipients),
        )
    scheduler.run(until=40)
    for msg_id in range(10, 14):
        interconnect.unordered.send(
            message(
                72,
                msg_type=MessageType.DATA,
                src=msg_id % 4,
                dest=(msg_id + 1) % 4,
                dest_unit=DestinationUnit.CACHE,
                msg_id=msg_id,
            )
        )
    scheduler.run()
    links = {
        node: (link_state(pair.incoming), link_state(pair.outgoing))
        for node, pair in interconnect.links.items()
    }
    return interconnect, log, fired, links, interconnect.ordered.next_order_sequence


class TestSwitchEnterAndUnorderedArrive:
    def test_compiled_networks_select_the_c_objects(self):
        interconnect, *_ = drive_networks(_core.COMPILED)
        assert type(interconnect.ordered._enter_switch_callback).__name__ == (
            "SwitchEnter"
        )
        assert type(interconnect.unordered._arrive_callback).__name__ == (
            "UnorderedArrive"
        )
        selections = _core.handler_selections()
        assert selections["TotallyOrderedNetwork.enter_switch"] == "compiled"
        assert selections["UnorderedNetwork.arrive"] == "compiled"

    def test_same_order_and_event_stream_as_pure(self):
        _, *pure = drive_networks(_core.PURE)
        _, *compiled = drive_networks(_core.COMPILED)
        assert compiled == pure
        log, fired, _, order = pure
        assert order == 4
        assert [entry[3] for entry in log if entry[0] == "ordered"][:2] == [0, 0]
        assert any(label.startswith("unordered-deliver") for _, label in fired)

    def test_subclassed_networks_keep_the_pure_methods(self):
        class OrderedSpy(TotallyOrderedNetwork):
            pass

        class UnorderedSpy(UnorderedNetwork):
            pass

        scheduler = new_scheduler(_core.COMPILED)
        config = SystemConfig(num_processors=2)
        interconnect = Interconnect(config, scheduler, StatsRegistry())
        ordered = OrderedSpy(scheduler, interconnect.links, 3, StatsRegistry())
        unordered = UnorderedSpy(scheduler, interconnect.links, 3, StatsRegistry())
        assert ordered._enter_switch_callback == ordered._enter_switch
        assert unordered._arrive_callback == unordered._arrive
        selections = _core.handler_selections()
        assert selections["OrderedSpy.enter_switch"] == "declined"
        assert selections["UnorderedSpy.arrive"] == "declined"


def run_with_invalidation(backend: str, protocol: ProtocolName):
    """A run whose dispatch caches are dropped part-way through."""
    with _core.use_backend(backend):
        system = MultiprocessorSystem(
            small_config(protocol, seed=3),
            LockingMicrobenchmark(num_locks=8, acquires_per_processor=10),
        )
    scheduler = system.simulator.scheduler

    def invalidate() -> None:
        for node in system.nodes:
            node.invalidate_dispatch_cache()

    scheduler.schedule_after_fast(300, invalidate, "invalidate")
    fired = []
    scheduler.on_fire = lambda time, label: fired.append((time, label))
    result = system.run()
    return fired, dataclasses.asdict(result), system.final_memory_image()


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS, ids=str)
def test_dispatch_invalidation_mid_run_matches_pure(protocol):
    pure = run_with_invalidation(_core.PURE, protocol)
    compiled = run_with_invalidation(_core.COMPILED, protocol)
    assert compiled == pure
    assert any(label.startswith("unordered-deliver") for _, label in pure[0])


def compiled_entries():
    """One instance of every vectorcall type the compiled backend builds."""
    entries = {}
    for protocol in ALL_PROTOCOLS:
        with _core.use_backend(_core.COMPILED):
            system = MultiprocessorSystem(
                small_config(protocol),
                LockingMicrobenchmark(num_locks=4, acquires_per_processor=2),
            )
        system.run()
        node = system.nodes[0]
        ordered = system.interconnect.ordered
        unordered = system.interconnect.unordered
        candidates = [
            ordered._enter_switch_callback,
            unordered._arrive_callback,
            node.sequencer._perform_entry,
            node.cache_controller._unordered_send,
            *(entry[1] for entry in unordered._inject_entries.values()),
            *(entry[1] for entry in ordered._arrive_entries.values()),
            *(entry[1] for entry in unordered._deliver_entries.values()),
            *(entry[2] for entry in unordered._deliver_entries.values()),
            *(node.ordered_entry(kind) for kind in MessageType),
            *(
                node.unordered_entry(unit, kind)
                for unit in DestinationUnit
                for kind in MessageType
            ),
        ]
        if protocol is ProtocolName.BASH:
            candidates.append(compile_sampler(node.cache_controller))
        for candidate in candidates:
            name = type(candidate).__name__
            if type(candidate).__module__ == "repro._core._cext":
                entries.setdefault(name, candidate)
    return entries


VECTORCALL_TYPES = (
    "LinkPush",
    "Relay",
    "SwitchEnter",
    "UnorderedArrive",
    "SnoopDeliver",
    "DataDeliver",
    "DirDeliver",
    "BashSample",
    "SequencerStep",
    "UnorderedSend",
    "DirHome",
)


def test_vectorcall_entries_reject_keywords_and_wrong_arity():
    entries = compiled_entries()
    assert set(VECTORCALL_TYPES) <= set(entries)
    for name in VECTORCALL_TYPES:
        entry = entries[name]
        arity = 0 if name == "BashSample" else 1
        with pytest.raises(TypeError, match="keyword"):
            entry(*([None] * arity), message=None)
        with pytest.raises(TypeError, match=f"expected {arity} argument"):
            entry(*([None] * (arity + 1)))
        if arity:
            with pytest.raises(TypeError, match="expected 1 argument"):
                entry()
