"""The compiled serves and sends against the pure handlers, on identical inputs.

On a compiled scheduler the replies to a miss run in C: the owner's DATA
reply in ``SnoopDeliver`` and ``DirDeliver``, the Directory home
(``DirHome``), both network sends (``UnorderedSend``, ``OrderedSend``) and
the statistics those objects update.  Each test builds the same small
system on both backends, sets up the same block and directory state,
delivers one message through the node's delivery entry, and requires the
same pushed entries and message fields (ids relative to the first id the
test draws), the same fired event stream, and the same block, directory,
link and statistics state afterwards -- including on the shapes that must
stay on the pure path.
"""

from __future__ import annotations

import sys

import pytest

from repro import _core
from repro.coherence.state import MEMORY_OWNER, MOSIState
from repro.common.config import ProtocolName
from repro.common.stats import Counter, RunningMean, StatsRegistry
from repro.errors import NetworkError, ProtocolError
from repro.interconnect.message import (
    DestinationUnit,
    Message,
    MessageType,
    _message_ids,
)
from repro.interconnect.unordered_network import UnorderedNetwork
from repro.protocols.directory.memory_controller import DirectoryMemoryController
from repro.sim.component import Component
from repro.system.multiprocessor import MultiprocessorSystem
from repro.workloads.microbenchmark import LockingMicrobenchmark

from ..conftest import small_config

pytestmark = pytest.mark.skipif(
    not _core.compiled_available(),
    reason="compiled extension not built (python -m repro._core.build)",
)

SNOOPING = ProtocolName.SNOOPING
DIRECTORY = ProtocolName.DIRECTORY
BASH = ProtocolName.BASH
BACKENDS = (_core.PURE, _core.COMPILED)
GETS, GETM, DATA, MARKER = (
    MessageType.GETS,
    MessageType.GETM,
    MessageType.DATA,
    MessageType.MARKER,
)
#: Node 0 requests, node 1 owns, node 3 is the home of ADDRESS.
REQUESTER, OWNER, SHARER, HOME = 0, 1, 2, 3
BLOCK = 64
ADDRESS = HOME * BLOCK
LINK_FIELDS = (
    "_busy_until",
    "_busy_total",
    "_period_start",
    "_period_prefix",
    "_messages",
    "_bytes",
)


def build(backend: str, protocol: ProtocolName, **overrides):
    with _core.use_backend(backend):
        return MultiprocessorSystem(
            small_config(protocol, **overrides),
            LockingMicrobenchmark(num_locks=4, acquires_per_processor=1),
        )


def give_block(system, node, state, sharers=(), token=7):
    block = system.nodes[node].cache_controller.blocks.lookup(ADDRESS)
    block.state = state
    block.data_token = token
    block.tracked_sharers.update(sharers)
    return block


def set_entry(system, owner=MEMORY_OWNER, sharers=(), token=5):
    entry = system.nodes[HOME].memory_controller.directory.lookup(ADDRESS)
    entry.owner = owner
    entry.sharers.update(sharers)
    entry.data_token = token
    return entry


def request(msg_type, recipients=None, **fields):
    """A request as the network delivers it (id -1: not drawn)."""
    fields.setdefault("src", REQUESTER)
    fields.setdefault("requester", REQUESTER)
    return Message(
        msg_type=msg_type,
        address=fields.pop("address", ADDRESS),
        size_bytes=fields.pop("size_bytes", 8),
        transaction_id=77,
        recipients=frozenset(recipients or ()),
        data_token=fields.pop("data_token", 0),
        msg_id=-1,
        **fields,
    )


BROADCAST_GETS = request(GETS, {0, 1, 2, 3}, is_broadcast=True)


def message_fields(message, first_id):
    """Every field; a drawn id relative to the first id the test drew."""
    values = [getattr(message, name) for name in Message.__slots__]
    index = Message.__slots__.index("msg_id")
    if values[index] >= 0:
        values[index] -= first_id
    return tuple(values)


def state_of(system):
    """Blocks, directory, links and statistics, field for field."""
    blocks = [
        {
            address: (block.state, block.data_token, sorted(block.tracked_sharers))
            for address, block in node.cache_controller.blocks._blocks.items()
        }
        for node in system.nodes
    ]
    directory = [
        {
            address: (entry.owner, sorted(entry.sharers), entry.data_token)
            for address, entry in node.memory_controller.directory.entries().items()
        }
        for node in system.nodes
    ]
    links = [
        tuple(getattr(link, name) for name in LINK_FIELDS)
        for pair in system.interconnect.links.values()
        for link in (pair.incoming, pair.outgoing)
    ]
    return blocks, directory, links, system.stats.snapshot()


def python_calls(action):
    """The names of the Python functions ``action`` enters."""
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(None)
    return calls


def observe(system, action, until=3_000):
    """Run ``action``; the pushed entries, events and state, and the Python
    functions the action itself entered."""
    scheduler = system.simulator.scheduler
    first_id = next(_message_ids)
    calls = python_calls(action)
    pushed = sorted(
        (entry[0], entry[1], entry[3], message_fields(entry[4], first_id))
        for bucket in scheduler._buckets.values()
        for entry in bucket
        if len(entry) == 5 and isinstance(entry[4], Message)
    )
    fired = []
    scheduler.on_fire = lambda time, label: fired.append((time, label))
    scheduler.run(until=until)
    return (pushed, fired, state_of(system)), calls


def both(protocol, setup, deliver, in_c=(), **overrides):
    """``observe`` on both backends; asserts they agree, returns one.

    ``deliver(system)`` resolves the delivery entry and returns the action
    to observe.  ``in_c`` names pure methods the pure action runs and the
    compiled one must not enter.
    """
    outcomes = []
    for backend in BACKENDS:
        system = build(backend, protocol, **overrides)
        setup(system)
        outcome, calls = observe(system, deliver(system))
        outcomes.append(outcome)
        if backend == _core.PURE:
            assert set(in_c) <= set(calls)
        else:
            assert not set(in_c) & set(calls), calls
    assert outcomes[1] == outcomes[0]
    return outcomes[0]


def snoop(node, message):
    def deliver(system):
        entry = system.nodes[node].ordered_entry(message.msg_type)
        return lambda: entry(message)

    return deliver


def home_deliver(message):
    """Deliver through the unordered network's entry (its arena wrapper)."""

    def deliver(system):
        network = system.interconnect.unordered
        key = (message.msg_type, HOME, DestinationUnit.MEMORY)
        entry = network._deliver_entries.get(key) or network._compile_delivery(*key)
        return lambda: entry[1](message)

    return deliver


def pushed_types(outcome):
    return [fields[0] for *_, fields in outcome[0]]


class TestSelection:
    def test_compiled_systems_select_every_new_entry(self):
        system = build(_core.COMPILED, DIRECTORY)
        cache = system.nodes[0].cache_controller
        assert type(cache._unordered_send).__name__ == "UnorderedSend"
        assert type(cache._ordered_send).__name__ == "OrderedSend"
        home = system.nodes[HOME]
        for kind in (MessageType.GETS, MessageType.GETM):
            entry = home.unordered_entry(DestinationUnit.MEMORY, kind)
            assert type(entry).__name__ == "DirHome"
        selections = _core.handler_selections()
        assert selections["UnorderedNetwork.send"] == "compiled"
        assert selections["TotallyOrderedNetwork.send"] == "compiled"
        assert selections[f"DirectoryMemoryController{HOME}.GETS"] == "compiled"
        assert selections[f"DirectoryMemoryController{HOME}.GETM"] == "compiled"

    def test_pure_systems_keep_the_bound_methods(self):
        system = build(_core.PURE, DIRECTORY)
        cache = system.nodes[0].cache_controller
        assert cache._unordered_send == system.interconnect.unordered.send
        assert cache._ordered_send == system.interconnect.ordered.send


class TestSends:
    @pytest.mark.parametrize("dest", [99, None])
    def test_unknown_destination_raises_the_same_error(self, dest):
        errors = []
        for backend in BACKENDS:
            system = build(backend, DIRECTORY)
            before = state_of(system)
            message = request(MessageType.DATA, dest=dest, size_bytes=72)
            with pytest.raises(NetworkError) as caught:
                system.nodes[0].cache_controller._unordered_send(message)
            assert state_of(system) == before
            errors.append(str(caught.value))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("recipients", [frozenset({0, 99}), frozenset()])
    def test_unknown_recipient_raises_the_same_error(self, recipients):
        errors = []
        for backend in BACKENDS:
            system = build(backend, SNOOPING)
            before = state_of(system)
            with pytest.raises(NetworkError) as caught:
                system.nodes[0].cache_controller._ordered_send(
                    request(MessageType.GETS), recipients
                )
            assert state_of(system) == before
            errors.append(str(caught.value))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize(
        "recipients, in_c",
        [({0, 1, 2, 3}, ()), ({0, 3}, ("send",)), (frozenset({1, 2}), ("send",))],
    )
    def test_ordered_send_at_broadcast_cost_four_matches_pure(self, recipients, in_c):
        """The broadcast runs the Python method, the multicasts the C path."""

        def deliver(system):
            # The label a first send memoises (a memo miss runs the method).
            labels = system.interconnect.ordered._inject_labels
            labels[GETS] = f"ordered-inject:{GETS}"
            send = system.nodes[0].cache_controller._ordered_send
            return lambda: send(request(GETS), recipients)

        outcome = both(
            SNOOPING, lambda system: None, deliver, in_c, broadcast_cost_factor=4.0
        )
        fields = outcome[0][0][3]
        assert fields[Message.__slots__.index("recipients")] == frozenset(recipients)
        assert outcome[2][3]["network.ordered.messages"] == 1.0

    def test_unordered_send_matches_pure(self):
        def deliver(system):
            send = system.nodes[0].cache_controller._unordered_send
            return lambda: send(request(MessageType.DATA, dest=2, size_bytes=72))

        outcome = both(DIRECTORY, lambda system: None, deliver, in_c=("send",))
        assert outcome[2][3]["network.unordered.messages"] == 1.0

    def test_subclassed_network_declines(self):
        class UnorderedSpy(UnorderedNetwork):
            pass

        system = build(_core.COMPILED, DIRECTORY)
        spy = UnorderedSpy(
            system.simulator.scheduler, system.interconnect.links, 3, StatsRegistry()
        )
        assert spy._send_callback == spy.send
        assert _core.handler_selections()["UnorderedSpy.send"] == "declined"

    def test_class_patched_network_declines_and_runs_the_patch(self, monkeypatch):
        calls = []
        original = UnorderedNetwork.send

        def spy(self, message):
            calls.append(message.msg_type)
            original(self, message)

        monkeypatch.setattr(UnorderedNetwork, "send", spy)
        system = build(_core.COMPILED, DIRECTORY)
        cache = system.nodes[0].cache_controller
        assert type(cache._unordered_send).__name__ == "method"
        assert _core.handler_selections()["UnorderedNetwork.send"] == "declined"
        cache._unordered_send(request(MessageType.DATA, dest=2, size_bytes=72))
        assert calls == [MessageType.DATA]


class TestOwnerServe:
    @pytest.mark.parametrize("protocol", [SNOOPING, BASH], ids=str)
    @pytest.mark.parametrize("state", [MOSIState.MODIFIED, MOSIState.OWNED], ids=str)
    def test_gets_at_the_owner(self, protocol, state):
        outcome = both(
            protocol,
            lambda system: give_block(system, OWNER, state, sharers={SHARER}),
            snoop(OWNER, request(MessageType.GETS, {0, 1, 2, 3}, is_broadcast=True)),
            in_c=("_serve_stable", "_send_data"),
        )
        assert pushed_types(outcome) == [MessageType.DATA]
        blocks = outcome[2][0]
        assert blocks[OWNER][ADDRESS] == (MOSIState.OWNED, 7, [REQUESTER, SHARER])
        assert outcome[2][3][f"cache{OWNER}.cache_to_cache"] == 1.0

    @pytest.mark.parametrize("protocol", [SNOOPING, BASH], ids=str)
    def test_getm_at_the_owner(self, protocol):
        outcome = both(
            protocol,
            lambda system: give_block(system, OWNER, MOSIState.OWNED, sharers={SHARER}),
            snoop(OWNER, request(MessageType.GETM, {0, 1, 2, 3}, is_broadcast=True)),
            in_c=("_serve_stable", "_send_data"),
        )
        assert pushed_types(outcome) == [MessageType.DATA]
        assert ADDRESS not in outcome[2][0][OWNER]
        assert outcome[2][3][f"cache{OWNER}.data_responses"] == 1.0

    def test_sufficient_bash_dualcast_getm(self):
        outcome = both(
            BASH,
            lambda system: give_block(system, OWNER, MOSIState.MODIFIED),
            snoop(OWNER, request(MessageType.GETM, {0, 1, 3})),
            in_c=("_owner_getm_sufficient", "_send_data"),
        )
        assert pushed_types(outcome) == [MessageType.DATA]

    def test_insufficient_bash_getm_is_only_counted(self):
        outcome = both(
            BASH,
            lambda system: give_block(system, OWNER, MOSIState.OWNED, sharers={SHARER}),
            snoop(OWNER, request(MessageType.GETM, {0, 1, 3})),
            in_c=("_owner_getm_sufficient",),
        )
        assert pushed_types(outcome) == []
        assert outcome[2][0][OWNER][ADDRESS][0] is MOSIState.OWNED
        assert outcome[2][3][f"cache{OWNER}.insufficient_observed"] == 1.0

    def test_count_after_a_reset_that_pruned_the_name(self):
        """A lazily created counter is pruned by reset; C must not keep it."""
        outcomes = []
        for backend in BACKENDS:
            system = build(backend, SNOOPING)
            message = request(MessageType.GETS, {0, 1, 2, 3}, is_broadcast=True)
            give_block(system, OWNER, MOSIState.MODIFIED)
            snoop(OWNER, message)(system)()
            name = f"cache{OWNER}.cache_to_cache"
            assert system.stats.counters()[name] == 1
            system.reset(LockingMicrobenchmark(num_locks=4, acquires_per_processor=1))
            assert name not in system.stats.counters()
            give_block(system, OWNER, MOSIState.MODIFIED)
            outcomes.append(observe(system, snoop(OWNER, message)(system))[0])
            assert system.stats.counters()[name] == 1
        assert outcomes[1] == outcomes[0]


class TestForwardServe:
    @pytest.mark.parametrize(
        "kind, state",
        [
            (MessageType.FWD_GETS, MOSIState.MODIFIED),
            (MessageType.FWD_GETS, MOSIState.SHARED),
            (MessageType.FWD_GETM, MOSIState.OWNED),
            (MessageType.FWD_GETM, MOSIState.SHARED),
            (MessageType.FWD_GETM, None),
        ],
        ids=str,
    )
    def test_forward_at_another_node(self, kind, state):
        def setup(system):
            if state is not None:
                give_block(system, OWNER, state, sharers={SHARER})

        outcome = both(
            DIRECTORY,
            setup,
            snoop(OWNER, request(kind, {0, 1}, src=HOME, order_seq=4)),
            in_c=("_serve_forward",) if state is not None else (),
        )
        owner = state in (MOSIState.MODIFIED, MOSIState.OWNED)
        assert pushed_types(outcome) == ([MessageType.DATA] if owner else [])
        if state is None:
            # blocks.lookup leaves an Invalid record, as the pure handler does
            assert outcome[2][0][OWNER][ADDRESS][0] is MOSIState.INVALID


class TestDirectoryHome:
    @pytest.mark.parametrize(
        "kind, owner, sharers, expected",
        [
            (GETS, MEMORY_OWNER, {SHARER}, [DATA, MARKER]),
            (GETS, REQUESTER, (), [DATA, MARKER]),
            (GETS, OWNER, {SHARER}, [MessageType.FWD_GETS]),
            (GETM, MEMORY_OWNER, {OWNER, SHARER}, [DATA, MessageType.FWD_GETM]),
            (GETM, MEMORY_OWNER, {REQUESTER}, [DATA, MARKER]),
            (GETM, MEMORY_OWNER, (), [DATA, MARKER]),
            (GETM, OWNER, {SHARER}, [MessageType.FWD_GETM]),
            (GETM, REQUESTER, {SHARER}, [MessageType.FWD_GETM]),
        ],
        ids=str,
    )
    def test_request_at_the_home(self, kind, owner, sharers, expected):
        outcome = both(
            DIRECTORY,
            lambda system: set_entry(system, owner=owner, sharers=sharers),
            home_deliver(
                request(
                    kind, dest=HOME, dest_unit=DestinationUnit.MEMORY, data_token=9
                )
            ),
            in_c=("_handle_gets" if kind is MessageType.GETS else "_handle_getm",),
        )
        assert sorted(pushed_types(outcome), key=str) == sorted(expected, key=str)

    def test_non_home_address_raises_the_same_error(self):
        errors = []
        for backend in BACKENDS:
            system = build(backend, DIRECTORY)
            message = request(
                MessageType.GETS,
                address=ADDRESS + BLOCK,
                dest=HOME,
                dest_unit=DestinationUnit.MEMORY,
            )
            with pytest.raises(ProtocolError) as caught:
                home_deliver(message)(system)()
            errors.append(str(caught.value))
        assert errors[0] == errors[1]

    def test_subclassed_controller_declines(self):
        class HomeSpy(DirectoryMemoryController):
            pass

        system = build(_core.COMPILED, DIRECTORY)
        home = system.nodes[HOME].memory_controller
        home.__class__ = HomeSpy
        assert home.compile_accelerated_unordered(MessageType.GETM) is None
        assert _core.handler_selections()[f"DirectoryMemoryController{HOME}.GETM"] == (
            "declined"
        )

    def test_class_patched_controller_declines_and_runs_the_patch(self, monkeypatch):
        calls = []
        original = DirectoryMemoryController._handle_gets

        def spy(self, message):
            calls.append(message.address)
            original(self, message)

        monkeypatch.setattr(DirectoryMemoryController, "_handle_gets", spy)
        system = build(_core.COMPILED, DIRECTORY)
        entry = system.nodes[HOME].unordered_entry(
            DestinationUnit.MEMORY, MessageType.GETS
        )
        assert type(entry).__name__ == "method"
        assert _core.handler_selections()[f"DirectoryMemoryController{HOME}.GETS"] == (
            "declined"
        )
        home_deliver(
            request(MessageType.GETS, dest=HOME, dest_unit=DestinationUnit.MEMORY)
        )(system)()
        assert calls == [ADDRESS]


class TestStatisticsDecline:
    def test_class_patched_counter_counts_through_python(self, monkeypatch):
        writes = []
        slot = Counter._count

        def set_count(self, value):
            if value:  # not the zeroing in __init__
                writes.append(self.name)
            slot.__set__(self, value)

        monkeypatch.setattr(Counter, "_count", property(slot.__get__, set_count))
        outcome = both(
            SNOOPING,
            lambda system: give_block(system, OWNER, MOSIState.MODIFIED),
            snoop(OWNER, request(MessageType.GETS, {0, 1, 2, 3}, is_broadcast=True)),
        )
        assert outcome[2][3][f"cache{OWNER}.cache_to_cache"] == 1.0
        # Each backend wrote the counter once, through the patched descriptor.
        assert writes.count(f"cache{OWNER}.cache_to_cache") == 2

    def test_subclassed_counter_counts_through_python(self):
        class SpyCounter(Counter):
            __slots__ = ("bumps",)

            def __init__(self, name):
                super().__init__(name)
                self.bumps = 0

        system = build(_core.COMPILED, SNOOPING)
        cache = system.nodes[OWNER].cache_controller
        name = f"cache{OWNER}.cache_to_cache"
        spy = system.stats._counters[name] = SpyCounter(name)
        cache._counter_cache["cache_to_cache"] = spy
        give_block(system, OWNER, MOSIState.MODIFIED)
        snoop(OWNER, BROADCAST_GETS)(system)()
        assert spy.count == 1

    def test_patched_count_method_is_called(self, monkeypatch):
        calls = []
        original = Component.count

        def spy(self, suffix, amount=1):
            calls.append(suffix)
            original(self, suffix, amount)

        system = build(_core.COMPILED, SNOOPING)
        monkeypatch.setattr(Component, "count", spy)
        give_block(system, OWNER, MOSIState.MODIFIED)
        snoop(OWNER, BROADCAST_GETS)(system)()
        assert "cache_to_cache" in calls

    def test_subclassed_running_mean_records_through_python(self):
        class SpyMean(RunningMean):
            __slots__ = ("records",)

            def __init__(self, name):
                super().__init__(name)
                self.records = 0

            def record(self, value):
                self.records += 1
                super().record(value)

        outcomes = []
        for backend in BACKENDS:
            system = build(backend, DIRECTORY)
            spies = []
            for node in system.nodes:
                cache = node.cache_controller
                spy = SpyMean(cache._miss_latency_mean.name)
                system.stats._means[spy.name] = cache._miss_latency_mean = spy
                spies.append(spy)
            result = system.run()
            outcomes.append((result, [(spy.records, spy.mean) for spy in spies]))
        assert outcomes[1] == outcomes[0]
        assert sum(records for records, _ in outcomes[0][1]) > 0

    def test_class_patched_running_mean_records_through_python(self, monkeypatch):
        calls = []
        original = RunningMean.record

        def spy(self, value):
            calls.append(self.name)
            original(self, value)

        monkeypatch.setattr(RunningMean, "record", spy)
        results = []
        for backend in BACKENDS:
            with _core.use_backend(backend):
                system = MultiprocessorSystem(
                    small_config(DIRECTORY),
                    LockingMicrobenchmark(num_locks=4, acquires_per_processor=4),
                )
            results.append((system.run(), system.final_memory_image()))
        assert results[0] == results[1]
        pure_calls = calls[: len(calls) // 2]
        assert calls == pure_calls * 2
        assert "system.miss_latency" in pure_calls


def test_every_new_entry_rejects_keywords():
    system = build(_core.COMPILED, DIRECTORY)
    cache = system.nodes[0].cache_controller
    home = system.nodes[HOME].unordered_entry(DestinationUnit.MEMORY, MessageType.GETS)
    for entry in (cache._unordered_send, cache._ordered_send, home):
        with pytest.raises(TypeError, match="keyword"):
            entry(None, message=None)
    with pytest.raises(TypeError, match="expected"):
        cache._ordered_send()
    with pytest.raises(TypeError, match="expected"):
        cache._ordered_send(None, None, None)
