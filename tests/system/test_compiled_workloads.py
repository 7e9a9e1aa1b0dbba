"""The compiled issue step as the workload: C reference sources.

For a stock stationary ``TrafficWorkload`` (source mode 1) or a stock
``LockingMicrobenchmark`` (source mode 2) the compiled ``SequencerStep``
makes each node's next ``MemoryOperation`` and counts its completion in C,
drawing from the workload's own ``random.Random`` and updating the
workload's own ``_issued``/``_completed``/``_last_lock`` dicts.  Every case
here runs the same system on both backends and requires the same result,
memory image, ``stats.snapshot()``, fired ``(time, label)`` stream, workload
dicts and RNG states; the selection each node records as
``Sequencer<N>.workload`` says which path drew the references.
"""

from __future__ import annotations

import dataclasses
import random
import sys

import pytest

from repro import _core
from repro.system.multiprocessor import MultiprocessorSystem
from repro.workloads import traffic
from repro.workloads.microbenchmark import LockingMicrobenchmark
from repro.workloads.traffic import TrafficWorkload

from ..conftest import ALL_PROTOCOLS, small_config

pytestmark = pytest.mark.skipif(
    not _core.compiled_available(),
    reason="compiled extension not built (python -m repro._core.build)",
)

NODES = 4


class Int(int):
    """An int that is not exactly one, and stays one under ``+``."""

    def __add__(self, other):
        return Int(int(self) + other)


class SubRandom(random.Random):
    """A random.Random subclass: not the stock RNG."""


class SubTraffic(TrafficWorkload):
    """A TrafficWorkload subclass: not the stock workload."""


class SubLocking(LockingMicrobenchmark):
    """A LockingMicrobenchmark subclass: not the stock workload."""


def make_traffic(cls=TrafficWorkload, **overrides):
    params = dict(seed=3, num_keys=48, tenant_groups=2, write_fraction=0.3)
    params.update(overrides)
    return cls(40, **params)


def make_locking(cls=LockingMicrobenchmark, **overrides):
    params = dict(num_locks=48, acquires_per_processor=30, think_jitter=16)
    params.update(overrides)
    return cls(**params)


MAKERS = {"traffic": make_traffic, "locking": make_locking}
SOURCE_MODES = {"traffic": 1, "locking": 2}


def workload_state(workload):
    """The workload's counters and every RNG it draws from."""
    state = {
        name: dict(getattr(workload, name))
        for name in ("_issued", "_completed", "_last_lock")
        if hasattr(workload, name)
    }
    state["rng"] = workload.rng.getstate()
    state["rngs"] = {
        node: rng.getstate() for node, rng in getattr(workload, "_rngs", {}).items()
    }
    return state


def observed_run(system):
    """Run ``system``: everything it leaves behind."""
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
        workload_state(system.workload),
    )


def selections(name):
    """Every node's latest ``Sequencer<N>.<name>`` selection."""
    recorded = _core.handler_selections()
    return [recorded.get(f"Sequencer{node}.{name}") for node in range(NODES)]


def run_both(protocol, make, prepare=None, rerun=None):
    """Observe one system per backend; the compiled system's steps.

    ``prepare(system)`` runs after construction on both backends;
    ``rerun()`` makes a fresh workload for a second run after a reset.
    """
    observed = {}
    for backend in (_core.PURE, _core.COMPILED):
        with _core.use_backend(backend):
            system = MultiprocessorSystem(small_config(protocol), make())
            if prepare is not None:
                prepare(system)
            runs = [observed_run(system)]
            if rerun is not None:
                system.reset(rerun())
                runs.append(observed_run(system))
            observed[backend] = runs
    steps = [node.sequencer._perform_entry for node in system.nodes]
    return observed, steps


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS, ids=str)
@pytest.mark.parametrize("kind", sorted(MAKERS))
def test_stock_workloads_draw_in_c(protocol, kind):
    observed, steps = run_both(protocol, MAKERS[kind])
    assert observed[_core.COMPILED] == observed[_core.PURE]
    assert selections("workload") == ["compiled"] * NODES
    assert [step.source_mode for step in steps] == [SOURCE_MODES[kind]] * NODES


@pytest.mark.parametrize("kind", sorted(MAKERS))
def test_stock_workloads_call_no_python_per_reference(kind):
    """Only ``Sequencer.start``'s first fetch enters the Python methods."""
    calls = {}
    cls = type(MAKERS[kind]())
    code = {
        "next": cls.next_operation.__code__,
        "complete": cls.on_complete.__code__,
    }

    def profile(frame, event, arg):
        if event == "call":
            for name, target in code.items():
                if frame.f_code is target:
                    calls[name] = calls.get(name, 0) + 1

    with _core.use_backend(_core.COMPILED):
        system = MultiprocessorSystem(small_config(ALL_PROTOCOLS[0]), MAKERS[kind]())
        sys.setprofile(profile)
        try:
            result = system.run()
        finally:
            sys.setprofile(None)
    assert result.operations > 0
    assert calls == {"next": NODES}


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS, ids=str)
@pytest.mark.parametrize("kind", sorted(MAKERS))
def test_reset_then_rerun(protocol, kind):
    def second():
        if kind == "traffic":
            return make_traffic(seed=11, tenant_groups=1, think_jitter=0)
        return make_locking(num_locks=64, think_jitter=0)

    observed, steps = run_both(protocol, MAKERS[kind], rerun=second)
    assert observed[_core.COMPILED] == observed[_core.PURE]
    assert selections("workload") == ["compiled"] * NODES
    assert all(step.source_mode == SOURCE_MODES[kind] for step in steps)


def _patch_class(monkeypatch, cls, name):
    original = getattr(cls, name)
    monkeypatch.setattr(cls, name, lambda self, *args: original(self, *args))


def _traffic_rngs(system, rng_cls):
    workload = system.workload
    for node, rng in workload._rngs.items():
        replacement = rng_cls()
        replacement.setstate(rng.getstate())
        workload._rngs[node] = replacement


def _locking_rng(system, rng_cls):
    replacement = rng_cls()
    replacement.setstate(system.workload.rng.getstate())
    system.workload.rng = replacement


def _shadow_rng_method(system):
    workload = system.workload
    rngs = workload._rngs.values() if hasattr(workload, "_rngs") else [workload.rng]
    for rng in rngs:
        rng.random = rng.random
        rng.getrandbits = rng.getrandbits


#: (workload factory, prepare(system, monkeypatch)) of every shape
#: whose references must stay on the Python path.
DECLINES = {
    "traffic-subclass": (lambda: make_traffic(SubTraffic), None),
    "locking-subclass": (lambda: make_locking(SubLocking), None),
    "traffic-patched-class": (
        make_traffic,
        lambda system, mp: _patch_class(mp, TrafficWorkload, "load_factor"),
    ),
    "locking-patched-class": (
        make_locking,
        lambda system, mp: _patch_class(mp, LockingMicrobenchmark, "lock_address"),
    ),
    "traffic-instance-hook": (
        make_traffic,
        lambda system, mp: setattr(system.workload, "load_factor", lambda now: 1.0),
    ),
    "locking-instance-hook": (
        make_locking,
        lambda system, mp: setattr(
            system.workload,
            "lock_address",
            lambda lock, block=system.workload.block_bytes: lock * block,
        ),
    ),
    "traffic-sampler-patched": (
        make_traffic,
        lambda system, mp: _patch_class(mp, traffic.ZipfSampler, "sample"),
    ),
    "traffic-rng-subclass": (
        make_traffic,
        lambda system, mp: _traffic_rngs(system, SubRandom),
    ),
    "locking-rng-subclass": (
        make_locking,
        lambda system, mp: _locking_rng(system, SubRandom),
    ),
    "traffic-rng-instance-method": (
        make_traffic,
        lambda system, mp: _shadow_rng_method(system),
    ),
    "locking-rng-instance-method": (
        make_locking,
        lambda system, mp: _shadow_rng_method(system),
    ),
    "locking-rng-patched-class": (
        make_locking,
        lambda system, mp: _patch_class(mp, random.Random, "randrange"),
    ),
    "traffic-diurnal": (
        lambda: make_traffic(diurnal_period=5_000, diurnal_amplitude=0.5),
        None,
    ),
    "traffic-burst": (
        lambda: make_traffic(burst_on=2_000, burst_off=4_000, burst_factor=2.0),
        None,
    ),
    "traffic-inexact-int": (lambda: make_traffic(base_think=Int(60)), None),
    "locking-inexact-int": (lambda: make_locking(think_jitter=Int(16)), None),
    "locking-64-bit-overflow": (lambda: make_locking(num_locks=2**60), None),
}


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS, ids=str)
@pytest.mark.parametrize("case", sorted(DECLINES))
def test_unusual_workloads_stay_pure(protocol, case, monkeypatch):
    make, prepare = DECLINES[case]
    observed, steps = run_both(
        protocol,
        make,
        prepare=None if prepare is None else lambda system: prepare(system, monkeypatch),
    )
    assert observed[_core.COMPILED] == observed[_core.PURE]
    assert selections("step") == ["compiled"] * NODES
    assert selections("workload") == ["declined"] * NODES
    assert [step.source_mode for step in steps] == [0] * NODES


def test_traffic_beyond_64_bits_declines():
    """Addresses past 64-bit arithmetic keep the Python draw."""
    workload = make_traffic()
    workload.bind(NODES, 2**60, random.Random(0))
    sequencer = type("Node", (), {"node_id": 1})()
    _core.load_extension()
    assert traffic.compile_issue_source(workload, sequencer) is None
    workload.bind(NODES, 64, random.Random(0))
    mode, kwargs = traffic.compile_issue_source(workload, sequencer)
    assert mode == 1
    assert kwargs["key_base"] == 0 and kwargs["rng"] is workload._rngs[1]


def test_zipf_table_is_shared_and_float_only():
    ext = _core.load_extension()
    with _core.use_backend(_core.COMPILED):
        system = MultiprocessorSystem(small_config(ALL_PROTOCOLS[0]), make_traffic())
        system.run()
    sampler = system.workload._sampler
    cumulative, table = traffic._zipf_tables[sampler]
    assert cumulative is sampler._cumulative and table.size == sampler.num_keys
    with pytest.raises(TypeError):
        ext.ZipfTable([1.0, 2])


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS, ids=str)
def test_declined_neighbour_shares_the_locking_rng(protocol):
    """Node 0 runs the pure step; the others draw the same RNG in C."""

    def decline_node_zero(system):
        cache = system.nodes[0].cache_controller
        original = cache._send_request
        cache._send_request = lambda txn: original(txn)

    observed, _ = run_both(protocol, make_locking, prepare=decline_node_zero)
    assert observed[_core.COMPILED] == observed[_core.PURE]
    assert selections("step") == ["declined"] + ["compiled"] * (NODES - 1)
    assert selections("workload") == ["declined"] + ["compiled"] * (NODES - 1)


def _python_calls(protocol, make, prepare):
    """The compiled run's calls of the workload's Python methods, by node."""
    calls = {"next": {}, "complete": {}}
    workload = make()
    codes = {
        type(workload).next_operation.__code__: "next",
        type(workload).on_complete.__code__: "complete",
    }

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            per_node = calls[codes[frame.f_code]]
            node = frame.f_locals["node_id"]
            per_node[node] = per_node.get(node, 0) + 1

    with _core.use_backend(_core.COMPILED):
        system = MultiprocessorSystem(small_config(protocol), workload)
        prepare(system)
        sys.setprofile(profile)
        try:
            system.run()
        finally:
            sys.setprofile(None)
    return calls


@pytest.mark.parametrize("kind", sorted(MAKERS))
def test_odd_counter_entries_take_the_python_call(kind):
    """An entry the C source cannot read sends that call to Python."""

    def odd_entries(system):
        system.workload._issued[0] = Int(0)
        system.workload._completed[1] = Int(0)

    observed, _ = run_both(ALL_PROTOCOLS[0], MAKERS[kind], prepare=odd_entries)
    assert observed[_core.COMPILED] == observed[_core.PURE]
    assert selections("workload") == ["compiled"] * NODES
    quota = observed[_core.PURE][0][0]["operations"] // NODES
    calls = _python_calls(ALL_PROTOCOLS[0], MAKERS[kind], odd_entries)
    # Node 0's every fetch (and the final None) and node 1's every
    # completion went to Python; the other nodes' only Python call is the
    # first fetch in Sequencer.start.
    assert calls["next"] == {0: quota + 1, 1: 1, 2: 1, 3: 1}
    assert calls["complete"] == {1: quota}


def test_missing_traffic_completion_counts_from_zero():
    """``_completed.get(node, 0)``: a missing entry starts a fresh count."""

    def drop_entry(system):
        del system.workload._completed[2]

    observed, _ = run_both(ALL_PROTOCOLS[0], make_traffic, prepare=drop_entry)
    assert observed[_core.COMPILED] == observed[_core.PURE]
    assert observed[_core.PURE][0][4]["_completed"][2] == 40
