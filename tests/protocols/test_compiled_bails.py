"""The compiled issue step and BASH sampler hand odd shapes to Python.

``SequencerStep`` (``_issue.c``) reads a trace operation's address as an
exact ``int``; any other address type makes it call ``Sequencer._perform``
before it has written anything (``sstep_bail``).  ``BashSample``
(``_chandlers.c``) reads the controller's sampling window as C integers; a
window that is not an integer makes it call ``_sample_utilization``
instead (``sample_bail``).  Each test runs the same odd shape on both
backends and requires the same result, memory image, statistics and fired
event stream, and that the compiled run really entered the Python method
(which a stock run of the same system never does).
"""

from __future__ import annotations

import dataclasses
import sys

import pytest

from repro import _core
from repro.common.config import ProtocolName
from repro.system.multiprocessor import MultiprocessorSystem
from repro.workloads.base import MemoryOperation
from repro.workloads.microbenchmark import LockingMicrobenchmark
from repro.workloads.trace import TraceWorkload

from ..conftest import ALL_PROTOCOLS, small_config

pytestmark = pytest.mark.skipif(
    not _core.compiled_available(),
    reason="compiled extension not built (python -m repro._core.build)",
)

BLOCK = 64


class Address(int):
    """An address that is an ``int``, but not exactly one."""


def python_calls(action):
    """How often ``action`` entered each Python function, by name."""
    calls = {}

    def profile(frame, event, arg):
        if event == "call":
            name = frame.f_code.co_name
            calls[name] = calls.get(name, 0) + 1

    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(None)
    return calls


def run_observed(system):
    """Run ``system``; everything it leaves behind, and the calls it made."""
    fired = []
    system.simulator.scheduler.on_fire = lambda time, label: fired.append(
        (time, label)
    )
    results = []
    calls = python_calls(lambda: results.append(system.run()))
    observed = (
        dataclasses.asdict(results[0]),
        system.final_memory_image(),
        system.stats.snapshot(),
        fired,
    )
    return observed, calls


def trace(odd):
    """Reads, writes and re-reads over a few shared blocks on 4 nodes."""
    wrap = Address if odd else int
    traces = {}
    for node in range(4):
        operations = []
        for step in range(12):
            block = (node + step) % 5
            operations.append(
                MemoryOperation(
                    address=wrap(block * BLOCK + step % 3),
                    is_write=(node + step) % 4 == 0,
                    think_cycles=step % 2,
                    instructions=2,
                )
            )
        traces[node] = operations
    return traces


def trace_system(backend, protocol, odd):
    with _core.use_backend(backend):
        return MultiprocessorSystem(
            small_config(protocol, bandwidth=100_000.0), TraceWorkload(trace(odd))
        )


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS, ids=str)
def test_step_hands_a_non_exact_int_address_to_python(protocol):
    pure, _ = run_observed(trace_system(_core.PURE, protocol, odd=True))
    compiled, calls = run_observed(trace_system(_core.COMPILED, protocol, odd=True))
    assert compiled == pure
    selections = _core.handler_selections()
    assert all(
        selections[f"Sequencer{node}.step"] == "compiled" for node in range(4)
    )
    # Every operation reached Sequencer._perform through the bail (a retry
    # the pure path schedules may add more).
    assert calls.get("_perform", 0) >= 4 * 12
    _, stock_calls = run_observed(trace_system(_core.COMPILED, protocol, odd=False))
    assert stock_calls.get("_perform", 0) == 0


def bash_system(backend):
    with _core.use_backend(backend):
        return MultiprocessorSystem(
            small_config(ProtocolName.BASH, bandwidth=400.0),
            LockingMicrobenchmark(num_locks=8, acquires_per_processor=12),
        )


def adaptive_state(system):
    return [
        (
            [dataclasses.astuple(s) for s in node.cache_controller.adaptive.history],
            node.cache_controller.adaptive.policy_counter.value,
            node.cache_controller._window_start,
        )
        for node in system.nodes
    ]


def test_sampler_hands_a_non_int_window_to_python():
    def odd_run(backend):
        system = bash_system(backend)
        system.nodes[1].cache_controller._window_start = 0.0
        observed, calls = run_observed(system)
        return (observed, adaptive_state(system)), calls

    pure, _ = odd_run(_core.PURE)
    compiled, calls = odd_run(_core.COMPILED)
    assert compiled == pure
    assert _core.handler_selections()["BashCacheController1.sample"] == "compiled"
    # Node 1's first sample ran in Python.  A sample that ran in Python
    # schedules the Python method for that node's later samples, as the
    # pure path does, so every node-1 sample after the first does too.
    assert calls.get("_sample_utilization", 0) >= 1
    _, stock_calls = run_observed(bash_system(_core.COMPILED))
    assert stock_calls.get("_sample_utilization", 0) == 0
