"""Pure vs compiled equivalence on randomised machine shapes.

The golden traces pin sixteen fixed configurations.  This draws protocol x
processor count x bandwidth x broadcast cost x workload x seed and requires
both backends to produce the same full ``RunResult`` (statistics included)
and the same final memory image.  A broadcast cost of 4 makes the C
``OrderedSend`` occupy links at that cost (memoised under ``(size, cost)``),
while a BASH retry's broadcast takes ``EndpointLink.transmit`` in Python.

Locking and Zipfian traffic are drawn in shape as well (lock counts that are
and are not powers of two, think jitter or none, key counts, a uniform or a
skewed law, all-read or all-write mixes, tenant groups), because the
compiled issue step draws their references in C from the workload's own RNG
and counters; their counters and RNG states must match too.

Besides locking and Zipfian traffic, two workloads stress the reply paths:
a mixed read/write trace on a small cache (dirty evictions, so writebacks
race forwards and owner serves) and a streamed write-heavy Zipfian trace
(``StreamingTraceWorkload``: owners hand blocks on while readers share them).

BASH gets its own draw over the adaptive mechanism's axes (sampling interval
and policy counter width), comparing every node's full sample history, policy
counter, LFSR state and decision counts as well, across a reset to a second
configuration on the same system.

Tier-1 runs a small budget; the ``deep`` hypothesis profile (see
``tests/conftest.py``) runs many more shapes.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _core
from repro.common.config import AdaptiveConfig, ProtocolName, SystemConfig
from repro.system.multiprocessor import MultiprocessorSystem
from repro.workloads.microbenchmark import LockingMicrobenchmark
from repro.workloads.patterns import MixedTraceWorkloadSpec
from repro.workloads.streaming import StreamingTrafficSpec
from repro.workloads.traffic import TrafficWorkload, ZipfianTrafficSpec

from ..conftest import ALL_PROTOCOLS, FAST_ADAPTIVE

#: One example runs two short simulations; half the profile's example count
#: keeps tier-1 within seconds and lets the deep profile scale it up.  The
#: BASH draw runs four (two legs per backend) and takes half of this again.
FUZZ_EXAMPLES = settings.default.max_examples // 2


#: The workload kinds the main draw picks from.
KINDS = ["locking", "zipfian", "mixed", "streaming"]

#: Cache blocks per node for the mixed trace: small enough that its private
#: streaming evicts dirty blocks.
MIXED_CACHE_BLOCKS = 24


#: Shape of the locking and Zipfian workloads (the other kinds ignore it).
shapes = st.fixed_dictionaries(
    {
        "num_locks": st.sampled_from([2, 3, 32, 48, 64, 100]),
        "think_jitter": st.sampled_from([0, 1, 16]),
        "num_keys": st.sampled_from([1, 7, 64]),
        "zipf_exponent": st.sampled_from([0.0, 0.9, 1.5]),
        "write_fraction": st.sampled_from([0.0, 0.1, 1.0]),
        "tenant_groups": st.sampled_from([1, 3]),
    }
)

#: The default shape: the workloads this draw started from.
DEFAULT_SHAPE = {
    "num_locks": 32,
    "think_jitter": 16,
    "num_keys": 64,
    "zipf_exponent": 0.9,
    "write_fraction": 0.1,
    "tenant_groups": 1,
}


def make_workload(kind: str, seed: int, num_processors: int, shape=None):
    shape = DEFAULT_SHAPE if shape is None else shape
    if kind == "locking":
        return LockingMicrobenchmark(
            num_locks=shape["num_locks"],
            acquires_per_processor=20,
            think_jitter=shape["think_jitter"],
        )
    if kind == "mixed":
        return MixedTraceWorkloadSpec(
            num_processors=num_processors,
            operations_per_processor=60,
            shared_blocks=24,
            private_blocks=32,
        )(seed)
    if kind == "streaming":
        return StreamingTrafficSpec(
            operations_per_processor=80,
            num_keys=48,
            write_fraction=0.4,
            window_ops=16,
        )(seed)
    return ZipfianTrafficSpec(
        operations_per_processor=80,
        num_keys=shape["num_keys"],
        zipf_exponent=shape["zipf_exponent"],
        write_fraction=shape["write_fraction"],
        think_jitter=shape["think_jitter"],
        tenant_groups=shape["tenant_groups"],
    )(seed)


def workload_state(workload):
    """The locking/traffic counters and RNG states (None for other kinds)."""
    if not isinstance(workload, (LockingMicrobenchmark, TrafficWorkload)):
        return None
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


def run_on(backend: str, config: SystemConfig, kind: str, shape=None):
    with _core.use_backend(backend):
        workload = make_workload(
            kind, config.random_seed, config.num_processors, shape
        )
        system = MultiprocessorSystem(config, workload)
        result = system.run()
    return (
        dataclasses.asdict(result),
        system.final_memory_image(),
        workload_state(workload),
    )


@pytest.mark.skipif(
    not _core.compiled_available(), reason="compiled extension not built"
)
@settings(max_examples=FUZZ_EXAMPLES, deadline=None)
@given(
    protocol=st.sampled_from(ALL_PROTOCOLS),
    num_processors=st.integers(min_value=2, max_value=64),
    bandwidth=st.sampled_from([200.0, 350.0, 1600.0, 12800.0]),
    broadcast_cost=st.sampled_from([1.0, 4.0]),
    kind=st.sampled_from(KINDS),
    seed=st.integers(min_value=0, max_value=2**16),
    shape=shapes,
)
def test_pure_and_compiled_agree(
    protocol: ProtocolName,
    num_processors: int,
    bandwidth: float,
    broadcast_cost: float,
    kind: str,
    seed: int,
    shape,
):
    config = SystemConfig(
        num_processors=num_processors,
        protocol=protocol,
        bandwidth_mb_per_second=bandwidth,
        broadcast_cost_factor=broadcast_cost,
        adaptive=FAST_ADAPTIVE,
        random_seed=seed,
        **({"cache_capacity_blocks": MIXED_CACHE_BLOCKS} if kind == "mixed" else {}),
    )
    pure_result, pure_memory, pure_state = run_on(_core.PURE, config, kind, shape)
    compiled = run_on(_core.COMPILED, config, kind, shape)
    assert compiled[0] == pure_result
    assert compiled[1] == pure_memory
    assert compiled[2] == pure_state
    assert pure_result["operations"] > 0


def adaptive_state(system):
    """Every node's adaptive mechanism, field for field."""
    return [
        {
            "history": [
                dataclasses.astuple(sample) for sample in mechanism.history
            ],
            "policy": mechanism.policy_counter.value,
            "lfsr": mechanism.lfsr.state,
            "broadcasts": mechanism._broadcasts,
            "unicasts": mechanism._unicasts,
        }
        for mechanism in (node.cache_controller.adaptive for node in system.nodes)
    ]


def run_bash_legs(backend: str, configs, kind: str):
    """Run each config in turn on one system (a reset between legs)."""
    legs = []
    with _core.use_backend(backend):
        system = None
        for config in configs:
            workload = make_workload(kind, config.random_seed, config.num_processors)
            if system is None:
                system = MultiprocessorSystem(config, workload)
            else:
                system.reset(workload, config)
            result = system.run()
            legs.append(
                (
                    dataclasses.asdict(result),
                    system.final_memory_image(),
                    adaptive_state(system),
                )
            )
    return legs


#: A sample-history capacity above any leg's sample count, so the
#: comparison covers every sample each node took.
WHOLE_RUN_HISTORY = 1 << 20


bash_legs = st.fixed_dictionaries(
    {
        "bandwidth": st.sampled_from([200.0, 350.0, 1600.0]),
        "sampling_interval": st.sampled_from([16, 128, 512]),
        "policy_counter_bits": st.sampled_from([4, 8, 16]),
        "seed": st.integers(min_value=0, max_value=2**16),
    }
)


@pytest.mark.skipif(
    not _core.compiled_available(), reason="compiled extension not built"
)
@settings(max_examples=FUZZ_EXAMPLES // 2, deadline=None)
@given(
    num_processors=st.integers(min_value=2, max_value=8),
    kind=st.sampled_from(["locking", "zipfian"]),
    legs=st.lists(bash_legs, min_size=2, max_size=2),
)
def test_bash_adaptive_path_agrees(num_processors: int, kind: str, legs):
    configs = [
        SystemConfig(
            num_processors=num_processors,
            protocol=ProtocolName.BASH,
            bandwidth_mb_per_second=leg["bandwidth"],
            adaptive=AdaptiveConfig(
                sampling_interval=leg["sampling_interval"],
                policy_counter_bits=leg["policy_counter_bits"],
                history_capacity=WHOLE_RUN_HISTORY,
            ),
            random_seed=leg["seed"],
        )
        for leg in legs
    ]
    pure = run_bash_legs(_core.PURE, configs, kind)
    compiled = run_bash_legs(_core.COMPILED, configs, kind)
    assert compiled == pure
    assert all(state["history"] for state in pure[0][2])
    # A ring that dropped a sample would sit at its capacity.
    assert all(
        len(state["history"]) < WHOLE_RUN_HISTORY
        for _, _, states in pure
        for state in states
    )
