"""Pure vs compiled equivalence on randomised machine shapes.

The golden traces pin sixteen fixed configurations.  This draws protocol x
processor count x bandwidth x broadcast cost x workload x seed and requires
both backends to produce the same full ``RunResult`` (statistics included)
and the same final memory image.  A broadcast cost of 4 sends ordered
broadcasts through ``EndpointLink.transmit`` in Python while unordered
deliveries use the C ``LinkPush``, so both update the same incoming links.

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
from repro.workloads.traffic import ZipfianTrafficSpec

from ..conftest import ALL_PROTOCOLS, FAST_ADAPTIVE

#: One example runs two short simulations; half the profile's example count
#: keeps tier-1 within seconds and lets the deep profile scale it up.  The
#: BASH draw runs four (two legs per backend) and takes half of this again.
FUZZ_EXAMPLES = settings.default.max_examples // 2


def make_workload(kind: str, seed: int):
    if kind == "locking":
        return LockingMicrobenchmark(
            num_locks=32, acquires_per_processor=20, think_jitter=16
        )
    return ZipfianTrafficSpec(operations_per_processor=80, num_keys=64)(seed)


def run_on(backend: str, config: SystemConfig, kind: str):
    with _core.use_backend(backend):
        system = MultiprocessorSystem(config, make_workload(kind, config.random_seed))
        result = system.run()
    return dataclasses.asdict(result), system.final_memory_image()


@pytest.mark.skipif(
    not _core.compiled_available(), reason="compiled extension not built"
)
@settings(max_examples=FUZZ_EXAMPLES, deadline=None)
@given(
    protocol=st.sampled_from(ALL_PROTOCOLS),
    num_processors=st.integers(min_value=2, max_value=16),
    bandwidth=st.sampled_from([200.0, 350.0, 1600.0, 12800.0]),
    broadcast_cost=st.sampled_from([1.0, 4.0]),
    kind=st.sampled_from(["locking", "zipfian"]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_pure_and_compiled_agree(
    protocol: ProtocolName,
    num_processors: int,
    bandwidth: float,
    broadcast_cost: float,
    kind: str,
    seed: int,
):
    config = SystemConfig(
        num_processors=num_processors,
        protocol=protocol,
        bandwidth_mb_per_second=bandwidth,
        broadcast_cost_factor=broadcast_cost,
        adaptive=FAST_ADAPTIVE,
        random_seed=seed,
    )
    pure_result, pure_memory = run_on(_core.PURE, config, kind)
    compiled_result, compiled_memory = run_on(_core.COMPILED, config, kind)
    assert compiled_result == pure_result
    assert compiled_memory == pure_memory
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
            workload = make_workload(kind, config.random_seed)
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
                record_full_history=True,
            ),
            random_seed=leg["seed"],
        )
        for leg in legs
    ]
    pure = run_bash_legs(_core.PURE, configs, kind)
    compiled = run_bash_legs(_core.COMPILED, configs, kind)
    assert compiled == pure
    assert all(state["history"] for state in pure[0][2])
