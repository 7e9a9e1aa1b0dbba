"""Pure vs compiled equivalence on randomised machine shapes.

The golden traces pin sixteen fixed configurations.  This draws protocol x
processor count x bandwidth x broadcast cost x workload x seed and requires
both backends to produce the same full ``RunResult`` (statistics included)
and the same final memory image.  A broadcast cost of 4 sends ordered
broadcasts through ``EndpointLink.transmit`` in Python while unordered
deliveries use the C ``LinkPush``, so both update the same incoming links.

Tier-1 runs a small budget; the ``deep`` hypothesis profile (see
``tests/conftest.py``) runs many more shapes.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _core
from repro.common.config import ProtocolName, SystemConfig
from repro.system.multiprocessor import MultiprocessorSystem
from repro.workloads.microbenchmark import LockingMicrobenchmark
from repro.workloads.traffic import ZipfianTrafficSpec

from ..conftest import ALL_PROTOCOLS, FAST_ADAPTIVE

#: One example runs two short simulations; half the profile's example count
#: keeps tier-1 within seconds and lets the deep profile scale it up.
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
