"""Census of the compiled entries the shipped workloads select.

Each per-miss entry runs wholly in C or wholly in the pure handlers, and an
entry declines only for a customised system.  So building each perfbench
machine shape and running every shipped grid scenario (at a tiny scale) on
the compiled backend must select every entry it builds; the one allowed
decline is ``Sequencer<N>.workload`` for a workload the C step has no
reference source for (streaming, diurnal, bursty and synthetic traffic).
"""

from __future__ import annotations

import dataclasses
import re

import pytest

from repro import _core
from repro.common.config import ProtocolName
from repro.experiments.runner import (
    QUICK,
    LockingWorkloadSpec,
    microbenchmark_config,
)
from repro.experiments.scenario import SCENARIOS
from repro.system.multiprocessor import MultiprocessorSystem
from repro.workloads.traffic import ZipfianTrafficSpec

pytestmark = pytest.mark.skipif(
    not _core.compiled_available(),
    reason="compiled extension not built (python -m repro._core.build)",
)

#: The grid scenarios cut down to a few short runs each.
TINY = dataclasses.replace(
    QUICK,
    name="census",
    microbenchmark_processors=4,
    workload_processors=4,
    acquires_per_processor=4,
    operations_per_processor=8,
    num_locks=16,
    bandwidth_points=(200, 12800),
    workload_bandwidth_points=(800,),
    processor_counts=(4,),
    think_times=(0, 200),
    seeds=(1,),
)

#: perfbench's ``locking`` and ``zipfian`` machines with short workloads
#: (its ``sweep`` is the figure1 grid below).
PERFBENCH_SHAPES = {
    "locking": (
        64,
        LockingWorkloadSpec(num_locks=4096, acquires_per_processor=2, think_jitter=16),
    ),
    "zipfian": (16, ZipfianTrafficSpec(operations_per_processor=20)),
}

NO_SOURCE = re.compile(r"Sequencer\d+\.workload")


@pytest.fixture
def selections(monkeypatch):
    """A fresh selection registry on the compiled backend."""
    monkeypatch.setattr(_core, "_handler_selections", {})
    with _core.use_backend("compiled"):
        yield _core.handler_selections


@pytest.mark.parametrize("shape", sorted(PERFBENCH_SHAPES))
def test_perfbench_shapes_select_every_entry(selections, shape):
    processors, spec = PERFBENCH_SHAPES[shape]
    for protocol in ProtocolName:
        config = microbenchmark_config(
            QUICK, protocol, 1600.0, num_processors=processors, seed=1
        )
        MultiprocessorSystem(config, spec(1)).run()
    chosen = selections()
    assert chosen[f"Sequencer{processors - 1}.step"] == "compiled"
    assert chosen[f"BashCacheController{processors - 1}.sample"] == "compiled"
    assert [name for name, status in chosen.items() if status != "compiled"] == []


@pytest.mark.parametrize(
    "name", sorted(name for name, s in SCENARIOS.items() if s.kind == "grid")
)
def test_grid_scenarios_select_every_entry(selections, name):
    SCENARIOS[name].run(scale=TINY)
    chosen = selections()
    assert chosen["Sequencer0.step"] == "compiled"
    declined = [
        key
        for key, status in chosen.items()
        if status != "compiled" and not NO_SOURCE.fullmatch(key)
    ]
    assert declined == []
