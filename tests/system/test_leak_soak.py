"""Leak soaks: many runs, flat memory, on both backends.

Every sweep point and verification task runs on a pooled system that is
``reset()`` between runs.  A reference leaked per run — or per message, as a
refcount slip in the compiled handlers or issue chain would be — shows up as
allocated blocks that grow with the run count.  After a warm-up (systems
built, memo tables and free lists filled) the interpreter's block count must
stay flat.  The second soak builds, runs and drops a whole system per cycle,
so a slip in constructing or freeing the compiled objects (each holds class
references and slot offsets) leaks once per build.

The run count scales with the hypothesis profile: 360 reset-path runs and 180
build cycles per backend in tier-1, ten times that under
``--hypothesis-profile=deep``.
"""

from __future__ import annotations

import dataclasses
import gc
import sys

from hypothesis import settings

from repro.common.config import ProtocolName
from repro.experiments.batch import BatchRunner
from repro.experiments.parallel import PointSpec
from repro.experiments.runner import (
    QUICK,
    microbenchmark_config,
    microbenchmark_factory,
)
from repro.sim import arena as arena_module
from repro.system.multiprocessor import MultiprocessorSystem

SOAK = dataclasses.replace(
    QUICK,
    name="soak",
    microbenchmark_processors=4,
    acquires_per_processor=4,
    num_locks=16,
    seeds=(1, 2),
)

#: Low, middle and high bandwidth: BASH broadcasts, adapts, and unicasts.
BANDWIDTHS = (200.0, 1600.0, 12800.0)

#: Allowed block growth per run.  A clean reset path measures ~0.01; one
#: leaked object per message would be hundreds.
BLOCKS_PER_RUN = 0.5


def _specs():
    workload = microbenchmark_factory(SOAK)
    return [
        PointSpec(scale=SOAK, protocol=protocol, bandwidth=bandwidth, workload=workload)
        for protocol in ProtocolName
        for bandwidth in BANDWIDTHS
    ]


def test_reset_path_allocations_stay_flat(backend):
    specs = _specs()
    runner = BatchRunner()
    for _ in range(2):  # warm-up
        for spec in specs:
            runner.run_spec(spec)
    rounds = max(1, settings().max_examples // 5)
    gc.collect()
    before = sys.getallocatedblocks()
    for _ in range(rounds):
        for spec in specs:
            runner.run_spec(spec)
    gc.collect()
    growth = sys.getallocatedblocks() - before
    runs = rounds * len(specs) * len(SOAK.seeds)
    assert growth < BLOCKS_PER_RUN * runs, (
        f"{growth} blocks allocated and kept over {runs} {backend} runs"
    )
    assert runner.arena.pooled_messages <= arena_module._MAX_POOLED_MESSAGES
    assert runner.arena.pooled_transactions <= arena_module._MAX_POOLED_TRANSACTIONS


def _build_run_drop(protocol: ProtocolName, bandwidth: float) -> None:
    config = microbenchmark_config(SOAK, protocol, bandwidth)
    workload = microbenchmark_factory(SOAK)(config.random_seed)
    MultiprocessorSystem(config, workload).run()


def test_build_and_teardown_allocations_stay_flat(backend):
    shapes = [
        (protocol, bandwidth) for protocol in ProtocolName for bandwidth in BANDWIDTHS
    ]
    for shape in shapes:  # warm-up
        _build_run_drop(*shape)
    rounds = max(1, settings().max_examples // 5)
    gc.collect()
    before = sys.getallocatedblocks()
    for _ in range(rounds):
        for shape in shapes:
            _build_run_drop(*shape)
    gc.collect()
    growth = sys.getallocatedblocks() - before
    builds = rounds * len(shapes)
    assert growth < BLOCKS_PER_RUN * builds, (
        f"{growth} blocks allocated and kept over {builds} {backend} builds"
    )
