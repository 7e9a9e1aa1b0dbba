#!/usr/bin/env python3
"""Quickstart: simulate one machine under all three coherence protocols.

Builds a 16-processor system with 1600 MB/s endpoint links, runs the paper's
locking microbenchmark under Snooping, Directory and BASH, and prints the
throughput, miss latency, link utilization and broadcast fraction of each.

Running the figures fast
------------------------

Every figure is a named scenario in one registry, and every figure sweep is
a grid of independent simulations; :func:`run_scenario` accepts ``workers``
and ``cache_dir``, and ``axes``/``fixed`` overrides to narrow the grid::

    from repro.experiments import PAPER, QUICK, run_scenario

    # Fan the 21 sweep points across 8 job-store worker processes.
    curves = run_scenario("figure1", scale=QUICK, workers=8).data

    # Keep completed points in a job store: re-running a figure (or resuming
    # an interrupted PAPER-scale reproduction) skips everything already done.
    curves = run_scenario(
        "figure1", scale=PAPER, workers=8, cache_dir="~/.cache/repro-sweeps"
    ).data

``workers=0`` means "auto" ($REPRO_SWEEP_WORKERS, else the CPU count); the
default (``None``) stays serial.  Parallel and serial runs are guaranteed to
produce identical results point for point, because every point derives its
seeds from its own configuration (``scale.seeds``), never from worker
scheduling.  The unit id in the store hashes the full point configuration
(scale, protocol, bandwidth, workload, adaptive parameters, backend), so a
changed experiment never reuses stale results; each completed point is
committed in one SQLite transaction, so an interrupted run never leaves a
torn entry.

Points sharing a (protocol, processor count) run on one constructed system
that is ``reset()`` between points — with pooled hot objects and the cyclic
GC parked — instead of rebuilding nodes, dispatch tables and networks per
point.  A reset system is contractually identical to a fresh one
(bit-identical event traces); ``repro.experiments.runner.run_point`` builds
fresh systems if you want to verify that on your own configuration.

Running the figures without Python
----------------------------------

The same registry (which also holds several non-paper studies) drives the
command line; the ``repro`` package is executable::

    python -m repro list
    python -m repro run figure1 --scale quick
    python -m repro run figure10 --scale paper --workers 8 \\
        --cache-dir ~/.cache/repro-sweeps      # resumable PAPER campaign
    python -m repro run migratory --axis bandwidth=800,3200 --json out.json

Programmatically, a scenario is a grid of axes crossed into ``PointSpec``\\ s
and collected into a unified :class:`~repro.experiments.study.ResultFrame`::

    from repro.experiments import SCENARIOS

    frame = SCENARIOS["figure1"].grid("quick").run(workers=8)
    print(frame.speedup().filter(protocol="directory").column("speedup"))

See ``examples/workload_comparison.py`` for declaring and registering a
custom scenario of your own.
"""

from __future__ import annotations

from repro import (
    AdaptiveConfig,
    LockingMicrobenchmark,
    ProtocolName,
    SystemConfig,
    simulate,
)


def main() -> None:
    print("Bandwidth Adaptive Snooping reproduction - quickstart")
    print("16 processors, 1600 MB/s endpoint links, locking microbenchmark\n")
    header = (
        f"{'protocol':>10} {'acquires/us':>12} {'miss latency':>13} "
        f"{'link util':>10} {'broadcasts':>11} {'retries':>8}"
    )
    print(header)
    for protocol in (ProtocolName.SNOOPING, ProtocolName.DIRECTORY, ProtocolName.BASH):
        config = SystemConfig(
            num_processors=16,
            protocol=protocol,
            bandwidth_mb_per_second=1600,
            # A faster-reacting adaptive mechanism than the paper's default so
            # BASH reaches its operating point within this short run.
            adaptive=AdaptiveConfig(sampling_interval=128, policy_counter_bits=6),
            random_seed=42,
        )
        workload = LockingMicrobenchmark(num_locks=1024, acquires_per_processor=100)
        result = simulate(config, workload)
        print(
            f"{str(protocol):>10} {result.performance * 1000:>12.2f} "
            f"{result.mean_miss_latency:>10.0f} ns {result.mean_link_utilization:>10.2f} "
            f"{result.broadcast_fraction:>10.0%} {result.retries:>8}"
        )
    print(
        "\nSnooping broadcasts everything, Directory unicasts everything, and "
        "BASH mixes the two based on its local estimate of link utilization."
    )


if __name__ == "__main__":
    main()
