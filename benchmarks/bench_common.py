"""Shared scale configuration for the figure-regeneration benchmarks.

Each benchmark module regenerates the data behind one figure or table of the
paper at a reduced scale (fewer processors, shorter runs, fewer sweep points)
so that ``pytest benchmarks/ --benchmark-only`` completes in minutes.  The
same drivers accept ``repro.experiments.PAPER`` for full-scale offline runs.

Benchmarks print the regenerated rows/series (the same quantities the paper
plots), so the harness output doubles as the reproduction record.
"""

from __future__ import annotations

import os

from repro.experiments.parallel import available_workers
from repro.experiments.runner import ExperimentScale

#: Worker-pool size for the sweep-based benchmarks: honours
#: $REPRO_SWEEP_WORKERS, defaults to the machine's CPU count, and collapses
#: to serial (None) on single-core boxes where a pool only adds overhead.
BENCH_WORKERS = available_workers() if available_workers() > 1 else None

#: Optional on-disk sweep cache shared by the benchmark drivers; set
#: $REPRO_SWEEP_CACHE to a directory to let repeated figure runs skip
#: completed points.
BENCH_CACHE_DIR = os.environ.get("REPRO_SWEEP_CACHE") or None

#: Reduced scale used by the automated benchmark harness.
BENCH_SCALE = ExperimentScale(
    name="bench",
    microbenchmark_processors=16,
    workload_processors=8,
    acquires_per_processor=50,
    operations_per_processor=50,
    num_locks=512,
    bandwidth_points=(200, 800, 3200, 12800),
    workload_bandwidth_points=(800, 3200),
    processor_counts=(4, 8, 16),
    think_times=(0, 400, 800),
    sampling_interval=128,
    policy_counter_bits=6,
    seeds=(1,),
)
