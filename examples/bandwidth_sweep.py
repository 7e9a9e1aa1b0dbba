#!/usr/bin/env python3
"""Figure 1 / 5 / 6 style bandwidth sweep for the locking microbenchmark.

Sweeps the endpoint link bandwidth, runs all three protocols at each point and
prints performance (absolute and normalised to BASH) plus endpoint link
utilization — the data behind Figures 1, 5 and 6 of the paper.  Figures 5 and
6 present the same grid as Figure 1, so the sweep runs once and their
scenarios' presenters derive them from Figure 1's result frame.

Usage::

    python examples/bandwidth_sweep.py            # quick sweep (16 processors)
    python examples/bandwidth_sweep.py --paper    # paper-scale sweep (64 processors; slow)
"""

from __future__ import annotations

import argparse

from repro.common.config import ProtocolName
from repro.experiments import (
    PAPER,
    QUICK,
    SCENARIOS,
    crossover_summary,
    format_curves,
    format_normalized,
    run_scenario,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--paper",
        action="store_true",
        help="use the paper-scale configuration (64 processors, long runs)",
    )
    args = parser.parse_args()
    scale = PAPER if args.paper else QUICK

    print(f"Running the {scale.name} bandwidth sweep "
          f"({scale.microbenchmark_processors} processors)...\n")
    figure1 = run_scenario("figure1", scale=scale)
    curves = figure1.data
    xs = [point.x for point in curves[ProtocolName.BASH]]

    print(format_curves("Figure 1: performance vs available bandwidth (MB/s)", curves))
    print()
    print(
        format_normalized(
            "Figure 5: performance normalised to BASH",
            SCENARIOS["figure5"].present(figure1.frame, scale),
            xs,
        )
    )
    print()
    print("Figure 6: endpoint link utilization")
    utilization = SCENARIOS["figure6"].present(figure1.frame, scale)
    for protocol, points in utilization.items():
        row = "  ".join(f"{p['bandwidth']:>6.0f}:{p['utilization']:.2f}" for p in points)
        print(f"  {str(protocol):>10} {row}")
    print()
    summary = crossover_summary(curves)
    print("Summary:")
    print(f"  Snooping first matches Directory at "
          f"{summary['snooping_beats_directory_at']:.0f} MB/s")
    print(f"  BASH worst case vs best static protocol: "
          f"{summary['bash_worst_ratio_vs_best_static']:.2f}x")
    print(f"  BASH best gain over best static protocol: "
          f"{summary['bash_best_gain_over_best_static']:+.1%}")


if __name__ == "__main__":
    main()
