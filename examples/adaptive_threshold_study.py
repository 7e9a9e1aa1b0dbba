#!/usr/bin/env python3
"""Figure 3 / 7 style study of the bandwidth adaptive mechanism itself.

Part 1 replays the paper's Figure 3 utilization-counter example and then shows
the policy counter converging under sustained high and low utilization.
Part 2 sweeps the utilization threshold (55% / 75% / 95%) across two bandwidth
points, reproducing the insensitivity result of Figure 7.
"""

from __future__ import annotations

from repro.common.config import AdaptiveConfig
from repro.experiments import QUICK, run_scenario
from repro.protocols.bash.adaptive import (
    BandwidthAdaptiveMechanism,
    utilization_counter_trace,
)


def counter_walkthrough() -> None:
    print("Figure 3: utilization counter walk-through (75% target)")
    pattern = [False, True, True, False, True, False, True]
    values = utilization_counter_trace(pattern)
    for busy, value in zip(pattern, values):
        print(f"  cycle {'busy' if busy else 'idle'}  -> counter {value:+d}")
    print(f"  final value {values[-1]:+d} (the paper's example ends at -5)\n")


def policy_convergence() -> None:
    print("Policy counter convergence (8-bit counter, 512-cycle intervals)")
    mechanism = BandwidthAdaptiveMechanism(AdaptiveConfig())
    for label, utilization, intervals in (
        ("sustained 95% utilization", 0.95, 300),
        ("sustained 10% utilization", 0.10, 300),
    ):
        for _ in range(intervals):
            mechanism.observe_interval(utilization)
        print(
            f"  after {intervals} intervals of {label}: "
            f"unicast probability {mechanism.unicast_probability:.2f}"
        )
    print()


def threshold_sweep() -> None:
    print("Figure 7: sensitivity to the utilization threshold")
    sweeps = run_scenario(
        "figure7",
        scale=QUICK,
        axes={"threshold": (0.55, 0.75, 0.95), "bandwidth": (400, 3200)},
    ).data
    print(f"{'threshold':>10} {'400 MB/s':>12} {'3200 MB/s':>12}")
    for threshold, points in sweeps.items():
        row = "".join(f"{p.performance:>12.4f}" for p in points)
        print(f"{threshold:>10.0%}{row}")
    print("\nAs in the paper, BASH's performance is not overly sensitive to the "
          "exact threshold value.")


def main() -> None:
    counter_walkthrough()
    policy_convergence()
    threshold_sweep()


if __name__ == "__main__":
    main()
