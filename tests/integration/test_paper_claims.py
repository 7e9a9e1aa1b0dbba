"""Qualitative claims of the evaluation, checked end-to-end on small systems.

These are the headline behaviours of Figures 1 and 5–12: Directory wins
when bandwidth is scarce, Snooping wins when bandwidth is plentiful, and BASH
tracks whichever is better (and is never far from the best static choice).
The figure-level claims run the paper's scenarios through the registry at
``CLAIM_SCALE``; the rest run single systems.  The systems here are smaller
and the runs shorter than the paper's, so the assertions are deliberately
qualitative.
"""

import pytest

from repro.common.config import AdaptiveConfig, ProtocolName, SystemConfig
from repro.experiments import ExperimentScale, crossover_summary, run_scenario
from repro.system.multiprocessor import MultiprocessorSystem, simulate
from repro.workloads.microbenchmark import LockingMicrobenchmark

FAST_ADAPTIVE = AdaptiveConfig(sampling_interval=128, policy_counter_bits=6)


def run(protocol, bandwidth, processors=16, acquires=60, think=0, seed=1,
        broadcast_cost_factor=1.0):
    config = SystemConfig(
        num_processors=processors,
        protocol=protocol,
        bandwidth_mb_per_second=bandwidth,
        adaptive=FAST_ADAPTIVE,
        broadcast_cost_factor=broadcast_cost_factor,
        random_seed=seed,
    )
    workload = LockingMicrobenchmark(
        num_locks=512, acquires_per_processor=acquires, think_cycles=think
    )
    return simulate(config, workload)


LOW_BANDWIDTH = 200.0
HIGH_BANDWIDTH = 25_600.0


class TestBandwidthExtremes:
    def test_directory_beats_snooping_at_low_bandwidth(self):
        # At 16 processors the static crossover sits below the bandwidths we
        # can afford to sweep in CI, so (exactly as the paper does in Figure
        # 11) we raise the relative cost of broadcasting to emulate a larger
        # system and probe the bandwidth-starved regime.
        directory = run(ProtocolName.DIRECTORY, LOW_BANDWIDTH, broadcast_cost_factor=4.0)
        snooping = run(ProtocolName.SNOOPING, LOW_BANDWIDTH, broadcast_cost_factor=4.0)
        assert directory.performance > snooping.performance

    def test_snooping_beats_directory_at_high_bandwidth(self):
        snooping = run(ProtocolName.SNOOPING, HIGH_BANDWIDTH)
        directory = run(ProtocolName.DIRECTORY, HIGH_BANDWIDTH)
        assert snooping.performance > directory.performance

    def test_bash_tracks_directory_at_low_bandwidth(self):
        bash = run(ProtocolName.BASH, LOW_BANDWIDTH, acquires=90, broadcast_cost_factor=4.0)
        directory = run(ProtocolName.DIRECTORY, LOW_BANDWIDTH, acquires=90, broadcast_cost_factor=4.0)
        snooping = run(ProtocolName.SNOOPING, LOW_BANDWIDTH, acquires=90, broadcast_cost_factor=4.0)
        assert bash.performance > snooping.performance
        # Within ~25% of Directory (the paper reports within ~10% with much
        # longer runs for the adaptation to settle).
        assert bash.performance > 0.75 * directory.performance

    def test_bash_tracks_snooping_at_high_bandwidth(self):
        bash = run(ProtocolName.BASH, HIGH_BANDWIDTH)
        snooping = run(ProtocolName.SNOOPING, HIGH_BANDWIDTH)
        assert bash.performance > 0.9 * snooping.performance

    def test_bash_mostly_unicasts_when_bandwidth_is_scarce(self):
        bash = run(ProtocolName.BASH, LOW_BANDWIDTH, acquires=90, broadcast_cost_factor=4.0)
        assert bash.broadcast_fraction < 0.5

    def test_bash_mostly_broadcasts_when_bandwidth_is_plentiful(self):
        bash = run(ProtocolName.BASH, HIGH_BANDWIDTH)
        assert bash.broadcast_fraction > 0.8


class TestUtilizationClaims:
    def test_snooping_saturates_its_links_at_low_bandwidth(self):
        snooping = run(ProtocolName.SNOOPING, LOW_BANDWIDTH, broadcast_cost_factor=4.0)
        assert snooping.mean_link_utilization > 0.85

    def test_directory_underutilizes_plentiful_bandwidth(self):
        directory = run(ProtocolName.DIRECTORY, HIGH_BANDWIDTH)
        assert directory.mean_link_utilization < 0.3

    def test_snooping_uses_more_bandwidth_than_directory_everywhere(self):
        for bandwidth in (LOW_BANDWIDTH, 1600.0, HIGH_BANDWIDTH):
            snooping = run(ProtocolName.SNOOPING, bandwidth, acquires=40)
            directory = run(ProtocolName.DIRECTORY, bandwidth, acquires=40)
            assert snooping.mean_link_utilization > directory.mean_link_utilization


class TestLatencyAndIntensityClaims:
    def test_miss_latency_grows_when_bandwidth_shrinks(self):
        for protocol in (ProtocolName.SNOOPING, ProtocolName.DIRECTORY, ProtocolName.BASH):
            scarce = run(protocol, LOW_BANDWIDTH, acquires=40)
            plentiful = run(protocol, HIGH_BANDWIDTH, acquires=40)
            assert scarce.mean_miss_latency > plentiful.mean_miss_latency

    def test_think_time_relieves_snooping_congestion(self):
        # Figure 9: decreasing workload intensity (more think time) shrinks the
        # average miss latency of the bandwidth-hungry protocol.
        busy = run(ProtocolName.SNOOPING, 800.0, acquires=40, think=0)
        relaxed = run(ProtocolName.SNOOPING, 800.0, acquires=40, think=800)
        assert relaxed.mean_miss_latency < busy.mean_miss_latency

    def test_broadcast_cost_factor_hurts_snooping_more_than_directory(self):
        snooping_1x = run(ProtocolName.SNOOPING, 1600.0, acquires=40)
        snooping_4x = run(ProtocolName.SNOOPING, 1600.0, acquires=40, broadcast_cost_factor=4.0)
        directory_1x = run(ProtocolName.DIRECTORY, 1600.0, acquires=40)
        directory_4x = run(ProtocolName.DIRECTORY, 1600.0, acquires=40, broadcast_cost_factor=4.0)
        snooping_loss = snooping_4x.performance / snooping_1x.performance
        directory_loss = directory_4x.performance / directory_1x.performance
        assert snooping_loss < directory_loss


class TestScalingClaims:
    def test_directory_scales_better_than_snooping(self):
        # Figure 8: with fixed per-processor bandwidth, Snooping's per-processor
        # performance degrades faster than Directory's as the system grows.
        # The 4x broadcast cost stands in for the larger systems the paper
        # sweeps (its Figure 8 goes to 256 processors).
        small_snoop = run(ProtocolName.SNOOPING, 1600.0, processors=4, acquires=40,
                          broadcast_cost_factor=4.0)
        big_snoop = run(ProtocolName.SNOOPING, 1600.0, processors=32, acquires=40,
                        broadcast_cost_factor=4.0)
        small_dir = run(ProtocolName.DIRECTORY, 1600.0, processors=4, acquires=40,
                        broadcast_cost_factor=4.0)
        big_dir = run(ProtocolName.DIRECTORY, 1600.0, processors=32, acquires=40,
                      broadcast_cost_factor=4.0)
        snoop_scaling = (big_snoop.performance / 32) / (small_snoop.performance / 4)
        dir_scaling = (big_dir.performance / 32) / (small_dir.performance / 4)
        assert dir_scaling > snoop_scaling
        assert snoop_scaling < 0.75  # snooping visibly degrades
        assert dir_scaling > 0.7     # directory stays nearly flat


#: The reduced scale of the figure-level claims: 16 processors (8 for the
#: commercial workloads), 50 acquires over 512 locks, a four-point grid.
CLAIM_SCALE = ExperimentScale(
    name="claims",
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

SNOOPING, DIRECTORY, BASH = (
    ProtocolName.SNOOPING, ProtocolName.DIRECTORY, ProtocolName.BASH,
)


def assert_bash_near_best_static(curves):
    for b, s, d in zip(curves[BASH], curves[SNOOPING], curves[DIRECTORY]):
        assert b.performance > 0.6 * max(s.performance, d.performance)


class TestFigureClaims:
    def test_figure1_bash_near_best_static_and_protocols_trade_places(self):
        curves = run_scenario("figure1", scale=CLAIM_SCALE).data
        # BASH is never catastrophically worse than the best static protocol.
        assert crossover_summary(curves)["bash_worst_ratio_vs_best_static"] > 0.6
        # Snooping gains on Directory as bandwidth grows.
        snooping, directory = curves[SNOOPING], curves[DIRECTORY]
        first_ratio = snooping[0].performance / directory[0].performance
        last_ratio = snooping[-1].performance / directory[-1].performance
        assert last_ratio > first_ratio

    def test_figure6_snooping_overuses_and_directory_underuses_links(self):
        utilization = run_scenario(
            "figure6", scale=CLAIM_SCALE, axes={"bandwidth": (200, 3200)}
        ).data
        snooping, directory = utilization[SNOOPING], utilization[DIRECTORY]
        assert snooping[0]["utilization"] > 0.75
        assert directory[-1]["utilization"] < 0.4
        assert all(s["utilization"] > d["utilization"] for s, d in zip(snooping, directory))

    def test_figure7_bash_is_insensitive_to_the_threshold(self):
        sweeps = run_scenario(
            "figure7", scale=CLAIM_SCALE, axes={"bandwidth": (400, 3200)}
        ).data
        assert list(sweeps) == [0.55, 0.75, 0.95]
        for index in range(2):
            values = [points[index].performance for points in sweeps.values()]
            assert max(values) < 1.6 * min(values)

    def test_figure8_scaling_and_bash_per_processor(self):
        curves = run_scenario(
            "figure8", scale=CLAIM_SCALE, axes={"num_processors": (4, 16)}
        ).data
        directory, snooping, bash = curves[DIRECTORY], curves[SNOOPING], curves[BASH]

        def scaling(points):
            return points[-1].performance_per_processor / points[0].performance_per_processor

        # At 4 -> 16 processors and 1600 MB/s per processor neither protocol
        # is bandwidth-starved yet, so both scale sensibly (the separation at
        # larger sizes is TestScalingClaims' 4x-broadcast-cost proxy).
        assert scaling(directory) >= 0.6 * scaling(snooping)
        assert scaling(directory) > 0.6 and scaling(snooping) > 0.6
        for index in range(2):
            best = max(
                snooping[index].performance_per_processor,
                directory[index].performance_per_processor,
            )
            assert bash[index].performance_per_processor > 0.6 * best

    def test_figure9_snooping_latency_falls_with_think_time(self):
        curves = run_scenario(
            "figure9",
            scale=CLAIM_SCALE,
            axes={"think_time": (0, 800)},
            fixed={"bandwidth": 800.0},
        ).data
        snooping = curves[SNOOPING]
        assert snooping[-1].mean_miss_latency < snooping[0].mean_miss_latency

    def test_figure10_bash_near_best_static(self):
        sweeps = run_scenario(
            "figure10", scale=CLAIM_SCALE, axes={"workload": ("oltp", "specjbb")}
        ).data
        assert list(sweeps) == ["oltp", "specjbb"]
        for curves in sweeps.values():
            assert_bash_near_best_static(curves)

    def test_figure11_bash_near_best_static_at_4x_broadcast_cost(self):
        sweeps = run_scenario(
            "figure11", scale=CLAIM_SCALE, axes={"workload": ("microbenchmark", "oltp")}
        ).data
        assert list(sweeps) == ["microbenchmark", "oltp"]
        for curves in sweeps.values():
            assert_bash_near_best_static(curves)

    def test_figure12_best_static_within_bash_bound(self):
        bars = run_scenario(
            "figure12", scale=CLAIM_SCALE, axes={"workload": ("oltp", "specjbb")}
        ).data
        assert list(bars) == ["oltp", "specjbb"]
        for row in bars.values():
            assert row[str(BASH)] == 1.0
            # BASH matches or exceeds the best static protocol within tolerance.
            assert max(row[str(SNOOPING)], row[str(DIRECTORY)]) < 1.35


class TestAdaptivityAblation:
    """What the adaptive decision buys BASH over a pinned one.

    BASH's decision is pinned to always-broadcast and to always-unicast and
    compared with the adaptive policy at 16 processors with the 4x
    broadcast-cost proxy, where neither static choice is right everywhere.
    """

    BANDWIDTHS = (400.0, 1600.0, 6400.0)

    @staticmethod
    def _performance(policy, bandwidth):
        config = SystemConfig(
            num_processors=16,
            protocol=BASH,
            bandwidth_mb_per_second=bandwidth,
            broadcast_cost_factor=4.0,
            adaptive=FAST_ADAPTIVE,
            random_seed=1,
        )
        workload = LockingMicrobenchmark(num_locks=512, acquires_per_processor=60)
        system = MultiprocessorSystem(config, workload)
        if policy is not None:
            for node in system.nodes:
                node.cache_controller.adaptive.should_broadcast = lambda: policy
        return system.run().performance

    def test_adaptive_policy_stays_near_the_better_pinned_policy(self):
        adaptive, broadcast, unicast = (
            {bw: self._performance(policy, bw) for bw in self.BANDWIDTHS}
            for policy in (None, True, False)
        )
        # The adaptive policy stays within a modest factor of the better
        # pinned policy at every point.
        for bandwidth in self.BANDWIDTHS:
            assert adaptive[bandwidth] > 0.6 * max(broadcast[bandwidth], unicast[bandwidth])
        # And the two pinned policies really do trade places across the sweep.
        low, high = self.BANDWIDTHS[0], self.BANDWIDTHS[-1]
        assert unicast[low] > broadcast[low]
        assert broadcast[high] >= 0.95 * unicast[high]
