"""Experiment harness: runners, the paper scenarios, and report formatting."""

import pytest

from repro.common.config import ProtocolName
from repro.experiments import (
    PROTOCOLS,
    QUICK,
    SCENARIOS,
    ResultFrame,
    StudyError,
    crossover_summary,
    format_bars,
    format_curves,
    format_normalized,
    run_scenario,
)
from repro.experiments.runner import microbenchmark_factory, run_point

from .conftest import TINY

SNOOPING, BASH = ProtocolName.SNOOPING, ProtocolName.BASH


class TestRunner:
    def test_run_point_returns_all_metrics(self):
        point = run_point(TINY, ProtocolName.SNOOPING, 1600, microbenchmark_factory(TINY))
        assert point.performance > 0
        assert point.mean_miss_latency > 0
        assert 0 <= point.link_utilization <= 1
        assert point.results

    def test_figure1_covers_all_protocols_and_points(self):
        curves = run_scenario("figure1", scale=TINY).data
        assert set(curves) == set(PROTOCOLS)
        for points in curves.values():
            assert [p.x for p in points] == list(TINY.bandwidth_points)

    def test_figure5_reference_is_one(self):
        normalised = run_scenario("figure5", scale=TINY, axes={"bandwidth": (1600,)}).data
        assert normalised[BASH] == [pytest.approx(1.0)]

    def test_normalized_handles_mismatched_sweep_grids(self):
        # The snooping curve has an x-point the reference (BASH) curve lacks:
        # that point must normalise to 0.0, not raise.
        full = SCENARIOS["figure1"].grid(
            TINY, axes={"protocol": (SNOOPING, BASH), "bandwidth": (1600, 3200)}
        ).run()
        coords = [
            {"protocol": SNOOPING, "bandwidth": 1600.0},
            {"protocol": SNOOPING, "bandwidth": 3200.0},
            {"protocol": BASH, "bandwidth": 1600.0},
        ]
        points = [full.filter(**row).points[0] for row in coords]
        frame = ResultFrame.from_grid(("protocol", "bandwidth"), coords, points)
        normalised = frame.normalized(name="norm").curves(value="norm")
        assert normalised[BASH] == [pytest.approx(1.0)]
        assert normalised[SNOOPING][0] > 0
        assert normalised[SNOOPING][1] == 0.0

    def test_figure5_missing_reference_curve_raises(self):
        with pytest.raises(StudyError, match="could not present"):
            run_scenario(
                "figure5", scale=TINY, axes={"protocol": (SNOOPING,), "bandwidth": (1600,)}
            )

    def test_quick_scale_has_paper_thresholds(self):
        adaptive = QUICK.adaptive_config(0.75)
        assert adaptive.utilization_threshold == 0.75


class TestAnalyticFigures:
    def test_figure2(self):
        points = run_scenario("figure2").data
        assert len(points) > 5
        assert points[-1]["queueing_delay"] > points[0]["queueing_delay"]

    def test_figure3_matches_paper_example(self):
        data = run_scenario("figure3").data
        assert data["counter_values"][-1] == -5
        assert len(data["counter_values"]) == 7

    def test_figure4_latencies(self):
        walkthrough = run_scenario("figure4").data
        snoop_c2c = walkthrough["snooping:cache-to-cache"]["requester_miss_latency"]
        dir_c2c = walkthrough["directory:cache-to-cache"]["requester_miss_latency"]
        mem = walkthrough["snooping:memory-to-cache"]["requester_miss_latency"]
        assert snoop_c2c == pytest.approx(125, abs=10)
        assert dir_c2c == pytest.approx(255, abs=12)
        assert mem == pytest.approx(180, abs=10)

    def test_table1_contains_both_sources(self):
        table = run_scenario("table1").data
        assert set(table) == {"reproduction", "paper"}
        assert table["paper"]["BASH"]["total_transitions"] == 114


class TestSweepFigures:
    def test_figure5_and_6_from_one_figure1_run(self):
        result = run_scenario("figure1", scale=TINY, axes={"bandwidth": (800, 6400)})
        normalised = SCENARIOS["figure5"].present(result.frame, TINY)
        assert all(len(vals) == 2 for vals in normalised.values())
        utilization = SCENARIOS["figure6"].present(result.frame, TINY)
        snooping_util = [p["utilization"] for p in utilization[ProtocolName.SNOOPING]]
        directory_util = [p["utilization"] for p in utilization[ProtocolName.DIRECTORY]]
        # Snooping always uses more of the endpoint links than Directory.
        assert all(s > d for s, d in zip(snooping_util, directory_util))
        summary = crossover_summary(result.data)
        assert "bash_worst_ratio_vs_best_static" in summary

    def test_figure12_bars_normalised_to_bash(self):
        bars = run_scenario(
            "figure12", scale=TINY, axes={"workload": ("specjbb",)}, fixed={"bandwidth": 1600}
        ).data
        assert set(bars) == {"specjbb"}
        assert bars["specjbb"][str(ProtocolName.BASH)] == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "name, axis, empty",
        [
            ("figure5", "bandwidth", {protocol: [] for protocol in PROTOCOLS}),
            ("figure6", "bandwidth", {protocol: [] for protocol in PROTOCOLS}),
            ("figure10", "workload", {}),
            ("figure12", "workload", {}),
        ],
    )
    def test_empty_axis_override_keeps_the_published_shape(self, name, axis, empty):
        assert run_scenario(name, scale=TINY, axes={axis: ()}).data == empty


class TestReportFormatting:
    def test_format_curves_and_normalized(self):
        curves = run_scenario("figure1", scale=TINY, axes={"bandwidth": (1600,)}).data
        text = format_curves("Figure 1", curves)
        assert "Figure 1" in text and "snooping" in text
        normalised = run_scenario("figure5", scale=TINY, axes={"bandwidth": (1600,)}).data
        text2 = format_normalized("Figure 5", normalised, xs=(1600,))
        assert "1600" in text2

    def test_format_bars(self):
        text = format_bars("Figure 12", {"oltp": {"bash": 1.0, "snooping": 0.9}})
        assert "oltp" in text

    def test_format_curves_guards_mismatched_grids(self):
        # Curves measured on different x grids must raise a clear error
        # instead of silently misaligning rows against the first protocol's
        # x values.
        curves = run_scenario(
            "figure1", scale=TINY, axes={"protocol": (SNOOPING, BASH), "bandwidth": (1600,)}
        ).data
        extra = run_scenario(
            "figure1", scale=TINY, axes={"protocol": (SNOOPING,), "bandwidth": (3200,)}
        ).data
        curves[SNOOPING].extend(extra[SNOOPING])
        with pytest.raises(ValueError, match="mismatched sweep grids"):
            format_curves("Figure 1", curves)
