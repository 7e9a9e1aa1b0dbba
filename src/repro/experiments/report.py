"""Plain-text rendering of experiment results in the style of the paper."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence

from ..common.config import ProtocolName
from .runner import SweepPoint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .study import ResultFrame

Curves = Dict[ProtocolName, List[SweepPoint]]


def format_curves(
    title: str,
    curves: Curves,
    x_label: str = "bandwidth (MB/s)",
    value: str = "performance",
) -> str:
    """Render one figure's curves as an aligned text table.

    Every curve must have been measured on the same x grid: the rows are
    indexed by the first curve's x values, so a mismatched grid would
    silently pair unrelated points, so mismatches raise a clear error
    instead.
    """
    protocols = list(curves)
    lines = [title]
    header = f"{x_label:>20}" + "".join(f"{str(p):>14}" for p in protocols)
    lines.append(header)
    xs = [point.x for point in curves[protocols[0]]]
    for protocol in protocols[1:]:
        other_xs = [point.x for point in curves[protocol]]
        if other_xs != xs:
            raise ValueError(
                f"mismatched sweep grids: {protocols[0]} was measured at "
                f"{xs} but {protocol} at {other_xs}; rows would misalign "
                "(re-run the sweeps on a common grid, or render them "
                "separately)"
            )
    for index, x in enumerate(xs):
        row = f"{x:>20.0f}"
        for protocol in protocols:
            point = curves[protocol][index]
            row += f"{getattr(point, value):>14.5f}"
        lines.append(row)
    return "\n".join(lines)


def format_frame(
    title: str,
    frame: "ResultFrame",
    curve_axis: str = "protocol",
    x_label: str = "x",
    value: str = "performance",
) -> str:
    """Render a :class:`~repro.experiments.study.ResultFrame` generically.

    Pivots the frame into one table per combination of the remaining axes:
    rows are the x grid, columns the ``curve_axis`` values, cells the chosen
    metric.  This is what ``python -m repro run`` prints for any grid
    scenario, so new scenarios get readable output for free.
    """
    lines = [title]
    # Aggregated frames drop the per-point metrics, so fall back to the
    # first non-curve axis as the row coordinate when "x" is absent.
    x_column = "x"
    if x_column not in frame.columns:
        candidates = [name for name in frame.axis_names if name != curve_axis]
        x_column = candidates[0] if candidates else curve_axis
    section_axes = [
        name
        for name in frame.axis_names
        if name != curve_axis and name != x_column
        and len(frame.unique(name)) > 1
        and frame.columns.get(name) != frame.columns.get(x_column)
    ]
    sections = [frame]
    labels = [""]
    for axis in section_axes:
        expanded, expanded_labels = [], []
        for section, label in zip(sections, labels):
            for axis_value in section.unique(axis):
                expanded.append(section.filter(**{axis: axis_value}))
                expanded_labels.append(
                    f"{label}, {axis}={axis_value}" if label else f"{axis}={axis_value}"
                )
        sections, labels = expanded, expanded_labels
    for section, label in zip(sections, labels):
        if label:
            lines.append("")
            lines.append(f"-- {label}")
        keys = section.unique(curve_axis)
        lines.append(
            f"{x_label:>20}" + "".join(f"{str(k):>14}" for k in keys)
        )
        xs = section.unique(x_column)
        for x in xs:
            # Custom scenarios may sweep a non-numeric x axis (workload
            # names, trace files); render those verbatim.
            row = f"{x:>20.0f}" if isinstance(x, (int, float)) else f"{str(x):>20}"
            for key in keys:
                cell = section.filter(**{curve_axis: key, x_column: x})
                metric = cell.column(value)
                row += f"{metric[0]:>14.5f}" if metric else f"{'-':>14}"
            lines.append(row)
    return "\n".join(lines)


def format_normalized(
    title: str,
    normalised: Dict[ProtocolName, List[float]],
    xs: Sequence[float],
    x_label: str = "bandwidth (MB/s)",
) -> str:
    """Render normalised curves (Figure 5 style)."""
    protocols = list(normalised)
    lines = [title]
    lines.append(f"{x_label:>20}" + "".join(f"{str(p):>14}" for p in protocols))
    for index, x in enumerate(xs):
        row = f"{x:>20.0f}"
        for protocol in protocols:
            row += f"{normalised[protocol][index]:>14.3f}"
        lines.append(row)
    return "\n".join(lines)


def format_bars(title: str, bars: Dict[str, Dict[str, float]]) -> str:
    """Render the Figure 12 bar data as a table."""
    lines = [title]
    protocols = sorted({p for row in bars.values() for p in row})
    lines.append(f"{'workload':>16}" + "".join(f"{p:>12}" for p in protocols))
    for workload, row in bars.items():
        line = f"{workload:>16}"
        for protocol in protocols:
            line += f"{row.get(protocol, 0.0):>12.3f}"
        lines.append(line)
    return "\n".join(lines)


def crossover_summary(curves: Curves) -> Dict[str, float]:
    """Summarise who wins where in a bandwidth sweep.

    Reports the crossover — the first bandwidth at which Snooping matches
    Directory after Directory led at some lower one, or -1.0 when the grid
    holds no such point (one protocol leads throughout) — and how BASH
    compares with the best static protocol at every point (the paper's
    headline claim is that BASH is never much worse and wins in the middle).
    """
    snooping = curves[ProtocolName.SNOOPING]
    directory = curves[ProtocolName.DIRECTORY]
    bash = curves[ProtocolName.BASH]
    crossover = -1.0
    directory_led = False
    for s_point, d_point in zip(snooping, directory):
        if s_point.performance < d_point.performance:
            directory_led = True
        elif directory_led:
            crossover = s_point.x
            break
    worst_ratio = 1.0
    best_gain = 0.0
    for s_point, d_point, b_point in zip(snooping, directory, bash):
        best_static = max(s_point.performance, d_point.performance)
        if best_static > 0:
            ratio = b_point.performance / best_static
            worst_ratio = min(worst_ratio, ratio)
            best_gain = max(best_gain, ratio - 1.0)
    return {
        "snooping_beats_directory_at": crossover,
        "bash_worst_ratio_vs_best_static": worst_ratio,
        "bash_best_gain_over_best_static": best_gain,
    }
