"""Campaign artifacts: CSV tables, ASCII charts, SVG figures, report.md.

Everything written here is a pure function of the campaign spec and its
(deterministic) results — no timestamps, no wall times, no machine state —
so a resumed or re-sharded campaign regenerates byte-identical artifacts,
and CI can diff two runs to prove the cache is sound.

The SVG renderer is hand-rolled (the repo deliberately has no plotting
dependency); when matplotlib happens to be importable a PNG is written
too, but nothing depends on it.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Sequence

from repro.analysis.stats import percentile, summarize
from repro.analysis.tables import render_table
from repro.campaigns.checks import Point, PointsBySweep, bound_value, y_value
from repro.campaigns.executor import CheckOutcome
from repro.campaigns.spec import CampaignSpec, FigureSpec
from repro.errors import ExperimentError
from repro.experiments.runner import encode_float
from repro.experiments.sweep import path_value


def _fmt(value: float) -> str:
    """Deterministic, compact number text for CSV/SVG output."""
    return repr(round(float(value), 9))


@dataclass(frozen=True)
class SeriesData:
    """One aggregated curve: (x, stats) rows in ascending x order."""

    label: str
    agg: str
    rows: tuple[tuple[float, dict[str, float]], ...]

    def points(self) -> list[tuple[float, float]]:
        """The (x, aggregated y) polyline."""
        return [(x, stats[self.agg]) for x, stats in self.rows]


def _aggregate(values: list[float]) -> dict[str, float]:
    summary = summarize(values)
    return {
        "median": percentile(values, 50.0),
        "mean": summary.mean,
        "min": summary.minimum,
        "max": summary.maximum,
        "count": float(summary.count),
    }


def series_data(figure: FigureSpec, points_by_sweep: PointsBySweep) -> list[SeriesData]:
    """Aggregate every series of a figure from the executed points.

    Scalar series (``completion_time``, ``metric:<key>``, ...) bucket one
    y value per point by the figure's spec-path x.  ``series:<name>``
    series pool the named per-run curve of every matching point instead:
    the curve's own x values (e.g. window index) are the buckets, and the
    figure's ``x`` is only a label.
    """
    out = []
    for series in figure.series:
        matching: list[Point] = []
        for name, points in points_by_sweep.items():
            if series.sweep == name or _glob(series.sweep, name):
                matching.extend(points)
        if not matching:
            raise ExperimentError(
                f"figure {figure.name!r}: series {series.label!r} matched "
                f"no executed points (sweep {series.sweep!r})"
            )
        buckets: dict[float, list[float]] = {}
        if series.y.startswith("series:"):
            key = series.y[len("series:") :]
            for point in matching:
                curve = point.result.series.get(key)
                if curve is None:
                    raise ExperimentError(
                        f"figure {figure.name!r}: point "
                        f"{point.spec.name!r} recorded no result series "
                        f"{key!r}; recorded: "
                        f"{', '.join(sorted(point.result.series)) or 'none'}"
                    )
                for x, y in curve:
                    buckets.setdefault(float(x), []).append(float(y))
            if not buckets:
                raise ExperimentError(
                    f"figure {figure.name!r}: result series {key!r} is "
                    f"empty on every matching point"
                )
        else:
            for point in matching:
                x = float(path_value(point.spec, figure.x))
                buckets.setdefault(x, []).append(y_value(point, series.y))
        rows = tuple(
            (x, _aggregate(values)) for x, values in sorted(buckets.items())
        )
        out.append(SeriesData(series.label, series.agg, rows))
    return out


def _glob(pattern: str, name: str) -> bool:
    from fnmatch import fnmatchcase

    return fnmatchcase(name, pattern)


def bound_overlay(
    figure: FigureSpec, points_by_sweep: PointsBySweep
) -> list[tuple[float, float]]:
    """The named bound curve sampled at the figure's x values.

    Evaluated on the first series' specs: one representative spec per x
    (the first in sweep order), since the bound is a function of the spec
    and its network alone; the point's stored facts supply the network.
    """
    if figure.bound is None:
        return []
    first = figure.series[0]
    chosen: dict[float, Point] = {}
    for name, points in points_by_sweep.items():
        if first.sweep == name or _glob(first.sweep, name):
            for point in points:
                x = float(path_value(point.spec, figure.x))
                chosen.setdefault(x, point)
    return [
        (x, bound_value(figure.bound, point.spec, point.facts))
        for x, point in sorted(chosen.items())
    ]


# ----------------------------------------------------------------------
# Writers
# ----------------------------------------------------------------------
def figure_csv(
    figure: FigureSpec, data: list[SeriesData], bound: list[tuple[float, float]]
) -> str:
    """The figure's aggregate table as CSV text."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["series", figure.x, "median", "mean", "min", "max", "count"])
    for series in data:
        for x, stats in series.rows:
            writer.writerow(
                [
                    series.label,
                    _fmt(x),
                    _fmt(stats["median"]),
                    _fmt(stats["mean"]),
                    _fmt(stats["min"]),
                    _fmt(stats["max"]),
                    str(int(stats["count"])),
                ]
            )
    for x, value in bound:
        writer.writerow(
            [f"bound:{figure.bound}", _fmt(x), _fmt(value), "", "", "", ""]
        )
    return buffer.getvalue()


def figure_ascii(
    figure: FigureSpec, data: list[SeriesData], bound: list[tuple[float, float]]
) -> str:
    """A terminal rendering: one labelled bar row per (series, x)."""
    pairs: list[tuple[str, float]] = []
    for series in data:
        for x, y in series.points():
            pairs.append((f"{series.label} @ {figure.x}={x:g}", y))
    for x, value in bound:
        pairs.append((f"bound:{figure.bound} @ {figure.x}={x:g}", value))
    # Non-finite values (unsolved points aggregate to inf) get a textual
    # row but stay out of the bar scale, so one failure cannot blank the
    # chart — or crash it.
    finite = [value for _, value in pairs if math.isfinite(value)]
    scale = max(max(finite, default=0.0), 1e-9)
    label_width = max(len(label) for label, _ in pairs)
    lines = [figure.title, ""]
    for label, value in pairs:
        if not math.isfinite(value):
            bar = ""
        else:
            bar = "#" * max(1, round(value / scale * 40)) if value > 0 else ""
        lines.append(f"{label.rjust(label_width)} | {bar} {value:g}")
    return "\n".join(lines) + "\n"


#: Categorical stroke colors for SVG series (cycled).
_SVG_COLORS = ("#2b6cb0", "#c05621", "#2f855a", "#6b46c1", "#b83280")
_SVG_W, _SVG_H, _SVG_PAD = 560, 360, 56


def _svg_scale(values: list[float], lo_pad: float = 0.0) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if hi - lo < 1e-12:
        hi = lo + 1.0
    return lo - lo_pad, hi


def figure_svg(
    figure: FigureSpec, data: list[SeriesData], bound: list[tuple[float, float]]
) -> str:
    """A deterministic standalone SVG of the figure's polylines."""
    polylines = [series.points() for series in data]
    if bound:
        polylines.append(list(bound))
    xs = [x for line in polylines for x, _ in line]
    ys = [y for line in polylines for _, y in line]
    finite_ys = [y for y in ys if y == y and abs(y) != float("inf")]
    if not finite_ys:
        finite_ys = [0.0, 1.0]
    x_lo, x_hi = _svg_scale(xs)
    y_lo, y_hi = _svg_scale([min(finite_ys + [0.0]), max(finite_ys)])

    def px(x: float) -> str:
        span = _SVG_W - 2 * _SVG_PAD
        return _fmt(_SVG_PAD + (x - x_lo) / (x_hi - x_lo) * span)

    def py(y: float) -> str:
        y = min(max(y, y_lo), y_hi)
        span = _SVG_H - 2 * _SVG_PAD
        return _fmt(_SVG_H - _SVG_PAD - (y - y_lo) / (y_hi - y_lo) * span)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_W // 2}" y="24" text-anchor="middle" '
        f'font-family="monospace" font-size="13">{figure.title}</text>',
        f'<line x1="{_SVG_PAD}" y1="{_SVG_H - _SVG_PAD}" '
        f'x2="{_SVG_W - _SVG_PAD}" y2="{_SVG_H - _SVG_PAD}" '
        f'stroke="#333"/>',
        f'<line x1="{_SVG_PAD}" y1="{_SVG_PAD}" x2="{_SVG_PAD}" '
        f'y2="{_SVG_H - _SVG_PAD}" stroke="#333"/>',
        f'<text x="{_SVG_W // 2}" y="{_SVG_H - 12}" text-anchor="middle" '
        f'font-family="monospace" font-size="11">{figure.xlabel}</text>',
        f'<text x="14" y="{_SVG_H // 2}" text-anchor="middle" '
        f'font-family="monospace" font-size="11" '
        f'transform="rotate(-90 14 {_SVG_H // 2})">{figure.ylabel}</text>',
        f'<text x="{_SVG_PAD}" y="{_SVG_H - _SVG_PAD + 16}" '
        f'text-anchor="middle" font-family="monospace" font-size="10">'
        f"{x_lo:g}</text>",
        f'<text x="{_SVG_W - _SVG_PAD}" y="{_SVG_H - _SVG_PAD + 16}" '
        f'text-anchor="middle" font-family="monospace" font-size="10">'
        f"{x_hi:g}</text>",
        f'<text x="{_SVG_PAD - 6}" y="{_SVG_H - _SVG_PAD}" '
        f'text-anchor="end" font-family="monospace" font-size="10">'
        f"{y_lo:g}</text>",
        f'<text x="{_SVG_PAD - 6}" y="{_SVG_PAD + 4}" text-anchor="end" '
        f'font-family="monospace" font-size="10">{y_hi:g}</text>',
    ]
    labels = [series.label for series in data]
    if bound:
        labels.append(f"bound:{figure.bound}")
    for i, line in enumerate(polylines):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        dash = ' stroke-dasharray="6 4"' if bound and i == len(polylines) - 1 else ""
        coords = " ".join(f"{px(x)},{py(y)}" for x, y in line)
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5"'
            f'{dash} points="{coords}"/>'
        )
        for x, y in line:
            parts.append(
                f'<circle cx="{px(x)}" cy="{py(y)}" r="2.5" fill="{color}"/>'
            )
        parts.append(
            f'<text x="{_SVG_W - _SVG_PAD + 4}" y="{_SVG_PAD + 14 * i}" '
            f'font-family="monospace" font-size="10" fill="{color}" '
            f'text-anchor="end">{labels[i]}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def campaign_summary_rows(
    campaign: CampaignSpec, points_by_sweep: PointsBySweep
) -> list[dict[str, object]]:
    """Paper-style table rows: every figure's aggregated curves + bounds.

    The thin benchmark wrappers render these with
    :func:`repro.analysis.tables.render_table` — the same numbers the
    campaign's CSV artifacts carry.
    """
    rows: list[dict[str, object]] = []
    for figure in campaign.figures:
        data = series_data(figure, points_by_sweep)
        bound = dict(bound_overlay(figure, points_by_sweep))
        for series in data:
            for x, stats in series.rows:
                row: dict[str, object] = {
                    "figure": figure.name,
                    "series": series.label,
                    figure.x: x,
                    series.agg: stats[series.agg],
                    "n": int(stats["count"]),
                }
                if x in bound:
                    row[f"bound:{figure.bound}"] = bound[x]
                rows.append(row)
    return rows


def points_csv(points_by_sweep: PointsBySweep) -> str:
    """Every executed point as one CSV row (the raw data behind figures).

    Scalar gauges land in the ``metrics`` column; non-scalar gauges —
    the named per-run curves — land in ``series`` as compact JSON, so a
    point's windowed data is never silently dropped from the table.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        [
            "sweep",
            "index",
            "name",
            "seed",
            "solved",
            "completion_time",
            "broadcast_count",
            "delivered_count",
            "metrics",
            "series",
        ]
    )
    for sweep_name in points_by_sweep:
        for point in points_by_sweep[sweep_name]:
            result = point.result
            writer.writerow(
                [
                    point.sweep,
                    str(point.index),
                    point.spec.name,
                    str(point.spec.seed),
                    "1" if result.solved else "0",
                    str(encode_float(result.completion_time)),
                    str(result.broadcast_count),
                    str(result.delivered_count),
                    json.dumps(
                        {
                            key: encode_float(value)
                            for key, value in sorted(result.metrics.items())
                        },
                        sort_keys=True,
                        separators=(",", ":"),
                    ),
                    json.dumps(
                        {
                            name: [
                                [encode_float(x), encode_float(y)]
                                for x, y in curve
                            ]
                            for name, curve in sorted(result.series.items())
                        },
                        sort_keys=True,
                        separators=(",", ":"),
                    ),
                ]
            )
    return buffer.getvalue()


def _point_label(point) -> str:
    """Stable display name for a campaign point: ``sweep[index]``."""
    return f"{point.sweep}[{point.index}]"


def report_markdown(
    campaign: CampaignSpec,
    points_by_sweep: PointsBySweep,
    checks: list[CheckOutcome],
    missing: Sequence = (),
    health=None,
) -> str:
    """The campaign's human-readable summary (deterministic content only).

    ``missing`` (unexecuted :class:`CampaignPoint`\\ s) marks the report
    partial: the missing points are enumerated, figures whose series
    cannot be assembled are skipped with a note, and the checks section
    says why it is empty.  ``health`` is supervisor health from the run
    that produced the results; only its anomaly *counters* are rendered
    (event timings are wall-clock and would break determinism), and a
    clean run renders identically to ``health=None`` so regenerating a
    report from the store alone reproduces it byte-for-byte.
    """
    partial = bool(missing)
    lines = [
        f"# {campaign.title}",
        "",
        campaign.description,
        "",
        "## Sweeps",
        "",
    ]
    rows = []
    for directive in campaign.sweeps:
        points = points_by_sweep.get(directive.name, [])
        solved = sum(1 for p in points if p.result.solved)
        rows.append(
            {
                "sweep": directive.name,
                "points": len(points),
                "solved": solved,
                "rate": solved / len(points) if points else 0.0,
            }
        )
    lines.append("```")
    lines.append(render_table(rows))
    lines.append("```")
    if partial:
        lines.extend(
            [
                "",
                "## Missing points",
                "",
                f"**Partial report:** {len(missing)} campaign points have "
                "no verified store entry (budget exhausted, retries "
                "exhausted, or shards not yet run).  `repro campaign "
                "resume` continues from the checkpointed state.",
                "",
            ]
        )
        lines.extend(
            f"- `{_point_label(point)}` ({point.spec.name!r})"
            for point in missing
        )
    for figure in campaign.figures:
        try:
            data = series_data(figure, points_by_sweep)
            bound = bound_overlay(figure, points_by_sweep)
        except ExperimentError as exc:
            if not partial:
                raise
            lines.extend(
                [
                    "",
                    f"## {figure.title}",
                    "",
                    f"(figure skipped — incomplete result set: {exc})",
                ]
            )
            continue
        lines.extend(
            [
                "",
                f"## {figure.title}",
                "",
                f"Files: `{figure.name}.csv`, `{figure.name}.txt`, "
                f"`{figure.name}.svg`",
                "",
                "```",
                figure_ascii(figure, data, bound).rstrip("\n"),
                "```",
            ]
        )
    lines.extend(["", "## Checks", ""])
    check_rows = []
    for outcome in checks:
        check_rows.append(
            {
                "check": outcome.kind,
                "sweeps": ",".join(outcome.sweeps),
                "status": "pass" if outcome.ok else "FAIL",
                "failures": len(outcome.failures),
            }
        )
    if check_rows:
        lines.append("```")
        lines.append(render_table(check_rows))
        lines.append("```")
        for outcome in checks:
            for failure in outcome.failures:
                lines.append(f"- **{outcome.kind}**: {failure}")
    elif partial:
        lines.append(
            "(checks skipped: the result set is incomplete — a missing "
            "shard must not masquerade as a pass)"
        )
    else:
        lines.append("(campaign declares no checks)")
    lines.extend(["", "## Campaign robustness", ""])
    anomalies = dict(health.anomalies()) if health is not None else {}
    if anomalies:
        lines.append(
            "The supervised fabric recovered from faults while producing "
            "these results (full event log in `health.json`, which is "
            "outside the byte-identity contract):"
        )
        lines.append("")
        lines.append("```")
        lines.append(
            render_table(
                [
                    {"anomaly": name, "count": count}
                    for name, count in anomalies.items()
                ]
            )
        )
        lines.append("```")
    else:
        lines.append(
            "No faults observed: every point ran (or was served from the "
            "store) without retries, timeouts, worker deaths, steals, or "
            "corruption re-runs."
        )
    return "\n".join(lines) + "\n"


def write_artifacts(
    campaign: CampaignSpec,
    points_by_sweep: PointsBySweep,
    checks: list[CheckOutcome],
    artifacts_dir: str,
    missing: Sequence = (),
    health=None,
) -> list[str]:
    """Write every campaign artifact under ``artifacts_dir/<name>/``.

    Returns the written paths (relative to ``artifacts_dir``).  Output is
    a pure function of campaign + results; see the module docstring.

    ``missing`` points mark the artifact set partial: figures that cannot
    be assembled are skipped, the manifest lists the missing labels, and
    ``report.md`` enumerates them.  ``health`` (supervisor health from
    the producing run) feeds the report's robustness section and, when it
    recorded anomalies, a full ``health.json`` event log — written beside
    the artifacts but deliberately *excluded* from the manifest and the
    byte-identity contract (its timings are wall-clock).
    """
    target = os.path.join(artifacts_dir, campaign.name)
    os.makedirs(target, exist_ok=True)
    written: list[str] = []
    partial = bool(missing)

    def emit(filename: str, text: str) -> None:
        path = os.path.join(target, filename)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        written.append(os.path.join(campaign.name, filename))

    emit("points.csv", points_csv(points_by_sweep))
    for figure in campaign.figures:
        try:
            data = series_data(figure, points_by_sweep)
            bound = bound_overlay(figure, points_by_sweep)
        except ExperimentError:
            if not partial:
                raise
            continue
        emit(f"{figure.name}.csv", figure_csv(figure, data, bound))
        emit(f"{figure.name}.txt", figure_ascii(figure, data, bound))
        emit(f"{figure.name}.svg", figure_svg(figure, data, bound))
        _maybe_png(figure, data, bound, target, written, campaign.name)
    emit(
        "report.md",
        report_markdown(
            campaign, points_by_sweep, checks, missing=missing, health=health
        ),
    )
    manifest = {
        "campaign": campaign.to_dict(),
        "points": sum(len(points) for points in points_by_sweep.values()),
        "partial": partial,
        "missing": [_point_label(point) for point in missing],
        "checks": [
            {
                "kind": outcome.kind,
                "sweeps": list(outcome.sweeps),
                "ok": outcome.ok,
                "failures": list(outcome.failures),
            }
            for outcome in checks
        ],
        "artifacts": sorted(written),
    }
    emit("manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    health_path = os.path.join(target, "health.json")
    if health is not None and (health.anomalies() or health.dropped_events):
        with open(health_path, "w", encoding="utf-8", newline="") as fh:
            json.dump(health.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(os.path.join(campaign.name, "health.json"))
    elif os.path.exists(health_path):
        # A clean write supersedes any stale event log from an earlier
        # faulted run — the directory converges to the fault-free state.
        os.unlink(health_path)
    return written


def _maybe_png(
    figure: FigureSpec,
    data: list[SeriesData],
    bound: list[tuple[float, float]],
    target: str,
    written: list[str],
    campaign_name: str,
) -> None:
    """Write ``<figure>.png`` when matplotlib is importable; else skip.

    PNG bytes are not part of the byte-identity contract (they embed
    library versions), which is why the diffable formats above never
    depend on this.
    """
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except Exception:
        return
    fig, ax = plt.subplots(figsize=(6.4, 4.2))
    for series in data:
        points = series.points()
        ax.plot(
            [x for x, _ in points], [y for _, y in points],
            marker="o", label=series.label,
        )
    if bound:
        ax.plot(
            [x for x, _ in bound], [y for _, y in bound],
            linestyle="--", label=f"bound:{figure.bound}",
        )
    ax.set_title(figure.title)
    ax.set_xlabel(figure.xlabel)
    ax.set_ylabel(figure.ylabel)
    ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig(os.path.join(target, f"{figure.name}.png"), dpi=120)
    plt.close(fig)
    written.append(os.path.join(campaign_name, f"{figure.name}.png"))
