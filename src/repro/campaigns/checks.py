"""Campaign validation: machine-checkable claims over a result set.

A campaign's :class:`~repro.campaigns.spec.CheckSpec` directives name
entries in :data:`CHECKS` — functions that inspect the points of the
sweeps in scope and return a list of human-readable failure strings
(empty = pass).  Bound overlays and bound checks share :data:`BOUNDS`:
named closed-form curves computed from a point's *spec* and its stored
*facts* — the reliable ``diameter`` of its network, which the fabric
worker that ran the point recorded in its store entry
(:func:`~repro.experiments.substrates.topology_facts`).  A bound that
needs the diameter reads it from the facts, so a report over a full
store builds no topology; an entry written before facts existed has
none, and the bound falls back to building the network.

Both registries are open — downstream campaigns register their own
entries with :func:`register_check` / :func:`register_bound` and name
them from pure-JSON campaign specs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.analysis.bounds import (
    bmmb_arbitrary_bound,
    bmmb_gg_bound,
    figure2_lower_bound,
)
from repro.analysis.fitting import linear_fit
from repro.errors import ExperimentError
from repro.experiments.registries import Registry
from repro.experiments.runner import ExperimentResult
from repro.experiments.specs import ExperimentSpec
from repro.experiments.substrates import Facts, topology_facts
from repro.experiments.sweep import path_value

CHECKS = Registry("campaign check")
BOUNDS = Registry("bound curve")


def register_check(name: str):
    """Register ``check(points_by_sweep, **params) -> list[str]``."""
    return CHECKS.register(name)


def register_bound(name: str):
    """Register ``bound(spec, facts) -> float`` under ``name``.

    ``facts`` is the point's stored ``{"diameter": D}``, or ``None``
    for an entry written without them; a bound that needs them then
    falls back to :func:`~repro.experiments.substrates.topology_facts`,
    which builds the network.
    """
    return BOUNDS.register(name)


@dataclass(frozen=True)
class Point:
    """One executed campaign point as the checks see it.

    ``facts`` are the topology facts stored beside the result (``None``
    when its store entry has none).
    """

    sweep: str
    index: int
    spec: ExperimentSpec
    result: ExperimentResult
    facts: Facts | None = None


#: The mapping every check receives: sweep name -> points in sweep order.
PointsBySweep = dict[str, list[Point]]


def y_value(point: Point, y: str) -> float:
    """Extract a series/check y value (see ``SeriesSpec.y``) as a float."""
    if y.startswith("metric:"):
        key = y[len("metric:") :]
        try:
            return float(point.result.metrics[key])
        except KeyError:
            raise ExperimentError(
                f"point {point.spec.name!r} has no metric {key!r}; "
                f"recorded: {', '.join(sorted(point.result.metrics))}"
            ) from None
    if y == "solved":
        return 1.0 if point.result.solved else 0.0
    try:
        return float(getattr(point.result, y))
    except AttributeError:
        raise ExperimentError(f"unknown series value {y!r}") from None


def _all_points(points_by_sweep: PointsBySweep) -> list[Point]:
    flat: list[Point] = []
    for name in points_by_sweep:
        flat.extend(points_by_sweep[name])
    return flat


def _grouped_by_x(points: list[Point], x: str) -> list[tuple[float, list[Point]]]:
    """Points bucketed by their x value, in first-seen (sweep) order."""
    groups: dict[float, list[Point]] = {}
    for point in points:
        groups.setdefault(float(path_value(point.spec, x)), []).append(point)
    return list(groups.items())


def _series_means(points: list[Point], x: str, y: str) -> list[tuple[float, float]]:
    return [
        (x_value, sum(y_value(p, y) for p in group) / len(group))
        for x_value, group in _grouped_by_x(points, x)
    ]


# ----------------------------------------------------------------------
# Bound curves
# ----------------------------------------------------------------------
def workload_k(spec: ExperimentSpec) -> int:
    """The message count ``k`` implied by a spec's workload."""
    if spec.workload is None:
        raise ExperimentError(f"spec {spec.name!r} has no workload")
    params = spec.workload.params
    if "nodes" in params and params["nodes"] is not None:
        return len(params["nodes"])
    for key in ("k", "count"):
        if key in params:
            return int(params[key])
    # Registry defaults: one_each/single_source start from one message.
    return 1


def _diameter(spec: ExperimentSpec, facts: Facts | None) -> int:
    """The reliable diameter from stored facts, built only without them."""
    if facts is None:
        facts = topology_facts(spec)
    return facts["diameter"]


@register_bound("bmmb_gg")
def _bound_bmmb_gg(spec: ExperimentSpec, facts: Facts | None) -> float:
    """Theorem 3.16 (r=1): ``(D + 2k - 2)*Fprog + (k - 1)*Fack``."""
    return bmmb_gg_bound(
        _diameter(spec, facts), workload_k(spec), spec.model.fack, spec.model.fprog
    )


@register_bound("bmmb_arbitrary")
def _bound_bmmb_arbitrary(spec: ExperimentSpec, facts: Facts | None) -> float:
    """Theorem 3.1: ``(D + k)*Fack`` for arbitrary G'."""
    return bmmb_arbitrary_bound(
        _diameter(spec, facts), workload_k(spec), spec.model.fack
    )


@register_bound("figure2_floor")
def _bound_figure2_floor(spec: ExperimentSpec, facts: Facts | None) -> float:
    """Lemma 3.20: the ``(D - 1)*Fack`` adversarial floor."""
    depth = int(path_value(spec, "topology.depth"))
    return figure2_lower_bound(depth, spec.model.fack)


def bound_value(name: str, spec: ExperimentSpec, facts: Facts | None = None) -> float:
    """Evaluate the registered bound curve ``name`` at ``spec``, reading
    the point's stored ``facts`` when it has them."""
    return BOUNDS.get(name)(spec, facts)


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
@register_check("solved")
def _check_solved(points_by_sweep: PointsBySweep, min_rate: float = 1.0) -> list[str]:
    """The solved rate over the points in scope must reach ``min_rate``."""
    points = _all_points(points_by_sweep)
    if not points:
        return ["solved: no points in scope"]
    rate = sum(1 for p in points if p.result.solved) / len(points)
    if rate + 1e-12 < min_rate:
        unsolved = [p.spec.name for p in points if not p.result.solved]
        return [
            f"solved rate {rate:.3f} < required {min_rate:.3f} "
            f"(unsolved: {', '.join(unsolved[:5])}"
            + (", ..." if len(unsolved) > 5 else "")
            + ")"
        ]
    return []


@register_check("upper_bound")
def _check_upper_bound(
    points_by_sweep: PointsBySweep, bound: str = "", slack: float = 1e-9
) -> list[str]:
    """Every solved point's completion must stay within the named bound."""
    failures = []
    for point in _all_points(points_by_sweep):
        if not point.result.solved:
            failures.append(f"{point.spec.name}: unsolved, bound undefined")
            continue
        limit = bound_value(bound, point.spec, point.facts)
        if point.result.completion_time > limit + slack:
            failures.append(
                f"{point.spec.name}: completion "
                f"{point.result.completion_time:g} exceeds {bound} bound "
                f"{limit:g}"
            )
    return failures


@register_check("lower_bound")
def _check_lower_bound(
    points_by_sweep: PointsBySweep, bound: str = "", slack: float = 1e-9
) -> list[str]:
    """Every point's completion must reach the named adversarial floor."""
    failures = []
    for point in _all_points(points_by_sweep):
        floor = bound_value(bound, point.spec, point.facts)
        if point.result.completion_time < floor - slack:
            failures.append(
                f"{point.spec.name}: completion "
                f"{point.result.completion_time:g} below {bound} floor "
                f"{floor:g}"
            )
    return failures


@register_check("slope")
def _check_slope(
    points_by_sweep: PointsBySweep,
    x: str = "",
    y: str = "completion_time",
    min_slope: float | None = None,
    max_slope: float | None = None,
    min_r_squared: float | None = None,
) -> list[str]:
    """Linear-fit slope of mean(y) vs x must land in the given window."""
    series = _series_means(_all_points(points_by_sweep), x, y)
    if len(series) < 2:
        return [f"slope: need >= 2 distinct x values on {x!r}, got {len(series)}"]
    fit = linear_fit([p[0] for p in series], [p[1] for p in series])
    failures = []
    if min_slope is not None and fit.slope < min_slope:
        failures.append(
            f"slope of {y} vs {x} is {fit.slope:g}, below {min_slope:g}"
        )
    if max_slope is not None and fit.slope > max_slope:
        failures.append(
            f"slope of {y} vs {x} is {fit.slope:g}, above {max_slope:g}"
        )
    if min_r_squared is not None and fit.r_squared < min_r_squared:
        failures.append(
            f"fit of {y} vs {x} has r^2 {fit.r_squared:.4f} < "
            f"{min_r_squared:.4f}"
        )
    return failures


@register_check("nonincreasing_rate")
def _check_nonincreasing_rate(
    points_by_sweep: PointsBySweep,
    x: str = "",
    require_first: float | None = None,
) -> list[str]:
    """Solved rate must be non-increasing along ascending x.

    Used by fault campaigns: crashes only destroy delivery paths, so the
    among-survivors solved rate cannot improve as the fault scale grows.
    ``require_first`` additionally pins the rate at the smallest x (the
    fault-free baseline must solve outright).
    """
    grouped = _grouped_by_x(_all_points(points_by_sweep), x)
    grouped.sort(key=lambda item: item[0])
    if not grouped:
        return [f"nonincreasing_rate: no points with x {x!r}"]
    rates = [
        sum(1 for p in group if p.result.solved) / len(group)
        for _, group in grouped
    ]
    failures = []
    if require_first is not None and rates[0] != require_first:
        failures.append(
            f"rate at {x}={grouped[0][0]:g} is {rates[0]:.3f}, expected "
            f"{require_first:.3f}"
        )
    for (x_lo, _), (x_hi, _), lo, hi in zip(grouped, grouped[1:], rates, rates[1:]):
        if hi > lo + 1e-12:
            failures.append(
                f"solved rate rose from {lo:.3f} at {x}={x_lo:g} to "
                f"{hi:.3f} at {x}={x_hi:g}"
            )
    return failures


@register_check("rate_at")
def _check_rate_at(
    points_by_sweep: PointsBySweep,
    x: str = "",
    x_value: float = 0.0,
    min_rate: float = 1.0,
) -> list[str]:
    """The solved rate at one x value must reach ``min_rate``."""
    for value, group in _grouped_by_x(_all_points(points_by_sweep), x):
        if abs(value - x_value) < 1e-12:
            rate = sum(1 for p in group if p.result.solved) / len(group)
            if rate + 1e-12 < min_rate:
                return [
                    f"solved rate at {x}={x_value:g} is {rate:.3f}, "
                    f"below {min_rate:.3f}"
                ]
            return []
    return [f"rate_at: no points with {x}={x_value:g}"]


@register_check("crossover")
def _check_crossover(
    points_by_sweep: PointsBySweep,
    x: str = "",
    first: str = "",
    last: str = "",
    y: str = "completion_time",
) -> list[str]:
    """Sweep ``first`` must win at the smallest x, ``last`` at the largest.

    "Win" means a strictly smaller mean y.  This is the Figure 1 crossover
    claim: BMMB's simplicity wins while acknowledgments are cheap, FMMB's
    ``Fack``-free structure wins once they are expensive.
    """
    for name in (first, last):
        if name not in points_by_sweep:
            return [f"crossover: sweep {name!r} not in scope"]
    series_first = dict(_series_means(points_by_sweep[first], x, y))
    series_last = dict(_series_means(points_by_sweep[last], x, y))
    shared = sorted(set(series_first) & set(series_last))
    if len(shared) < 2:
        return [f"crossover: need >= 2 shared x values, got {len(shared)}"]
    failures = []
    x_lo, x_hi = shared[0], shared[-1]
    if not series_first[x_lo] < series_last[x_lo]:
        failures.append(
            f"{first} should win at {x}={x_lo:g}: "
            f"{series_first[x_lo]:g} !< {series_last[x_lo]:g}"
        )
    if not series_last[x_hi] < series_first[x_hi]:
        failures.append(
            f"{last} should win at {x}={x_hi:g}: "
            f"{series_last[x_hi]:g} !< {series_first[x_hi]:g}"
        )
    return failures


@register_check("growth_gap")
def _check_growth_gap(
    points_by_sweep: PointsBySweep,
    x: str = "",
    fast: str = "",
    slow: str = "",
    min_fast_growth: float = 4.0,
    max_slow_fraction: float = 0.5,
) -> list[str]:
    """Metric ``fast`` must grow across the x range; ``slow`` much less.

    The footnote-2 claim: over the radio MAC the empirical ``Fack`` grows
    (near-)linearly with contention while the empirical ``Fprog`` stays
    polylogarithmic.  Growth is measured as mean(last x) / mean(first x);
    the slow metric must grow by less than ``max_slow_fraction`` of the
    fast metric's growth.
    """
    points = _all_points(points_by_sweep)
    fast_series = _series_means(points, x, fast)
    slow_series = _series_means(points, x, slow)
    if len(fast_series) < 2:
        return [f"growth_gap: need >= 2 x values on {x!r}"]
    fast_series.sort(key=lambda item: item[0])
    slow_series.sort(key=lambda item: item[0])
    fast_growth = fast_series[-1][1] / max(fast_series[0][1], 1e-9)
    slow_growth = slow_series[-1][1] / max(slow_series[0][1], 1e-9)
    failures = []
    if fast_growth < min_fast_growth:
        failures.append(
            f"{fast} grew {fast_growth:.2f}x across {x}, below "
            f"{min_fast_growth:.2f}x"
        )
    if slow_growth > fast_growth * max_slow_fraction:
        failures.append(
            f"{slow} grew {slow_growth:.2f}x, not under "
            f"{max_slow_fraction:.2f} of {fast}'s {fast_growth:.2f}x"
        )
    return failures


@register_check("saturation_knee")
def _check_saturation_knee(
    points_by_sweep: PointsBySweep,
    x: str = "workload.rate",
    y: str = "metric:latency_p95",
    knee_ratio: float = 3.0,
    min_points: int = 3,
) -> list[str]:
    """Each sweep's load-latency curve must contain a saturation knee.

    Judged per sweep (each sweep is one substrate's curve, with its own
    time unit): mean ``y`` at the lowest arrival rate is the uncongested
    baseline, and the highest-rate mean must reach ``knee_ratio`` times
    that baseline — i.e. the swept rate range actually crosses from the
    flat regime into saturation.  The knee itself is the largest rate
    whose latency stays within ``knee_ratio`` of the baseline; the check
    fails if that is also the largest rate (the curve never bent).
    """
    failures = []
    for name, points in points_by_sweep.items():
        series = sorted(_series_means(points, x, y))
        if len(series) < min_points:
            failures.append(
                f"{name}: need >= {min_points} rates on {x!r}, "
                f"got {len(series)}"
            )
            continue
        baseline = series[0][1]
        if not math.isfinite(baseline) or baseline <= 0:
            failures.append(
                f"{name}: baseline {y} at {x}={series[0][0]:g} is "
                f"{baseline:g}; the lowest rate must run uncongested"
            )
            continue
        elbow = knee_ratio * baseline
        top_rate, top = series[-1]
        if top < elbow:
            failures.append(
                f"{name}: {y} at top rate {top_rate:g} is {top:g}, under "
                f"{knee_ratio:g}x the baseline {baseline:g} — the rate "
                "range never reaches saturation"
            )
            continue
        knee = max(
            (rate for rate, latency in series if latency <= elbow),
            default=None,
        )
        if knee is None or knee == top_rate:
            failures.append(
                f"{name}: no rate below the top stays within "
                f"{knee_ratio:g}x baseline — the curve never bent"
            )
    return failures


@register_check("metric_dominates")
def _check_metric_dominates(
    points_by_sweep: PointsBySweep,
    upper: str = "",
    lower: str = "",
    slack: float = 1e-9,
) -> list[str]:
    """At every point, series value ``upper`` must be >= ``lower``.

    Values use the same addressing as figure series (``metric:<gauge>``,
    ``solved``, or a result attribute), so the check reads the one
    documented metrics surface the substrates' probes emit.  Used by the
    radio-family campaigns to assert the model ordering ``empirical_fack
    >= empirical_fprog`` pointwise.
    """
    if not upper or not lower:
        return ["metric_dominates: needs 'upper' and 'lower' params"]
    failures = []
    for point in _all_points(points_by_sweep):
        hi = y_value(point, upper)
        lo = y_value(point, lower)
        if hi + slack < lo:
            failures.append(
                f"{point.spec.name}: {upper} = {hi:g} below {lower} = {lo:g}"
            )
    return failures


CheckFn = Callable[..., "list[str]"]
