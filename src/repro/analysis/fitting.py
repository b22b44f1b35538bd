"""Least-squares scaling fits for campaign series.

Pure python on purpose: ``repro.analysis`` sits on the package import
path, and the package depends on nothing numeric — a degree-1
least-squares fit needs nothing beyond ``math.fsum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ExperimentError


@dataclass(frozen=True)
class LinearFit:
    """Result of a one-dimensional linear fit ``y ≈ slope·x + intercept``.

    ``r_squared`` is the coefficient of determination; a value near 1 on a
    (parameter, completion-time) series is the evidence the campaign
    ``slope`` check uses for "time is linear in D" style claims.
    """

    slope: float
    intercept: float
    r_squared: float

    def predict(self, x: float) -> float:
        """Evaluate the fitted line."""
        return self.slope * x + self.intercept


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> LinearFit:
    """Fit ``ys ≈ slope·xs + intercept`` by least squares."""
    if len(xs) != len(ys):
        raise ExperimentError(f"length mismatch: {len(xs)} xs vs {len(ys)} ys")
    if len(xs) < 2:
        raise ExperimentError("need at least two points to fit a line")
    n = len(xs)
    x = [float(v) for v in xs]
    y = [float(v) for v in ys]
    mean_x = math.fsum(x) / n
    mean_y = math.fsum(y) / n
    ss_xx = math.fsum((xi - mean_x) ** 2 for xi in x)
    if ss_xx == 0.0:
        raise ExperimentError("need at least two distinct x values to fit a line")
    ss_xy = math.fsum((xi - mean_x) * (yi - mean_y) for xi, yi in zip(x, y))
    slope = ss_xy / ss_xx
    intercept = mean_y - slope * mean_x
    ss_res = math.fsum((yi - (slope * xi + intercept)) ** 2 for xi, yi in zip(x, y))
    ss_tot = math.fsum((yi - mean_y) ** 2 for yi in y)
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return LinearFit(slope=slope, intercept=intercept, r_squared=r_squared)


def growth_ratio(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Ratio of endpoint growth rates: (y_n/y_0) / (x_n/x_0).

    ≈ 1 for linear scaling, ≪ 1 for sublinear, ≫ 1 for superlinear; a
    cruder but assumption-free companion to :func:`linear_fit`.
    """
    if len(xs) != len(ys) or len(xs) < 2:
        raise ExperimentError("need two aligned points")
    if xs[0] == 0 or ys[0] == 0:
        raise ExperimentError("growth ratio undefined from a zero start")
    return (ys[-1] / ys[0]) / (xs[-1] / xs[0])
