"""Declarative reproduction campaigns.

A :class:`CampaignSpec` is a named, frozen, JSON-round-trippable bundle of
parameter sweeps plus the analysis directives — figures and validation
checks — that turn the sweep results back into the paper's tables and
curves.  Everything in a campaign is data: sweeps expand to
:class:`~repro.experiments.specs.ExperimentSpec` points via the existing
sweep grid, figures name sweeps and dotted spec paths, and checks name
entries in the check registry (:mod:`repro.campaigns.checks`).  The JSON
form of a campaign is the unit of provenance: it keys the result store,
ships to CI shards, and rebuilds bit-identically.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Any, Mapping, Sequence

from repro.campaigns.chaos import ChaosSpec
from repro.errors import ExperimentError
from repro.experiments.specs import ExperimentSpec, RunOptions
from repro.experiments.sweep import Sweep, with_path

#: Result fields a figure series may plot (besides ``metric:<key>``).
SERIES_FIELDS = ("completion_time", "solved", "broadcast_count", "delivered_count")

#: Aggregations a figure series may apply across repeats at one x value.
SERIES_AGGS = ("median", "mean", "min", "max")


def _zip_tag(path: str, value: Any, row: int) -> str:
    """A short human label for one zipped value (lists label by row)."""
    if isinstance(value, (list, tuple, dict)):
        return f"{path}#{row}"
    return f"{path}={value}"


@dataclass(frozen=True)
class SweepDirective:
    """One named sweep inside a campaign.

    Attributes:
        name: The sweep's handle; figures and checks address it (and may
            glob over it, e.g. ``"crash_*"``).
        base: The spec every point starts from.
        axes: Cartesian axes, exactly as :meth:`Sweep.grid` takes them.
        zip_axes: Axes varied *together* (all value lists the same length).
            Zipped rows share their derived replication seeds — row ``i``
            of every path is applied to the base before the grid expands —
            so paired comparisons (same seeds, different fault fraction)
            stay paired.
        repeats: Independent replications per grid point.
        derive_seeds: Per-point seed derivation, as in :meth:`Sweep.grid`.
        journal: Persist each point's observation journal into the result
            store alongside its summary (see :mod:`repro.runtime.journal`)
            so trace-level checks can read the streams post-hoc.  Cached
            points missing their journal re-run.
        options: Per-point :class:`~repro.experiments.specs.RunOptions`
            override (e.g. windowed capture for long service sweeps).
            Execution policy, not provenance — like ``CampaignSpec.chaos``
            it is excluded from equality and serialization, so it never
            perturbs store keys.  Defaults derive from ``journal``
            (observation-keeping when journaling, summaries otherwise);
            a per-run ``options.journal`` path is rejected — the store
            owns journal placement.
    """

    name: str
    base: ExperimentSpec
    axes: dict[str, list[Any]] = field(default_factory=dict)
    zip_axes: dict[str, list[Any]] = field(default_factory=dict)
    repeats: int = 1
    derive_seeds: bool = True
    journal: bool = False
    options: RunOptions | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ExperimentError("sweep directive needs a non-empty name")
        if self.options is not None:
            if self.options.journal is not None:
                raise ExperimentError(
                    f"sweep {self.name!r}: options.journal is per-run and "
                    "cannot address a campaign store; set journal=True on "
                    "the directive instead"
                )
            if self.journal and not self.options.keep_raw:
                raise ExperimentError(
                    f"sweep {self.name!r}: journal=True needs the "
                    "observation stream, but options discard it "
                    "(keep_raw=False/window)"
                )
        object.__setattr__(self, "axes", {k: list(v) for k, v in self.axes.items()})
        object.__setattr__(
            self, "zip_axes", {k: list(v) for k, v in self.zip_axes.items()}
        )
        lengths = {len(values) for values in self.zip_axes.values()}
        if len(lengths) > 1:
            raise ExperimentError(
                f"sweep {self.name!r}: zip_axes value lists must share one "
                f"length, got {sorted(lengths)}"
            )
        if lengths == {0}:
            raise ExperimentError(f"sweep {self.name!r}: zip_axes are empty")
        overlap = set(self.axes) & set(self.zip_axes)
        if overlap:
            raise ExperimentError(
                f"sweep {self.name!r}: paths {sorted(overlap)} appear in "
                f"both axes and zip_axes"
            )

    def expand(self) -> list[ExperimentSpec]:
        """The directive's points, in deterministic order.

        Zip rows expand in listed order; within each row the cartesian
        grid expands exactly as :meth:`Sweep.grid` would.  Because the
        grid is built from the (renamed-after) zipped base, derived seeds
        depend only on the grid tag — identical across zip rows.
        """
        paths = sorted(self.zip_axes)
        row_count = len(next(iter(self.zip_axes.values()))) if paths else 1
        specs: list[ExperimentSpec] = []
        for row in range(row_count):
            point = self.base
            tags = []
            for path in paths:
                value = self.zip_axes[path][row]
                point = with_path(point, path, value)
                tags.append(_zip_tag(path, value, row))
            produced = Sweep.grid(
                point,
                axes=self.axes,
                repeats=self.repeats,
                derive_seeds=self.derive_seeds,
            )
            if tags:
                prefix = f"{self.base.name}[{','.join(tags)}]"
                produced = [
                    dataclasses.replace(
                        spec, name=prefix + spec.name[len(self.base.name) :]
                    )
                    for spec in produced
                ]
            specs.extend(produced)
        return specs

    def run_options(self) -> RunOptions:
        """The effective per-point capture options for this sweep."""
        if self.options is not None:
            return self.options
        return RunOptions.observed() if self.journal else RunOptions.summary()

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "base": self.base.to_dict(),
            "axes": {k: list(v) for k, v in self.axes.items()},
            "zip_axes": {k: list(v) for k, v in self.zip_axes.items()},
            "repeats": self.repeats,
            "derive_seeds": self.derive_seeds,
            "journal": self.journal,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepDirective":
        return cls(
            name=data["name"],
            base=ExperimentSpec.from_dict(data["base"]),
            axes=dict(data.get("axes", {})),
            zip_axes=dict(data.get("zip_axes", {})),
            repeats=data.get("repeats", 1),
            derive_seeds=data.get("derive_seeds", True),
            journal=data.get("journal", False),
        )


@dataclass(frozen=True)
class SeriesSpec:
    """One curve of a figure.

    Attributes:
        sweep: Sweep name (or glob) the series draws points from.
        y: What to plot — a result field from :data:`SERIES_FIELDS`,
            ``metric:<key>`` for a scalar metric, or ``series:<name>``
            for a per-run curve (every matching point's named result
            series is pooled; the curve's own x values replace the
            figure's spec-path x).
        label: Legend label; defaults to ``sweep/y``.
        agg: Aggregation across repeats at one x value (``solved`` series
            usually want ``mean``, i.e. the solved rate).
    """

    sweep: str
    y: str = "completion_time"
    label: str = ""
    agg: str = "median"

    def __post_init__(self) -> None:
        if (
            self.y not in SERIES_FIELDS
            and not self.y.startswith("metric:")
            and not self.y.startswith("series:")
        ):
            raise ExperimentError(
                f"series y {self.y!r} must be one of {SERIES_FIELDS}, "
                f"'metric:<key>', or 'series:<name>'"
            )
        if self.agg not in SERIES_AGGS:
            raise ExperimentError(
                f"series agg {self.agg!r} must be one of {SERIES_AGGS}"
            )
        if not self.label:
            object.__setattr__(self, "label", f"{self.sweep}/{self.y}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "sweep": self.sweep,
            "y": self.y,
            "label": self.label,
            "agg": self.agg,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SeriesSpec":
        return cls(
            sweep=data["sweep"],
            y=data.get("y", "completion_time"),
            label=data.get("label", ""),
            agg=data.get("agg", "median"),
        )


@dataclass(frozen=True)
class FigureSpec:
    """One regenerated figure: series over a shared x axis, plus files.

    The reporter writes ``<name>.csv`` (full aggregate table),
    ``<name>.txt`` (ASCII chart), and ``<name>.svg`` for every figure;
    when matplotlib happens to be importable it adds ``<name>.png``.

    Attributes:
        name: Artifact basename (also the figure's handle).
        title: Human heading.
        x: Dotted spec path providing the x value of every point
            (e.g. ``"topology.n"``, ``"model.fack"``).
        series: The curves.
        bound: Optional bound-curve key from
            :data:`repro.campaigns.checks.BOUNDS`, overlaid per x value
            (computed from the first series' spec at that x).
        xlabel / ylabel: Axis labels; default to ``x`` and the first
            series' y.
    """

    name: str
    title: str
    x: str
    series: tuple[SeriesSpec, ...]
    bound: str | None = None
    xlabel: str = ""
    ylabel: str = ""

    def __post_init__(self) -> None:
        if not self.name or not self.series:
            raise ExperimentError("figure needs a name and at least one series")
        object.__setattr__(self, "series", tuple(self.series))
        if not self.xlabel:
            object.__setattr__(self, "xlabel", self.x)
        if not self.ylabel:
            object.__setattr__(self, "ylabel", self.series[0].y)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "title": self.title,
            "x": self.x,
            "series": [s.to_dict() for s in self.series],
            "bound": self.bound,
            "xlabel": self.xlabel,
            "ylabel": self.ylabel,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FigureSpec":
        return cls(
            name=data["name"],
            title=data.get("title", data["name"]),
            x=data["x"],
            series=tuple(SeriesSpec.from_dict(s) for s in data["series"]),
            bound=data.get("bound"),
            xlabel=data.get("xlabel", ""),
            ylabel=data.get("ylabel", ""),
        )


@dataclass(frozen=True)
class CheckSpec:
    """One validation directive: a check-registry entry plus its scope.

    Attributes:
        kind: Key in :data:`repro.campaigns.checks.CHECKS`.
        sweeps: Sweep names (or globs) the check sees; ``("*",)`` means
            every sweep in the campaign.
        params: Keyword parameters for the check function.
    """

    kind: str
    sweeps: tuple[str, ...] = ("*",)
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.kind:
            raise ExperimentError("check directive needs a non-empty kind")
        object.__setattr__(self, "sweeps", tuple(self.sweeps))
        object.__setattr__(self, "params", dict(self.params))

    def matches(self, sweep_name: str) -> bool:
        """Whether the check's scope covers ``sweep_name``."""
        return any(fnmatchcase(sweep_name, pattern) for pattern in self.sweeps)

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "sweeps": list(self.sweeps),
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CheckSpec":
        return cls(
            kind=data["kind"],
            sweeps=tuple(data.get("sweeps", ("*",))),
            params=dict(data.get("params", {})),
        )


@dataclass(frozen=True)
class CampaignSpec:
    """A named, reproducible bundle of sweeps + analysis directives.

    Attributes:
        name: Stable identifier (CLI handle, artifact directory name).
        title: Human heading for the report.
        description: What paper artifact the campaign regenerates.
        sweeps: The sweeps, expanded in listed order.
        figures: Figures regenerated from the results.
        checks: Validation directives; a campaign *verifies* when all of
            them pass over a complete result set.
        trace_checks: Trace-level validation directives — entries in
            :data:`repro.campaigns.trace_checks.TRACE_CHECKS`, evaluated
            per point against the persisted observation journals of the
            sweeps they scope (those sweeps must set ``journal=True``).
        chaos: Deterministic fault-injection directives for the
            supervised fabric.  Chaos is an *execution* policy, not
            provenance: the field is excluded from equality and from
            ``to_dict``/``to_json`` so store keys, manifests, and reports
            are byte-identical with and without it.
    """

    name: str
    title: str
    sweeps: tuple[SweepDirective, ...]
    figures: tuple[FigureSpec, ...] = ()
    checks: tuple[CheckSpec, ...] = ()
    trace_checks: tuple[CheckSpec, ...] = ()
    description: str = ""
    chaos: tuple[ChaosSpec, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ExperimentError("campaign needs a non-empty name")
        if not self.sweeps:
            raise ExperimentError(f"campaign {self.name!r} has no sweeps")
        object.__setattr__(self, "sweeps", tuple(self.sweeps))
        object.__setattr__(self, "figures", tuple(self.figures))
        object.__setattr__(self, "checks", tuple(self.checks))
        object.__setattr__(self, "trace_checks", tuple(self.trace_checks))
        object.__setattr__(self, "chaos", tuple(self.chaos))
        journaled = {d.name for d in self.sweeps if d.journal}
        for check in self.trace_checks:
            if not any(
                any(fnmatchcase(name, pattern) for name in journaled)
                for pattern in check.sweeps
            ):
                raise ExperimentError(
                    f"campaign {self.name!r}: trace check {check.kind!r} "
                    f"scopes {check.sweeps} but no journaling sweep "
                    f"matches (journal=True sweeps: "
                    f"{sorted(journaled) or 'none'})"
                )
        names = [directive.name for directive in self.sweeps]
        if len(set(names)) != len(names):
            raise ExperimentError(
                f"campaign {self.name!r} has duplicate sweep names"
            )
        for figure in self.figures:
            for series in figure.series:
                if not self._matching_sweeps(series.sweep):
                    raise ExperimentError(
                        f"figure {figure.name!r} series addresses unknown "
                        f"sweep {series.sweep!r}"
                    )

    def _matching_sweeps(self, pattern: str) -> list[str]:
        return [
            directive.name
            for directive in self.sweeps
            if fnmatchcase(directive.name, pattern)
        ]

    def sweep(self, name: str) -> SweepDirective:
        """The directive registered under ``name``."""
        for directive in self.sweeps:
            if directive.name == name:
                return directive
        raise ExperimentError(
            f"campaign {self.name!r} has no sweep {name!r}; sweeps: "
            f"{', '.join(d.name for d in self.sweeps)}"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "title": self.title,
            "description": self.description,
            "sweeps": [directive.to_dict() for directive in self.sweeps],
            "figures": [figure.to_dict() for figure in self.figures],
            "checks": [check.to_dict() for check in self.checks],
            "trace_checks": [check.to_dict() for check in self.trace_checks],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        return cls(
            name=data["name"],
            title=data.get("title", data["name"]),
            description=data.get("description", ""),
            sweeps=tuple(
                SweepDirective.from_dict(d) for d in data["sweeps"]
            ),
            figures=tuple(
                FigureSpec.from_dict(f) for f in data.get("figures", [])
            ),
            checks=tuple(
                CheckSpec.from_dict(c) for c in data.get("checks", [])
            ),
            trace_checks=tuple(
                CheckSpec.from_dict(c) for c in data.get("trace_checks", [])
            ),
        )

    def to_json(self, indent: int | None = None) -> str:
        """Serialize to JSON (stable key order)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        """Rebuild a campaign from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))


def scaled_values(values: Sequence[int], n_max: int | None) -> list[int]:
    """Drop the entries of a size ladder above ``n_max`` (keep >= 1).

    Built-in campaigns use this for their ``--n-max`` reduction: the grid
    keeps its small sizes (same specs, same hashes, full cache reuse) and
    sheds the expensive tail.
    """
    if n_max is None:
        return list(values)
    kept = [v for v in values if v <= n_max]
    if not kept:
        kept = [min(values)]
    return kept
