"""Parameter sweeps over experiment specs, serial or process-parallel.

:meth:`Sweep.grid` expands a base spec over axes addressed by dotted paths
(``"topology.n"``, ``"model.fack"``, ``"scheduler.p_unreliable"``,
``"seed"``), deriving an independent per-point seed from the base seed so
replicated points are statistically independent yet exactly reproducible.
:func:`run_sweep` executes a spec list — serially, or fanned out over the
campaign fabric's worker processes
(:func:`~repro.campaigns.supervision.run_supervised`) — and aggregates
the summaries in a :class:`SweepResult` (rates, summary statistics,
percentiles).

Because specs are frozen value objects and results summarize to plain
scalars, a parallel sweep returns *exactly* the results of a serial one,
in the same order; only the wall clock differs.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.analysis.stats import Summary, percentile, summarize
from repro.errors import ExperimentError
from repro.experiments.runner import ExperimentResult, run
from repro.experiments.specs import ExperimentSpec, ModelSpec, RunOptions, _KindSpec
from repro.sim.rng import derive_seed

#: Percentiles reported by default in sweep summaries.
DEFAULT_PERCENTILES = (50.0, 90.0, 99.0)


def with_path(spec: ExperimentSpec, path: str, value: Any) -> ExperimentSpec:
    """Return a copy of ``spec`` with the dotted ``path`` set to ``value``.

    Top-level fields (``seed``, ``substrate``, ``name``) are addressed
    directly.  Within a kind-spec component, ``kind`` is replaced and any
    other tail is a params key (``topology.n``, ``scheduler.p_unreliable``
    — params are the open surface there).  :class:`ModelSpec` has a closed
    field set, so unknown tails are rejected instead of silently landing
    in params; substrate extras are addressed explicitly as
    ``model.params.<key>`` (e.g. ``model.params.max_slots``).
    """
    head, _, rest = path.partition(".")
    field_names = {f.name for f in dataclasses.fields(spec)}
    if head not in field_names:
        raise ExperimentError(
            f"sweep axis {path!r} does not address an ExperimentSpec field"
        )
    if not rest:
        return dataclasses.replace(spec, **{head: value})
    sub = getattr(spec, head)
    if sub is None:
        raise ExperimentError(
            f"sweep axis {path!r} addresses {head!r}, which is None"
        )
    if isinstance(sub, (ModelSpec, _KindSpec)):
        sub_fields = {f.name for f in dataclasses.fields(sub)}
        params_key = rest[len("params."):] if rest.startswith("params.") else None
        if rest in sub_fields and rest != "params":
            new_sub = dataclasses.replace(sub, **{rest: value})
            if rest == "kind" and value != sub.kind:
                # Params are kind-specific: swapping the kind must not
                # carry the old kind's params into the new builder.  Kind
                # axes are applied before sibling param axes, so a grid
                # pairing workload.kind with workload.rate still lands
                # the rate on the new kind.
                new_sub = dataclasses.replace(new_sub, params={})
        elif params_key:
            params = dict(sub.params)
            params[params_key] = value
            new_sub = dataclasses.replace(sub, params=params)
        elif isinstance(sub, ModelSpec):
            raise ExperimentError(
                f"sweep axis {path!r} is not a ModelSpec field "
                f"({', '.join(sorted(sub_fields - {'params'}))}); use "
                f"model.params.<key> for substrate extras"
            )
        else:
            params = dict(sub.params)
            params[rest] = value
            new_sub = dataclasses.replace(sub, params=params)
        return dataclasses.replace(spec, **{head: new_sub})
    raise ExperimentError(f"sweep axis {path!r} addresses a non-spec field")


def path_value(spec: ExperimentSpec, path: str) -> Any:
    """Read the value a sweep axis ``path`` addresses on ``spec``.

    The inverse of :func:`with_path`: top-level fields directly, component
    fields by name, and params keys otherwise (``model.params.<key>`` for
    substrate extras).  Raises :class:`ExperimentError` for paths that
    address nothing, so figure directives fail loudly instead of plotting
    blanks.
    """
    head, _, rest = path.partition(".")
    field_names = {f.name for f in dataclasses.fields(spec)}
    if head not in field_names:
        raise ExperimentError(
            f"path {path!r} does not address an ExperimentSpec field"
        )
    sub = getattr(spec, head)
    if not rest:
        return sub
    if sub is None:
        raise ExperimentError(f"path {path!r} addresses {head!r}, which is None")
    if isinstance(sub, (ModelSpec, _KindSpec)):
        sub_fields = {f.name for f in dataclasses.fields(sub)}
        if rest in sub_fields and rest != "params":
            return getattr(sub, rest)
        if rest.startswith("params."):
            key = rest[len("params.") :]
            if key in sub.params:
                return sub.params[key]
        elif not isinstance(sub, ModelSpec) and rest in sub.params:
            return sub.params[rest]
        raise ExperimentError(f"path {path!r} addresses nothing on {head!r}")
    raise ExperimentError(f"path {path!r} addresses a non-spec field")


class Sweep:
    """Spec-grid builders."""

    @staticmethod
    def grid(
        base: ExperimentSpec,
        axes: Mapping[str, Sequence[Any]] | None = None,
        repeats: int = 1,
        derive_seeds: bool = True,
    ) -> list[ExperimentSpec]:
        """The cartesian product of ``axes`` applied to ``base``.

        Args:
            base: The spec every grid point starts from.
            axes: Dotted path → values (see :func:`with_path`).  ``None``
                or empty sweeps nothing but still honors ``repeats``.
            repeats: Independent replications of every grid point.
            derive_seeds: Give each produced spec
                ``derive_seed(base.seed, point-label)`` so points are
                independent streams.  Skipped when the caller sweeps
                ``seed`` explicitly; with ``derive_seeds=False`` every
                point inherits its swept/base seed verbatim.

        Returns:
            Specs in deterministic (sorted-axis, row-major) order.
        """
        if repeats < 1:
            raise ExperimentError(f"repeats must be >= 1, got {repeats}")
        axes = dict(axes or {})
        if "seed" in axes and repeats > 1:
            raise ExperimentError(
                "sweeping an explicit 'seed' axis with repeats > 1 would "
                "duplicate identical runs; drop the axis or set repeats=1"
            )
        keys = sorted(axes)
        for key, values in axes.items():
            if not values:
                raise ExperimentError(f"sweep axis {key!r} has no values")
        specs: list[ExperimentSpec] = []
        for values in itertools.product(*(axes[key] for key in keys)):
            point = base
            # Apply *.kind axes before sibling param axes: a grid pairing
            # "fault.kind" with "fault.fraction" must set the kind first,
            # or the intermediate spec (e.g. kind "none" + params) would
            # fail component validation.  Labels and derived seeds still
            # use the sorted-axis order, so existing sweeps are unchanged.
            ordered = sorted(
                zip(keys, values),
                key=lambda kv: (kv[0].rpartition(".")[2] != "kind", kv[0]),
            )
            for key, value in ordered:
                point = with_path(point, key, value)
            label = ",".join(f"{k}={v}" for k, v in zip(keys, values))
            for rep in range(repeats):
                tag = f"{label}#{rep}" if label else f"#{rep}"
                produced = dataclasses.replace(
                    point, name=f"{base.name}[{tag}]"
                )
                if derive_seeds and "seed" not in axes:
                    produced = dataclasses.replace(
                        produced, seed=derive_seed(base.seed, f"sweep/{tag}")
                    )
                specs.append(produced)
        return specs

    @staticmethod
    def seeds(base: ExperimentSpec, count: int) -> list[ExperimentSpec]:
        """``count`` independent replications of one spec."""
        return Sweep.grid(base, axes=None, repeats=count)


def _run_with_options(
    spec: ExperimentSpec, options: RunOptions
) -> ExperimentResult:
    """One sweep point under ``options``, sweep-safe.

    The substrate's ``raw`` handle is always dropped (engine objects are
    neither picklable nor comparable across processes); the tuple of
    :class:`Observation` records — plain named tuples — travels back to
    the parent when ``options.keep_raw`` asks for it, which is what
    journaling campaign sweeps persist.
    """
    result = run(spec, options)
    if result.raw is not None:
        result = dataclasses.replace(result, raw=None)
    return result


@dataclass(frozen=True)
class SweepResult:
    """Aggregated outcome of a sweep, in submission order."""

    results: tuple[ExperimentResult, ...]

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[ExperimentResult]:
        return iter(self.results)

    def __getitem__(self, index: int) -> ExperimentResult:
        return self.results[index]

    @property
    def solved_rate(self) -> float:
        """Fraction of runs that solved (0.0 for an empty sweep)."""
        if not self.results:
            return 0.0
        return sum(1 for r in self.results if r.solved) / len(self.results)

    def completion_times(self, solved_only: bool = True) -> list[float]:
        """Completion times (unsolved runs excluded by default)."""
        return [
            r.completion_time
            for r in self.results
            if r.solved or not solved_only
        ]

    def completion_summary(self) -> Summary:
        """Mean/spread summary of solved completion times."""
        return summarize(self.completion_times())

    def completion_percentiles(
        self, ps: Iterable[float] = DEFAULT_PERCENTILES
    ) -> dict[float, float]:
        """Completion-time percentiles over the solved runs."""
        times = self.completion_times()
        return {p: percentile(times, p) for p in ps}

    def metric(self, key: str) -> list[float]:
        """One scalar metric across all runs (missing entries skipped)."""
        return [r.metrics[key] for r in self.results if key in r.metrics]

    def table_rows(self) -> list[dict[str, Any]]:
        """Per-run rows for :func:`repro.analysis.tables.render_table`."""
        return [
            {
                "name": r.spec.name,
                "seed": r.spec.seed,
                "solved": r.solved,
                "completion": r.completion_time,
                "broadcasts": r.broadcast_count,
                "wall s": round(r.wall_time, 4),
            }
            for r in self.results
        ]


def run_sweep(
    specs: Iterable[ExperimentSpec],
    workers: int | None = None,
    options: RunOptions | None = None,
) -> SweepResult:
    """Run every spec and aggregate the summaries.

    Args:
        specs: The specs to run (order is preserved in the result).
        workers: ``None`` or ``<= 1`` runs serially in-process; otherwise
            the campaign fabric's supervised worker processes (no store,
            no retries) fan the specs out.  Results are identical either
            way — every run is seed-deterministic and summaries carry no
            live objects.
        options: Per-point capture options (see
            :class:`~repro.experiments.specs.RunOptions`); ``None`` means
            :meth:`RunOptions.summary`.  ``RunOptions.observed()`` carries
            each run's typed observation stream back in
            ``result.observations`` (``raw`` stays dropped) — for
            journaling sweeps, since memory grows with the event count.
            ``options.journal`` is rejected — a single journal path cannot
            hold many points; journaling sweeps capture streams and
            persist them per point (the campaign store does exactly that).

    Returns:
        The :class:`SweepResult`.

    Raises:
        ExperimentError: ``options.journal`` is set, or a point of a
            parallel sweep failed (the message names the point and the
            worker's ``Type: message``).  A serial sweep lets a point's
            exception propagate unchanged.
    """
    if options is None:
        options = RunOptions.summary()
    elif options.journal is not None:
        raise ExperimentError(
            "options.journal is per-run and cannot journal a sweep; "
            "capture streams with RunOptions(keep_raw=True) and "
            "persist them per point instead"
        )
    spec_list = list(specs)
    if workers is None or workers <= 1 or len(spec_list) <= 1:
        results = [_run_with_options(spec, options) for spec in spec_list]
        return SweepResult(tuple(results))
    # Imported here so importing this module does not load the fabric
    # (and with it the campaign store) for serial sweeps.
    from repro.campaigns.supervision import (
        FabricConfig,
        FabricJob,
        run_supervised,
    )

    jobs = [
        FabricJob(position=index, label=spec.name, spec=spec, options=options)
        for index, spec in enumerate(spec_list)
    ]
    outcome = run_supervised(
        jobs, None, FabricConfig(workers=workers, max_retries=0)
    )
    if outcome.failed:
        index, error = min(outcome.failed.items())
        raise ExperimentError(
            f"sweep point {index} {spec_list[index].name!r} failed: {error}"
            f" ({len(outcome.failed)} of {len(spec_list)} points failed)"
        )
    return SweepResult(
        tuple(outcome.results[index] for index in range(len(spec_list)))
    )
