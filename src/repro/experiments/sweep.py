"""Parameter sweeps over experiment specs, serial or process-parallel.

:meth:`Sweep.grid` expands a base spec over axes addressed by dotted paths
(``"topology.n"``, ``"model.fack"``, ``"scheduler.p_unreliable"``,
``"seed"``), deriving an independent per-point seed from the base seed so
replicated points are statistically independent yet exactly reproducible.
:func:`run_sweep` executes a spec list — serially, or fanned out over a
:class:`multiprocessing.Pool` — and aggregates the summaries in a
:class:`SweepResult` (rates, summary statistics, percentiles).

Because specs are frozen value objects and results summarize to plain
scalars, a parallel sweep returns *exactly* the results of a serial one,
in the same order; only the wall clock differs.
"""

from __future__ import annotations

import dataclasses
import itertools
import multiprocessing
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.analysis.stats import Summary, percentile, summarize
from repro.errors import ExperimentError
from repro.experiments.runner import ExperimentResult, RunOptions, run
from repro.experiments.specs import ExperimentSpec, ModelSpec, _KindSpec
from repro.sim.rng import derive_seed

#: Percentiles reported by default in sweep summaries.
DEFAULT_PERCENTILES = (50.0, 90.0, 99.0)


def _with_path(spec: ExperimentSpec, path: str, value: Any) -> ExperimentSpec:
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


def with_path(spec: ExperimentSpec, path: str, value: Any) -> ExperimentSpec:
    """Public alias of :func:`_with_path` (campaign expansion uses it)."""
    return _with_path(spec, path, value)


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
            axes: Dotted path → values (see :func:`_with_path`).  ``None``
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
                point = _with_path(point, key, value)
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
    neither picklable nor comparable across processes); the typed
    :class:`Observation` tuple — plain frozen records — travels back to
    the parent when ``options.keep_raw`` asks for it, which is what
    journaling campaign sweeps persist.
    """
    result = run(spec, options)
    if result.raw is not None:
        result = dataclasses.replace(result, raw=None)
    return result


def _run_summary(spec: ExperimentSpec) -> ExperimentResult:
    """Top-level worker function (must be picklable for process pools)."""
    return _run_with_options(spec, RunOptions.summary())


def _run_observed(spec: ExperimentSpec) -> ExperimentResult:
    """Summary worker that keeps the observation stream."""
    return _run_with_options(spec, RunOptions.observed())


def _run_indexed(
    job: tuple[int, ExperimentSpec, RunOptions],
) -> tuple[int, ExperimentResult]:
    """Chunk-friendly worker: tags each summary with its submission index.

    ``imap_unordered`` returns results in completion order; the index lets
    the parent restore submission order exactly, so a parallel sweep stays
    byte-identical to a serial one.
    """
    index, spec, options = job
    return index, _run_with_options(spec, options)


def _run_indexed_observed(
    job: tuple[int, ExperimentSpec],
) -> tuple[int, ExperimentResult]:
    """Indexed variant of :func:`_run_observed` (parallel journaling)."""
    index, spec = job
    return index, _run_observed(spec)


def default_chunksize(jobs: int, workers: int) -> int:
    """A sensible ``imap_unordered`` chunk size.

    Large enough to amortize pickling/IPC per task (each worker receives
    whole chunks of specs at once and deserializes them together), small
    enough to keep ~4 chunks per worker in flight for load balancing.
    """
    if workers <= 0:
        return 1
    return max(1, jobs // (workers * 4))


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
    chunksize: int | None = None,
    keep_observations: bool = False,
    options: RunOptions | None = None,
) -> SweepResult:
    """Run every spec and aggregate the summaries.

    Args:
        specs: The specs to run (order is preserved in the result).
        workers: ``None`` or ``<= 1`` runs serially in-process; otherwise a
            :class:`multiprocessing.Pool` with that many workers fans the
            specs out.  Results are identical either way — every run is
            seed-deterministic and summaries carry no live objects.
        chunksize: Specs handed to a worker per task (parallel mode only).
            Chunking amortizes per-point pickling/dispatch — each worker
            process deserializes a whole chunk at once and reuses its
            warm interpreter (imported registries, topology caches) across
            the chunk instead of paying per-point setup.  Defaults to
            :func:`default_chunksize`.
        keep_observations: Carry each run's typed observation stream back
            in ``result.observations`` (``raw`` stays dropped).  Summary
            equality is unaffected — the field is excluded from
            comparison — but memory grows with the event count, so this
            is for journaling sweeps, not routine aggregation.  Shorthand
            for ``options=RunOptions.observed()``.
        options: Per-point capture options (see
            :class:`~repro.experiments.runner.RunOptions`); mutually
            exclusive with ``keep_observations``.  ``options.journal`` is
            rejected — a single journal path cannot hold many points;
            journaling sweeps capture streams (``keep_raw``) and persist
            them per point (the campaign store does exactly that).

    Returns:
        The :class:`SweepResult`.
    """
    if options is not None:
        if keep_observations:
            raise ExperimentError(
                "pass either options=RunOptions(...) or "
                "keep_observations=True, not both"
            )
        if options.journal is not None:
            raise ExperimentError(
                "options.journal is per-run and cannot journal a sweep; "
                "capture streams with RunOptions(keep_raw=True) and "
                "persist them per point instead"
            )
    else:
        options = (
            RunOptions.observed() if keep_observations else RunOptions.summary()
        )
    spec_list = list(specs)
    if workers is not None and workers > 1 and len(spec_list) > 1:
        if chunksize is None:
            chunksize = default_chunksize(len(spec_list), workers)
        if chunksize < 1:
            raise ExperimentError(f"chunksize must be >= 1, got {chunksize}")
        jobs = [
            (index, spec, options) for index, spec in enumerate(spec_list)
        ]
        ordered: list[ExperimentResult | None] = [None] * len(jobs)
        # Workers fork from this process (the default start method on
        # Linux): importing networkx once here, not in every worker, keeps
        # the import out of each point's wall time.
        import networkx  # noqa: F401

        with multiprocessing.Pool(processes=workers) as pool:
            for index, result in pool.imap_unordered(
                _run_indexed, jobs, chunksize=chunksize
            ):
                ordered[index] = result
        results = [r for r in ordered if r is not None]
        if len(results) != len(jobs):  # pragma: no cover - defensive
            raise ExperimentError("parallel sweep lost results")
    else:
        results = [_run_with_options(spec, options) for spec in spec_list]
    return SweepResult(tuple(results))
