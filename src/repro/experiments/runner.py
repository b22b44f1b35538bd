"""The single entry point: ``run(spec) -> ExperimentResult``.

``run`` contains no substrate-specific dispatch.  It resolves the spec's
substrate from the :data:`~repro.experiments.substrates.SUBSTRATES`
registry, enforces the substrate's declared capabilities (faults,
arrivals), builds a shared
:class:`~repro.experiments.substrates.ExecutionContext` (seed-derived
streams, topology, workload, fault engine), and hands the context to the
engine:

    substrate = SUBSTRATES.get(spec.substrate)
    outcome = substrate.execute(ExecutionContext(spec, keep_raw))

Everything engine-specific — the five built-in substrates ``standard``,
``protocol``, ``rounds``, ``radio``, and ``sinr``, plus any third-party
``@register_substrate`` entry — lives in
:mod:`repro.experiments.substrates`.  Stream derivation is fixed and
documented there: the root stream is ``RandomSource(spec.seed,
"experiment")`` and components draw from the children ``topology``,
``scheduler``, ``workload``, ``radio``, and ``faults``.

This module keeps the substrate-independent result type
(:class:`ExperimentResult`) and re-exports the materialization helpers
(``materialize_topology`` and friends) that predate the substrate API.
"""

from __future__ import annotations

import math
import sys
import time as _time
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.experiments.specs import ExperimentSpec, RunOptions
from repro.experiments.substrates import (
    FAULT_STREAM,
    ROOT_STREAM,
    SUBSTRATES,
    ExecutionContext,
    RadioRun,
    check_capabilities,
    check_model_params,
    check_workload_capability,
    clear_topology_cache,
    materialize_fault_engine,
    materialize_topology,
    materialize_workload,
    root_stream,
)
from repro.runtime.journal import write_journal
from repro.runtime.observations import Observation

#: The helpers in ``__all__`` that live in
#: :mod:`repro.experiments.substrates` are re-exported on purpose: the
#: pre-substrate dispatcher lived here, and perfbench's driver still
#: imports ``clear_topology_cache`` (some tests ``ROOT_STREAM``) from this
#: module.  New code imports them from ``substrates``; ``RunOptions`` is
#: re-exported from :mod:`repro.experiments.specs` for the same reason.
__all__ = [
    "ExperimentResult",
    "RadioRun",
    "RunOptions",
    "run",
    "encode_float",
    "decode_float",
    "ROOT_STREAM",
    "FAULT_STREAM",
    "SUBSTRATES",
    "ExecutionContext",
    "check_capabilities",
    "check_workload_capability",
    "clear_topology_cache",
    "materialize_fault_engine",
    "materialize_topology",
    "materialize_workload",
    "root_stream",
]


@dataclass(frozen=True)
class ExperimentResult:
    """Substrate-independent summary of one spec execution.

    Equality ignores ``wall_time``, ``raw``, and ``observations``, so two
    runs of the same spec — in the same process or different ones —
    compare equal exactly when their observable outcomes match.

    Attributes:
        spec: The spec that produced this result.
        solved: Whether the execution met its success criterion (MMB
            solved; protocol postcondition at quiescence; radio-family MMB
            solved within the slot budget).
        completion_time: Solution time (substrate units: simulated time,
            or slots × slot duration for the radio family); ``inf`` when
            unsolved.
        broadcast_count: Number of ``bcast`` events (0 on the rounds
            substrate, which counts rounds in ``metrics`` instead).
        delivered_count: Number of recorded MMB deliveries.
        metrics: Substrate-specific scalar metrics (round counts,
            empirical bounds, event totals, ...) — exactly the gauges the
            substrate registered on its execution probe.
        series: Named non-scalar curves — ``(x, y)`` point tuples the
            probe registered (per-window latency/throughput on
            open-arrival runs).  Deterministic, serialized, and part of
            equality like ``metrics``.
        wall_time: Host seconds the run took (excluded from equality).
        raw: The substrate's native result object (``RunResult``,
            ``ProtocolRun``, ``FMMBResult``, or ``RadioRun``); ``None``
            when summarized for a sweep.  Excluded from equality.
        observations: The typed observation stream (see
            :mod:`repro.runtime.observations`), with run-level
            ``profile`` markers appended by ``run``; empty on
            ``keep_raw=False`` runs.  Excluded from equality and
            serialization (persist it with
            ``run(spec, RunOptions(journal=...))``).
    """

    spec: ExperimentSpec
    solved: bool
    completion_time: float
    broadcast_count: int
    delivered_count: int
    metrics: dict[str, float] = field(default_factory=dict)
    series: dict[str, tuple[tuple[float, float], ...]] = field(
        default_factory=dict
    )
    wall_time: float = field(default=0.0, compare=False)
    raw: Any = field(default=None, compare=False, repr=False)
    observations: tuple[Observation, ...] = field(
        default=(), compare=False, repr=False
    )

    def to_dict(self) -> dict[str, Any]:
        """The summary as a strict-JSON dict (``raw``/``wall_time``/
        ``observations`` dropped).

        Non-finite floats are encoded as strings (``"inf"``, ``"-inf"``,
        ``"nan"``) so the document survives strict JSON parsers and hashes
        identically everywhere.  ``from_dict(to_dict(r)) == r`` because
        equality already ignores the dropped fields.
        """
        return {
            "spec": self.spec.to_dict(),
            "solved": self.solved,
            "completion_time": encode_float(self.completion_time),
            "broadcast_count": self.broadcast_count,
            "delivered_count": self.delivered_count,
            "metrics": {
                key: encode_float(value)
                for key, value in sorted(self.metrics.items())
            },
            "series": {
                name: [
                    [encode_float(x), encode_float(y)] for x, y in points
                ]
                for name, points in sorted(self.series.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentResult":
        """Rebuild a summary written by :meth:`to_dict`."""
        return cls(
            spec=ExperimentSpec.from_dict(data["spec"]),
            solved=bool(data["solved"]),
            completion_time=decode_float(data["completion_time"]),
            broadcast_count=int(data["broadcast_count"]),
            delivered_count=int(data["delivered_count"]),
            metrics={
                key: decode_float(value)
                for key, value in data.get("metrics", {}).items()
            },
            series={
                name: tuple(
                    (decode_float(x), decode_float(y)) for x, y in points
                )
                for name, points in data.get("series", {}).items()
            },
        )


def encode_float(value: float) -> float | str:
    """A float as a strict-JSON value (non-finite become strings)."""
    number = float(value)
    return number if math.isfinite(number) else repr(number)


def decode_float(value: Any) -> float:
    """Invert :func:`encode_float` (accepts plain numbers too)."""
    return float(value)


def _profile_observations(
    ctx: ExecutionContext,
    outcome,
    setup_seconds: float,
    execute_seconds: float,
    heap_blocks_delta: int,
) -> tuple[Observation, ...]:
    """Run-level profiling as ``profile`` observations.

    One record per gauge, stamped at the stream's last event time (with
    ``profile`` ordered last among kinds, appending keeps the stream
    chronological).  These carry wall-clock and allocator numbers, so
    they are machine-dependent by design — journal writers exclude them
    by default and they never enter ``metrics`` or result equality.
    """
    end = max((o.time for o in outcome.observations), default=0.0)
    events = 0.0
    for key in ("sim_events", "slots"):
        if key in outcome.metrics:
            events = outcome.metrics[key]
            break
    else:
        events = float(len(outcome.observations))
    gauges = {
        "wall_setup_s": setup_seconds,
        "wall_execute_s": execute_seconds,
        "events_per_s": (
            events / execute_seconds if execute_seconds > 0 else 0.0
        ),
        "heap_blocks_delta": float(heap_blocks_delta),
        "rng_draws": float(ctx.root.draws),
    }
    return tuple(
        Observation(time=end, kind="profile", key=key, value=value)
        for key, value in sorted(gauges.items())
    )


def run(
    spec: ExperimentSpec, options: RunOptions | None = None
) -> ExperimentResult:
    """Execute one spec on its substrate and summarize the outcome.

    Args:
        spec: The experiment description.
        options: Capture/persistence options (see :class:`RunOptions`);
            ``None`` means the defaults.

    Returns:
        The :class:`ExperimentResult`.

    Raises:
        ExperimentError: Unknown substrate, a capability mismatch
            (e.g. a fault scenario on a substrate with
            ``supports_faults=False``), or a ``model.params`` key the
            substrate does not read.
    """
    opts = options if options is not None else RunOptions()
    substrate = SUBSTRATES.get(spec.substrate)
    check_capabilities(spec, substrate)
    check_model_params(spec, substrate)
    started = _time.perf_counter()
    record_stream = opts.keep_raw or opts.journal is not None
    ctx = ExecutionContext(
        spec,
        keep_raw=record_stream,
        window=opts.window,
        max_windows=opts.max_windows,
    )
    check_workload_capability(ctx, substrate)
    count_blocks = getattr(sys, "getallocatedblocks", lambda: 0)
    setup_seconds = _time.perf_counter() - started
    blocks_before = count_blocks()
    outcome = substrate.execute(ctx)
    execute_seconds = _time.perf_counter() - started - setup_seconds
    observations = outcome.observations
    if observations:
        observations += _profile_observations(
            ctx,
            outcome,
            setup_seconds,
            execute_seconds,
            count_blocks() - blocks_before,
        )
    if opts.journal is not None:
        write_journal(
            opts.journal, observations, meta={"spec": spec.to_dict()}
        )
    return ExperimentResult(
        spec=spec,
        solved=outcome.solved,
        completion_time=outcome.completion_time,
        broadcast_count=outcome.broadcast_count,
        delivered_count=outcome.delivered_count,
        metrics=outcome.metrics,
        series=outcome.series,
        wall_time=_time.perf_counter() - started,
        raw=outcome.raw if opts.keep_raw else None,
        observations=observations if opts.keep_raw else (),
    )
