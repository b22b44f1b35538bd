"""First-class execution substrates: the pluggable engine layer of ``run``.

A *substrate* is an execution engine that can run an
:class:`~repro.experiments.specs.ExperimentSpec` end to end.  The package
ships five:

* ``standard`` — event-driven abstract MAC (standard/enhanced layers, MMB
  workloads) via :func:`repro.runtime.runner.run_standard`;
* ``protocol`` — wakeup-driven protocols (leader election, consensus; no
  arrivals) via :func:`repro.runtime.runner.run_protocol`;
* ``rounds`` — FMMB's lock-step round substrate via
  :func:`repro.core.fmmb.run_fmmb`;
* ``radio`` — the slotted collision radio below the abstraction
  (:class:`repro.radio.RadioMACLayer` over
  :class:`repro.radio.SlottedRadioNetwork`);
* ``sinr`` — the same MAC adapter over an SINR-reception radio
  (:class:`repro.radio.SINRRadioNetwork`): distance-based
  signal-to-interference threshold on an embedded topology.

Substrates are registry entries, exactly like topologies and schedulers:
``@register_substrate("name")`` on a :class:`SubstrateBase` subclass makes
the engine spec-expressible (``ExperimentSpec(substrate="name")``),
sweepable (a ``"substrate"`` axis), and visible to the CLI
(``python -m repro registry``).  ``run(spec)`` contains no
substrate-specific dispatch — it resolves the entry and calls
:meth:`Substrate.execute`.

The contract:

* **capabilities** — every substrate declares ``supports_faults``,
  ``supports_arrivals``, and its ``scheduler_role`` (``"explicit"``: the
  spec's scheduler drives message timing; ``"seeded"``: the engine derives
  its own round scheduler from ``spec.seed``; ``"emergent"``: contention
  *is* the scheduler).  ``run`` enforces capabilities up front with a
  clear :class:`~repro.errors.ExperimentError` instead of a deep
  traceback.
* **prepare(ctx) → Execution** — resolve every component from the shared
  :class:`ExecutionContext` (topology, algorithm, scheduler, workload,
  fault engine — all built from the documented seed-derived streams).
* **execute(ctx) → Outcome** — run the prepared execution and summarize
  it: verdict, completion, counters, metric gauges, and the typed
  observation stream (:mod:`repro.runtime.observations`), emitted
  *after* the engine ran so observation capture never perturbs a single
  RNG draw.

Stream derivation is centralized here and fixed: the root stream is
``RandomSource(spec.seed, "experiment")`` and components draw from the
children ``topology``, ``scheduler``, ``workload``, ``radio``, and
``faults``.  The ``rounds`` substrate passes ``spec.seed`` straight to
``run_fmmb`` so a spec run reproduces the legacy entry point exactly.
Same-seed executions are bit-identical to the pre-registry dispatcher
(``tests/test_perf_golden.py`` replays byte-for-byte).

Writing a new substrate (see the README's "Writing a new substrate" for
the worked ``sinr`` example)::

    from repro.experiments.substrates import (
        Execution, Outcome, SubstrateBase, register_substrate,
    )

    @register_substrate("my_engine")
    class MySubstrate(SubstrateBase):
        \"\"\"One-line description (shown by ``repro registry``).\"\"\"

        supports_faults = False
        scheduler_role = "seeded"

        def prepare(self, ctx):
            dual = ctx.dual                     # seed-derived topology
            workload = ctx.time_zero_workload(self.name)
            def _run():
                ...run the engine...
                ctx.probe.gauge("my_metric", 1.0)
                return self.outcome(ctx, solved=True, completion_time=0.0)
            return Execution(ctx, _run)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol, runtime_checkable

from repro.core.fmmb import run_fmmb
from repro.core.problem import ArrivalSchedule
from repro.errors import ExperimentError, MACError
from repro.experiments.registries import (
    ALGORITHMS,
    FAULTS,
    MACS,
    SCHEDULERS,
    TOPOLOGIES,
    WORKLOADS,
    AlgorithmEntry,
    Registry,
)
from repro.experiments.specs import (
    AlgorithmSpec,
    ExperimentSpec,
    ModelSpec,
    SchedulerSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.faults.engine import FaultEngine
from repro.ids import MessageAssignment
from repro.runtime.observations import Observation, Probe
from repro.runtime.runner import run_protocol, run_standard
from repro.runtime.validate import MMBOutcome, mmb_outcome
from repro.sim.rng import RandomSource
from repro.topology.dualgraph import DualGraph

#: Name of the root stream every spec-driven execution derives from.
ROOT_STREAM = "experiment"
#: Child stream fault scenarios compile their plans from.
FAULT_STREAM = "faults"

#: The substrate registry: string key -> :class:`Substrate` instance.
SUBSTRATES = Registry("substrate")

#: The scheduler roles a substrate may declare.
SCHEDULER_ROLES = ("explicit", "seeded", "emergent")


def root_stream(spec: ExperimentSpec) -> RandomSource:
    """The root random stream of a spec execution."""
    return RandomSource(spec.seed, ROOT_STREAM)


# ----------------------------------------------------------------------
# Component materialization (shared by substrates, the CLI, and tests)
# ----------------------------------------------------------------------
#: Process-local memo of built topologies.  Keyed by (kind, params, seed),
#: so a hit returns the *identical* (deterministically built, immutable)
#: network — sweep workers that run many points over the same topology
#: (explicit seeds, ``derive_seeds=False``) skip the rebuild per point.
_TOPOLOGY_CACHE: dict[str, DualGraph] = {}
_TOPOLOGY_CACHE_MAX = 8


def clear_topology_cache() -> None:
    """Drop the process-local topology memo.

    Benchmarks call this between timed repeats so every repeat pays the
    cold build (a cache hit would misattribute build cost to execution
    and make comparisons against cacheless revisions unfair).
    """
    _TOPOLOGY_CACHE.clear()


def materialize_topology(spec: ExperimentSpec) -> DualGraph:
    """Build the spec's network exactly as :func:`~repro.experiments.run`
    will.

    Useful for computing topology-dependent model constants (diameters,
    contention-provisioned ``Fack``) before constructing the final spec:
    the build is deterministic in ``spec.seed`` and ``spec.topology``, so
    the network returned here is the one the run will use.  Results are
    memoized per process (the build is pure and :class:`DualGraph` is
    immutable, so sharing the object is safe).
    """
    stream = root_stream(spec).child("topology")
    key = (
        f"{spec.topology.kind}|"
        f"{sorted(spec.topology.params.items())!r}|{stream.seed}"
    )
    cached = _TOPOLOGY_CACHE.get(key)
    if cached is not None:
        return cached
    build = TOPOLOGIES.get(spec.topology.kind)
    dual = build(stream, **spec.topology.params)
    if len(_TOPOLOGY_CACHE) >= _TOPOLOGY_CACHE_MAX:
        _TOPOLOGY_CACHE.clear()
    _TOPOLOGY_CACHE[key] = dual
    return dual


#: A point's bound inputs: ``{"diameter": reliable hop diameter}`` (see
#: :func:`topology_facts`).
Facts = dict[str, int]


def topology_facts(spec: ExperimentSpec) -> Facts:
    """The bound inputs of the spec's network: ``{"diameter"}``.

    ``diameter`` is the reliable graph's hop diameter of the static
    network (:meth:`DualGraph.diameter`), never a fault view.  Campaign
    workers record these facts in each store entry so bound checks read
    them instead of rebuilding the network; this call is the fallback
    for entries written without them.
    """
    return {"diameter": materialize_topology(spec).diameter()}


def materialize_workload(spec: ExperimentSpec, dual: DualGraph):
    """Build the spec's workload against an already-built network."""
    if spec.workload is None:
        raise ExperimentError(
            f"substrate {spec.substrate!r} needs a workload, got None"
        )
    build = WORKLOADS.get(spec.workload.kind)
    return build(dual, root_stream(spec).child("workload"), **spec.workload.params)


def materialize_fault_engine(
    spec: ExperimentSpec, dual: DualGraph
) -> FaultEngine | None:
    """Compile the spec's fault scenario into an engine (None when off).

    The plan draws only from the ``faults`` child stream, so enabling or
    tuning faults never perturbs the topology/scheduler/workload streams —
    and ``FaultSpec("none")`` builds nothing at all, keeping fault-free
    specs bit-identical to pre-fault behavior.
    """
    fault = spec.fault
    if fault is None or not fault.enabled:
        return None
    build = FAULTS.get(fault.kind)
    try:
        plan = build(dual, root_stream(spec).child(FAULT_STREAM), **fault.params)
    except TypeError as exc:
        # A param the builder doesn't take, or a value of the wrong type:
        # surface it as a spec-composition error, not a traceback.
        raise ExperimentError(
            f"fault scenario {fault.kind!r} rejected params "
            f"{sorted(fault.params)}: {exc}"
        ) from exc
    return FaultEngine(dual, plan)


def _static_assignment(workload) -> MessageAssignment:
    if isinstance(workload, ArrivalSchedule):
        return workload.as_assignment()
    return workload


def _arrival_capable_substrates() -> list[str]:
    """Registered substrates declaring ``supports_arrivals=True`` (live —
    includes third-party registrations)."""
    return sorted(
        name
        for name in SUBSTRATES
        if getattr(SUBSTRATES.get(name), "supports_arrivals", False)
    )


def _arrival_rejection(substrate_name: str, workload_kind: str | None) -> str:
    """The capability-rejection message for timed arrivals on a time-0
    substrate: names the substrate, the workload kind, and which
    registered substrates do take arrival schedules."""
    capable = ", ".join(_arrival_capable_substrates()) or "none registered"
    kind = f"workload {workload_kind!r}" if workload_kind else "the workload"
    return (
        f"the {substrate_name} substrate takes time-0 assignments, "
        f"not arrival schedules, but {kind} produced timed arrivals; "
        f"arrival-capable substrates: {capable}"
    )


# ----------------------------------------------------------------------
# The execution context: one per run, shared component derivation
# ----------------------------------------------------------------------
_UNSET = object()


class ExecutionContext:
    """Everything a substrate needs to run one spec, derived one way.

    Centralizes the stream-derivation contract (root stream
    ``RandomSource(spec.seed, "experiment")``; children by fixed names),
    topology materialization, workload construction, and fault-engine
    compilation, so substrates cannot drift from the documented contract.
    Components are built lazily and memoized — a substrate that never asks
    for a scheduler never derives the ``scheduler`` stream.

    Attributes:
        spec: The experiment being executed.
        keep_raw: Whether the run retains native result objects and the
            observation stream (disabled for sweep summaries).
        window: Observation-window width for long-horizon service runs
            (``None`` off); the probe folds events into O(window-count)
            aggregates instead of retaining the raw stream.
        probe: The run's :class:`~repro.runtime.observations.Probe`;
            substrates register metric gauges and emit observations here.
        root: The root random stream.
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        keep_raw: bool = True,
        window: float | None = None,
        max_windows: int | None = None,
    ):
        self.spec = spec
        self.keep_raw = keep_raw
        self.window = window
        self.probe = Probe(window=window, max_windows=max_windows)
        self.root = root_stream(spec)
        self._dual: DualGraph | None = None
        self._workload: Any = _UNSET
        self._engine: Any = _UNSET

    @property
    def record_observations(self) -> bool:
        """Whether substrates should emit observations for this run.

        True on ``keep_raw`` runs (raw stream retained) and on windowed
        runs (events folded into bounded aggregates); summary-only runs
        skip emission entirely.
        """
        return self.keep_raw or self.window is not None

    def stream(self, name: str) -> RandomSource:
        """The named child stream of the run's root stream."""
        return self.root.child(name)

    @property
    def dual(self) -> DualGraph:
        """The materialized network (memoized)."""
        if self._dual is None:
            self._dual = materialize_topology(self.spec)
        return self._dual

    def algorithm_entry(self, substrate_name: str) -> AlgorithmEntry:
        """The spec's algorithm entry, checked against the substrate."""
        entry = ALGORITHMS.get(self.spec.algorithm.kind)
        if substrate_name not in entry.substrates:
            raise ExperimentError(
                f"algorithm {self.spec.algorithm.kind!r} does not run on "
                f"substrate {substrate_name!r} "
                f"(supported: {', '.join(entry.substrates)})"
            )
        return entry

    def build_algorithm(self, substrate_name: str):
        """The algorithm's factory/config, built with the spec's params."""
        return self.algorithm_entry(substrate_name).build(
            **self.spec.algorithm.params
        )

    def scheduler(self):
        """The spec's message scheduler over the ``scheduler`` stream."""
        return SCHEDULERS.get(self.spec.scheduler.kind)(
            self.stream("scheduler"), **self.spec.scheduler.params
        )

    def mac_class(self):
        """The MAC-layer entry named by ``spec.model.mac``."""
        return MACS.get(self.spec.model.mac)

    def workload(self):
        """The spec's workload over the ``workload`` stream (memoized)."""
        if self._workload is _UNSET:
            self._workload = materialize_workload(self.spec, self.dual)
        return self._workload

    def time_zero_workload(self, substrate_name: str) -> MessageAssignment:
        """The workload, rejected if it carries timed arrivals."""
        workload = self.workload()
        if isinstance(workload, ArrivalSchedule):
            kind = self.spec.workload.kind if self.spec.workload else None
            raise ExperimentError(_arrival_rejection(substrate_name, kind))
        return workload

    def fault_engine(self) -> FaultEngine | None:
        """The compiled fault engine, or None when faults are off
        (memoized)."""
        if self._engine is _UNSET:
            self._engine = materialize_fault_engine(self.spec, self.dual)
        return self._engine

    # ------------------------------------------------------------------
    # Observation helpers shared by the MMB substrates
    # ------------------------------------------------------------------
    def observe_workload_arrivals(self) -> None:
        """Emit one ``arrival`` observation per environment input."""
        workload = self.workload()
        if isinstance(workload, ArrivalSchedule):
            self.probe.observe_arrivals(
                (a.node, a.message.mid, a.time)
                for a in workload.sorted_by_time()
            )
        else:
            self.probe.observe_arrivals(
                (node, message.mid, 0.0)
                for node, messages in sorted(workload.messages.items())
                for message in messages
            )

    def observe_faults(self) -> None:
        """Emit the fault timeline when a fault engine is installed."""
        engine = self.fault_engine()
        if engine is not None:
            self.probe.observe_fault_plan(engine)


# ----------------------------------------------------------------------
# The substrate protocol
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Outcome:
    """What one substrate execution produced, engine-independent.

    ``run`` copies these fields onto the
    :class:`~repro.experiments.ExperimentResult` verbatim (adding
    ``spec`` and ``wall_time``).
    """

    solved: bool
    completion_time: float
    broadcast_count: int
    delivered_count: int
    metrics: dict[str, float] = field(default_factory=dict)
    raw: Any = None
    observations: tuple[Observation, ...] = ()
    series: dict[str, tuple[tuple[float, float], ...]] = field(
        default_factory=dict
    )


class Execution:
    """A prepared execution: components resolved, ready to run once."""

    def __init__(self, ctx: ExecutionContext, run: Callable[[], Outcome]):
        self.ctx = ctx
        self._run = run
        self._outcome: Outcome | None = None

    def run(self) -> Outcome:
        """Run the engine (idempotent: the outcome is cached)."""
        if self._outcome is None:
            self._outcome = self._run()
        return self._outcome


@runtime_checkable
class Substrate(Protocol):
    """What ``run`` requires of an execution engine."""

    name: str
    supports_faults: bool
    supports_arrivals: bool
    scheduler_role: str

    def prepare(self, ctx: ExecutionContext) -> Execution:
        """Resolve components and return a ready-to-run execution."""
        ...

    def execute(self, ctx: ExecutionContext) -> Outcome:
        """Run the spec end to end and summarize it."""
        ...


class SubstrateBase:
    """Base class for substrates: capability defaults + execute loop.

    Subclasses override :meth:`prepare` and the capability class
    attributes; the class docstring's first line is the one-line
    description shown by ``python -m repro registry``.
    """

    #: Registry key; filled in by :func:`register_substrate`.
    name: str = ""
    #: Whether fault/dynamics scenarios (``spec.fault``) can be injected.
    supports_faults: bool = True
    #: Whether timed arrival schedules (vs time-0 assignments) are legal.
    supports_arrivals: bool = False
    #: How message timing is decided: ``explicit`` (the spec's scheduler),
    #: ``seeded`` (engine-owned scheduler derived from the seed), or
    #: ``emergent`` (contention in the engine is the scheduler).
    scheduler_role: str = "explicit"
    #: The ``spec.model.params`` keys the substrate reads; :func:`run`
    #: rejects any other key (see :func:`check_model_params`).
    model_params: frozenset[str] = frozenset()

    def describe(self) -> str:
        """One-line description (the class docstring's first line)."""
        doc = (self.__doc__ or "").strip()
        return doc.splitlines()[0] if doc else ""

    def capabilities(self) -> dict[str, Any]:
        """The declared capability flags as a plain dict."""
        return {
            "supports_faults": self.supports_faults,
            "supports_arrivals": self.supports_arrivals,
            "scheduler_role": self.scheduler_role,
        }

    def prepare(self, ctx: ExecutionContext) -> Execution:
        raise NotImplementedError

    def execute(self, ctx: ExecutionContext) -> Outcome:
        """Prepare and run in one step (the generic ``run`` entry)."""
        return self.prepare(ctx).run()

    def outcome(
        self,
        ctx: ExecutionContext,
        solved: bool,
        completion_time: float,
        broadcast_count: int = 0,
        delivered_count: int = 0,
        raw: Any = None,
    ) -> Outcome:
        """Assemble the :class:`Outcome` from the context's probe.

        Metrics are exactly the probe's gauges; named series travel on
        every run; the observation stream is attached only on
        ``keep_raw`` runs (sweep summaries stay small and picklable).
        """
        return Outcome(
            solved=solved,
            completion_time=completion_time,
            broadcast_count=broadcast_count,
            delivered_count=delivered_count,
            metrics=ctx.probe.metrics(),
            raw=raw if ctx.keep_raw else None,
            observations=ctx.probe.events() if ctx.keep_raw else (),
            series=ctx.probe.series(),
        )


def register_substrate(name: str):
    """Register a substrate under ``name`` (class or instance).

    Classes are instantiated once; the instance's ``name`` attribute is
    set to the registry key.  The decorated object is returned unchanged,
    so the decorator works on classes and ready-made instances alike.
    """

    def _decorator(obj):
        instance = obj() if isinstance(obj, type) else obj
        instance.name = name
        if instance.scheduler_role not in SCHEDULER_ROLES:
            raise ExperimentError(
                f"substrate {name!r} declares unknown scheduler_role "
                f"{instance.scheduler_role!r}; one of "
                f"{', '.join(SCHEDULER_ROLES)}"
            )
        SUBSTRATES.register(name)(instance)
        return obj

    return _decorator


def list_substrates() -> list[str]:
    """Registered substrate keys."""
    return SUBSTRATES.names()


def get_substrate(name: str) -> Substrate:
    """The registered substrate for ``name`` (helpful error otherwise)."""
    return SUBSTRATES.get(name)


def check_capabilities(spec: ExperimentSpec, substrate: Substrate) -> None:
    """Reject spec/substrate capability mismatches with a clear error.

    Everything knowable from the spec alone is checked here (and hence at
    spec construction, via :meth:`ExperimentSpec.validate`).  Whether a
    workload carries timed arrivals is only known once the workload
    builder runs, so that half of the contract is enforced by
    :func:`check_workload_capability` just before execution.
    """
    if (
        spec.fault is not None
        and spec.fault.enabled
        and not substrate.supports_faults
    ):
        raise ExperimentError(
            f"substrate {substrate.name!r} does not support fault injection "
            f"(supports_faults=False), but the spec names fault scenario "
            f"{spec.fault.kind!r}; drop the fault or pick a fault-capable "
            "substrate"
        )


def check_model_params(spec: ExperimentSpec, substrate: Substrate) -> None:
    """Reject ``spec.model.params`` keys the substrate does not read.

    A substrate lists the keys it reads in ``model_params`` (none when it
    declares nothing), so a misspelt or retired param is a clear
    :class:`~repro.errors.ExperimentError` on every substrate instead of
    a silent no-op on one and a constructor ``TypeError`` on another.
    """
    accepted = getattr(substrate, "model_params", frozenset())
    unknown = sorted(set(spec.model.params) - accepted)
    if unknown:
        raise ExperimentError(
            f"unknown model.params key {', '.join(map(repr, unknown))} "
            f"for substrate {substrate.name!r} (accepted: "
            f"{', '.join(sorted(accepted)) or 'none'})"
        )


def check_workload_capability(
    ctx: ExecutionContext, substrate: Substrate
) -> None:
    """Reject timed-arrival workloads on substrates that declare
    ``supports_arrivals=False``.

    Materializes the workload (memoized — substrates that use it pay
    nothing extra) so the check covers third-party workload kinds, and
    runs before the engine starts so a mismatch is a clear
    :class:`~repro.errors.ExperimentError` instead of silently ignored
    arrivals.
    """
    if ctx.spec.workload is None or substrate.supports_arrivals:
        return
    if isinstance(ctx.workload(), ArrivalSchedule):
        raise ExperimentError(
            _arrival_rejection(substrate.name, ctx.spec.workload.kind)
        )


# ----------------------------------------------------------------------
# Shared steady-state service gauges (open-arrival workloads only)
# ----------------------------------------------------------------------
def _observe_steady(
    probe,
    arrival_times: dict[str, float],
    completion_times: dict[str, float],
    warmup_fraction: float,
) -> None:
    """Warmup-trimmed service gauges + per-window series onto the probe.

    Only reached when the workload is an
    :class:`~repro.traffic.OpenArrivalSchedule` (it carries
    ``warmup_fraction``), so every pre-existing workload kind keeps its
    exact metric set.  Gauges become metrics; the per-window
    latency/throughput curves become named probe series
    (``window_latency_mean`` / ``window_throughput``).  Imported lazily:
    ``repro.traffic`` registers workloads and must be importable after
    this module.
    """
    from repro.traffic.metrics import steady_state_metrics, window_series

    probe.gauges(
        steady_state_metrics(
            arrival_times, completion_times, warmup_fraction=warmup_fraction
        )
    )
    for name, points in window_series(
        arrival_times, completion_times, warmup_fraction=warmup_fraction
    ).items():
        probe.set_series(name, points)


# ----------------------------------------------------------------------
# Shared MMB verdict
# ----------------------------------------------------------------------
def _judge_mmb(
    ctx: ExecutionContext,
    workload,
    delivery_times,
    engine: FaultEngine | None,
    fault_free: MMBOutcome | None = None,
) -> MMBOutcome:
    """The run's MMB verdict, with its fault and steady-state gauges.

    Judged by :func:`~repro.runtime.validate.mmb_outcome` among survivors
    when ``engine`` is set.  Otherwise ``fault_free``, the full-component
    verdict the run already has (``RunResult.outcome``), is reused when
    given, so a fault-free run is judged once.  Open-arrival workloads
    get their steady-state gauges from the verdict's per-message times.
    """
    verdict = fault_free
    if engine is not None or verdict is None:
        timed = engine is not None and isinstance(workload, ArrivalSchedule)
        verdict = mmb_outcome(
            ctx.dual,
            _static_assignment(workload),
            delivery_times,
            engine,
            arrival_times=workload.arrival_times() if timed else None,
        )
    if engine is not None:
        metrics = engine.metrics()
        metrics.update(
            {
                "survivor_required": float(verdict.required),
                "survivor_delivered": float(verdict.met),
                "survivor_solved": float(verdict.solved),
            }
        )
        ctx.probe.gauges(metrics)
    warmup = getattr(workload, "warmup_fraction", None)
    if warmup is not None:
        _observe_steady(
            ctx.probe, workload.arrival_times(), verdict.message_times, warmup
        )
    return verdict


def _max_latency(verdict: MMBOutcome, workload) -> float:
    """Worst arrival→last-owed-delivery latency over the verdict's
    messages (its completion time when it owes none), as
    :attr:`~repro.runtime.results.RunResult.max_latency` computes it."""
    if not verdict.message_times:
        return verdict.completion_time
    arrivals = (
        workload.arrival_times() if isinstance(workload, ArrivalSchedule) else {}
    )
    return max(
        done - arrivals.get(mid, 0.0)
        for mid, done in verdict.message_times.items()
    )


# ----------------------------------------------------------------------
# Built-in substrates
# ----------------------------------------------------------------------
@register_substrate("standard")
class StandardSubstrate(SubstrateBase):
    """Event-driven abstract MAC (standard/enhanced layers, MMB workloads)."""

    supports_faults = True
    supports_arrivals = True
    scheduler_role = "explicit"

    def prepare(self, ctx: ExecutionContext) -> Execution:
        spec = ctx.spec
        dual = ctx.dual
        factory = ctx.build_algorithm(self.name)
        scheduler = ctx.scheduler()
        workload = ctx.workload()
        mac_class = ctx.mac_class()
        engine = ctx.fault_engine()

        def _run() -> Outcome:
            result = run_standard(
                dual,
                workload,
                factory,
                scheduler,
                spec.model.fack,
                spec.model.fprog,
                max_time=spec.model.max_time,
                max_events=spec.model.max_events,
                keep_instances=ctx.keep_raw,
                mac_class=mac_class,
                fault_engine=engine,
            )
            probe = ctx.probe
            probe.gauges(
                {
                    "rcv_count": float(result.rcv_count),
                    "sim_events": float(result.sim_events),
                    "max_latency": result.max_latency,
                }
            )
            verdict = _judge_mmb(
                ctx, workload, result.deliveries, engine, result.outcome
            )
            if engine is not None:
                # Judged among survivors, as the steady gauges are.
                probe.gauge("max_latency", _max_latency(verdict, workload))
            if ctx.record_observations:
                ctx.observe_workload_arrivals()
                if result.instances is not None:
                    probe.observe_instances(result.instances)
                probe.observe_deliveries(result.deliveries)
                ctx.observe_faults()
            return self.outcome(
                ctx,
                solved=verdict.solved,
                completion_time=verdict.completion_time,
                broadcast_count=result.broadcast_count,
                delivered_count=len(result.deliveries),
                raw=result,
            )

        return Execution(ctx, _run)


@register_substrate("protocol")
class ProtocolSubstrate(SubstrateBase):
    """Wakeup-driven protocols to quiescence (leader election, consensus)."""

    supports_faults = True
    supports_arrivals = False
    scheduler_role = "explicit"

    def prepare(self, ctx: ExecutionContext) -> Execution:
        spec = ctx.spec
        dual = ctx.dual
        entry = ctx.algorithm_entry(self.name)
        factory = entry.build(**spec.algorithm.params)
        scheduler = ctx.scheduler()
        mac_class = ctx.mac_class()
        engine = ctx.fault_engine()

        def _run() -> Outcome:
            result = run_protocol(
                dual,
                factory,
                scheduler,
                spec.model.fack,
                spec.model.fprog,
                max_time=spec.model.max_time,
                max_events=spec.model.max_events,
                mac_class=mac_class,
                fault_engine=engine,
            )
            probe = ctx.probe
            probe.gauges(
                {
                    "end_time": result.end_time,
                    "quiesced": float(result.quiesced),
                }
            )
            if engine is None:
                solved = result.quiesced and (
                    entry.postcondition is None
                    or entry.postcondition(dual, result.automata)
                )
                completion = result.end_time
            else:
                # Judge the postcondition among survivors: the engine's
                # view answers the same component queries as the static
                # graph.
                view = engine.view()
                survivors = {v: result.automata[v] for v in view.nodes}
                solved = result.quiesced and (
                    entry.postcondition is None
                    or entry.postcondition(view, survivors)
                )
                # end_time includes draining the installed fault timeline;
                # the protocol's actual end is the last MAC/automaton
                # event.
                completion = result.last_activity
                probe.gauge("last_activity", result.last_activity)
                probe.gauges(engine.metrics())
            if ctx.record_observations:
                probe.observe_instances(result.instances)
                ctx.observe_faults()
            return self.outcome(
                ctx,
                solved=solved,
                completion_time=completion if solved else math.inf,
                broadcast_count=result.broadcast_count,
                delivered_count=0,
                raw=result,
            )

        return Execution(ctx, _run)


@register_substrate("rounds")
class RoundsSubstrate(SubstrateBase):
    """FMMB's lock-step round substrate on the enhanced model."""

    supports_faults = True
    supports_arrivals = False
    scheduler_role = "seeded"

    def prepare(self, ctx: ExecutionContext) -> Execution:
        spec = ctx.spec
        dual = ctx.dual
        config = ctx.build_algorithm(self.name)
        workload = ctx.time_zero_workload(self.name)
        engine = ctx.fault_engine()

        def _run() -> Outcome:
            result = run_fmmb(
                dual,
                workload,
                fprog=spec.model.fprog,
                seed=spec.seed,
                config=config,
                fault_engine=engine,
            )
            solved = result.solved
            completion = result.completion_time
            probe = ctx.probe
            probe.gauges(
                {
                    "rounds_total": float(result.total_rounds),
                    "rounds_mis": float(result.mis_result.rounds_used),
                    "rounds_gather": float(result.gather_result.rounds_used),
                    "rounds_spread": float(result.spread_result.rounds_used),
                    "completion_rounds": float(result.completion_rounds),
                    "mis_valid": float(result.mis_valid),
                }
            )
            # A delivery in round r is available by the end of slot r.
            delivery_times = {
                key: (rnd + 1) * spec.model.fprog
                for key, rnd in result.delivery_rounds.items()
            }
            if engine is not None:
                # Replay any fault events past the last simulated round so
                # the final engine state (survivors, joins) is judged at
                # the same cutoff as the other substrates, which drain the
                # timeline.
                engine.advance_to(math.inf)
                verdict = _judge_mmb(ctx, workload, delivery_times, engine)
                solved, completion = verdict.solved, verdict.completion_time
            if ctx.record_observations:
                ctx.observe_workload_arrivals()
                probe.observe_deliveries(delivery_times)
                probe.observe_clock(
                    "round",
                    result.total_rounds,
                    result.total_rounds * spec.model.fprog,
                )
                ctx.observe_faults()
            return self.outcome(
                ctx,
                solved=solved,
                completion_time=completion,
                broadcast_count=0,
                delivered_count=len(result.delivery_rounds),
                raw=result,
            )

        return Execution(ctx, _run)


@dataclass
class RadioRun:
    """Raw outcome of a radio-family substrate execution.

    Attributes:
        layer: The radio MAC adapter after the run (instances, deliveries,
            empirical-bound extraction).
        slots: Radio slots consumed.
        automata: The per-node automata after the run.
    """

    layer: Any
    slots: int
    automata: dict[int, Any]


@register_substrate("radio")
class RadioSubstrate(SubstrateBase):
    """Slotted collision radio below the abstraction (decay MAC adapter)."""

    supports_faults = True
    supports_arrivals = True
    scheduler_role = "emergent"
    #: MAC registry key the adapter is built from; the ``sinr`` subclass
    #: swaps the reception model by naming a different entry.
    mac_key = "radio"
    #: ``max_slots`` bounds the slot loop; the rest are the adapter's
    #: keywords.
    model_params = frozenset(
        {
            "max_slots",
            "slot_duration",
            "p_unreliable_live",
            "adaptive",
            "phases",
            "depth",
        }
    )

    def prepare(self, ctx: ExecutionContext) -> Execution:
        spec = ctx.spec
        dual = ctx.dual
        factory = ctx.build_algorithm(self.name)
        params = dict(spec.model.params)
        max_slots = int(params.pop("max_slots", 500_000))
        engine = ctx.fault_engine()
        if engine is not None:
            params["fault_engine"] = engine
        try:
            layer = MACS.get(self.mac_key)(dual, ctx.stream("radio"), **params)
        except MACError as exc:
            # The adapter's rejection of a keyword's value starts with the
            # keyword, and every keyword is a model.params key: that is a
            # spec error.  Others (an SINR run on a topology without
            # positions) pass through as they are.
            key = str(exc).split(" ", 1)[0]
            if key not in params:
                raise
            raise ExperimentError(
                f"model.params.{key} rejected by substrate {self.name!r}: {exc}"
            ) from exc
        automata = {node: factory(node) for node in dual.nodes}
        for node, automaton in automata.items():
            layer.register(node, automaton)
        workload = ctx.workload()

        def _run() -> Outcome:
            if isinstance(workload, ArrivalSchedule):
                for arrival in workload.sorted_by_time():
                    layer.inject_arrival(
                        arrival.node, arrival.message, time=arrival.time
                    )
            else:
                for node, messages in sorted(workload.messages.items()):
                    for message in messages:
                        layer.inject_arrival(node, message)
            slots = layer.run(max_slots=max_slots)
            verdict = _judge_mmb(ctx, workload, layer.deliveries, engine)
            bounds = layer.empirical_bounds()
            probe = ctx.probe
            probe.gauges(
                {
                    "slots": float(slots),
                    "empirical_fack": bounds.fack,
                    "empirical_fprog": bounds.fprog,
                    "delivery_success_rate": bounds.delivery_success_rate,
                }
            )
            if ctx.record_observations:
                ctx.observe_workload_arrivals()
                probe.observe_instances(layer.instances)
                probe.observe_deliveries(layer.deliveries)
                probe.observe_clock(
                    "slot", slots, slots * layer.slot_duration
                )
                ctx.observe_faults()
            return self.outcome(
                ctx,
                solved=verdict.solved,
                completion_time=verdict.completion_time,
                broadcast_count=len(layer.instances),
                delivered_count=len(layer.deliveries),
                raw=RadioRun(layer=layer, slots=slots, automata=automata),
            )

        return Execution(ctx, _run)


@register_substrate("sinr")
class SINRSubstrate(RadioSubstrate):
    """Slotted SINR-reception radio (distance-based signal/interference)."""

    mac_key = "sinr"
    #: The SINR model constants replace the collision radio's fading.
    model_params = (RadioSubstrate.model_params - {"p_unreliable_live"}) | {
        "alpha",
        "beta",
        "power",
        "reach",
        "noise",
    }


# ----------------------------------------------------------------------
# Smoke specs: one tiny, fast, solvable run per built-in substrate
# ----------------------------------------------------------------------
def _smoke_rgg(n: int, side: float) -> TopologySpec:
    return TopologySpec(
        "random_geometric",
        {"n": n, "side": side, "c": 1.6, "grey_edge_probability": 0.4},
    )


#: Builders of the per-substrate smoke specs (tiny, deterministic, must
#: solve).  The cross-substrate matrix test and the CI ``substrate-smoke``
#: step both run these, so every registered built-in stays executable.
SMOKE_SPEC_BUILDERS: dict[str, Callable[[int], ExperimentSpec]] = {
    "standard": lambda seed: ExperimentSpec(
        name="smoke-standard",
        topology=TopologySpec("line", {"n": 8}),
        algorithm=AlgorithmSpec("bmmb"),
        scheduler=SchedulerSpec("uniform"),
        workload=WorkloadSpec("one_each", {"k": 2}),
        model=ModelSpec(fack=20.0, fprog=1.0),
        seed=seed,
    ),
    "protocol": lambda seed: ExperimentSpec(
        name="smoke-protocol",
        topology=TopologySpec("line", {"n": 8}),
        algorithm=AlgorithmSpec("flood_max"),
        scheduler=SchedulerSpec("uniform"),
        workload=None,
        model=ModelSpec(fack=20.0, fprog=1.0),
        substrate="protocol",
        seed=seed,
    ),
    "rounds": lambda seed: ExperimentSpec(
        name="smoke-rounds",
        topology=_smoke_rgg(12, 2.0),
        algorithm=AlgorithmSpec("fmmb", {"c": 1.6}),
        workload=WorkloadSpec("one_each", {"k": 2}),
        model=ModelSpec(fack=20.0, fprog=1.0),
        substrate="rounds",
        seed=seed,
    ),
    "radio": lambda seed: ExperimentSpec(
        name="smoke-radio",
        topology=TopologySpec("star", {"n": 6}),
        algorithm=AlgorithmSpec("bmmb"),
        workload=WorkloadSpec("one_each", {"nodes": [1, 2, 3]}),
        model=ModelSpec(params={"max_slots": 100_000}),
        substrate="radio",
        seed=seed,
    ),
    "sinr": lambda seed: ExperimentSpec(
        name="smoke-sinr",
        topology=_smoke_rgg(10, 2.0),
        algorithm=AlgorithmSpec("bmmb"),
        workload=WorkloadSpec("one_each", {"k": 2}),
        model=ModelSpec(params={"max_slots": 200_000}),
        substrate="sinr",
        seed=seed,
    ),
}


def smoke_spec(name: str, seed: int = 3) -> ExperimentSpec:
    """A tiny, solvable spec exercising the named built-in substrate."""
    try:
        build = SMOKE_SPEC_BUILDERS[name]
    except KeyError:
        raise ExperimentError(
            f"no smoke spec for substrate {name!r}; recipes exist for "
            f"{', '.join(sorted(SMOKE_SPEC_BUILDERS))}"
        ) from None
    return build(seed)


def substrate_smoke(verbose: bool = False) -> dict[str, Any]:
    """Run every built-in substrate's smoke spec; raise unless all solve.

    CI's ``substrate-smoke`` step calls this; it covers exactly the
    substrates with a recipe in :data:`SMOKE_SPEC_BUILDERS` (third-party
    registrations run their own smoke tests).
    """
    from repro.experiments.runner import (  # circular at module load
        RunOptions,
        run,
    )

    results: dict[str, Any] = {}
    failures: list[str] = []
    for name in sorted(SMOKE_SPEC_BUILDERS):
        if name not in SUBSTRATES:  # pragma: no cover - defensive
            failures.append(f"{name}: not registered")
            continue
        result = run(smoke_spec(name), RunOptions.summary())
        results[name] = result
        if verbose:
            print(
                f"substrate {name}: solved={result.solved} "
                f"completion={result.completion_time:.3f} "
                f"wall={result.wall_time:.3f}s"
            )
        if not result.solved:
            failures.append(f"{name}: smoke spec did not solve")
    if failures:
        raise ExperimentError(
            "substrate smoke failed: " + "; ".join(failures)
        )
    return results
