"""Declarative experiment specifications.

An :class:`ExperimentSpec` is a frozen, JSON-round-trippable description of
one execution: *what* network, *which* algorithm, *which* scheduler, under
*which* model constants, on *which* substrate.  Specs name components by
registry key (see :mod:`repro.experiments.registries`), so a spec contains
no live objects — its JSON form can key a results store, ship to a worker
process, and rebuild the spec bit-identically.

Determinism contract: every random stream an execution uses is derived from
``spec.seed`` with :func:`repro.sim.rng.derive_seed`, so ``run(spec)`` run
twice (in the same or a different process) yields identical results.
"""

from __future__ import annotations

import json
from collections import abc
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.errors import ExperimentError
from repro.ids import Time

#: The built-in substrate keys.  Validation does **not** use this tuple —
#: specs are checked against the live registry
#: (:data:`repro.experiments.substrates.SUBSTRATES`), so third-party
#: ``@register_substrate`` entries are spec-expressible.  This constant
#: only documents what the package itself ships.
BUILTIN_SUBSTRATES = ("standard", "protocol", "rounds", "radio", "sinr")


def _params_dict(params: Mapping[str, Any] | None) -> dict[str, Any]:
    """Copy params into a plain dict (shields callers' mappings).

    Params are a JSON object: anything but a mapping with string keys
    (say, a list of pairs) is rejected here, not turned into a dict that
    ``to_json`` cannot encode.  Store reads decode every spec through
    here, so a plain dict skips the slower ``Mapping`` check.
    """
    if params is None:
        return {}
    if type(params) is not dict and not isinstance(params, abc.Mapping):
        raise ExperimentError(f"params must be a mapping, got {type(params).__name__}")
    for key in params:
        if not isinstance(key, str):
            raise ExperimentError(f"params keys must be strings, got {key!r}")
    return dict(params)


@dataclass(frozen=True)
class _KindSpec:
    """A component named by registry key plus its keyword parameters.

    ``params`` must hold JSON-native values only (numbers, strings, bools,
    lists, dicts) so that ``from_json(to_json(spec)) == spec`` holds.
    """

    kind: str
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.kind:
            raise ExperimentError(f"{type(self).__name__} needs a non-empty kind")
        object.__setattr__(self, "params", _params_dict(self.params))

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "_KindSpec":
        return cls(kind=data["kind"], params=data.get("params"))


class TopologySpec(_KindSpec):
    """Names a topology builder: ``kind`` ∈ ``list_topologies()``."""


class SchedulerSpec(_KindSpec):
    """Names a message scheduler: ``kind`` ∈ ``list_schedulers()``."""


class AlgorithmSpec(_KindSpec):
    """Names an algorithm: ``kind`` ∈ ``list_algorithms()``."""


class WorkloadSpec(_KindSpec):
    """Names a workload generator: ``kind`` ∈ ``list_workloads()``."""


class FaultSpec(_KindSpec):
    """Names a fault scenario: ``kind`` ∈ ``list_faults()``.

    ``FaultSpec("none")`` (the default) disables fault injection entirely:
    the runner builds no engine and the execution is bit-identical to one
    from a spec without the field.  Any other kind compiles to a
    :class:`~repro.faults.plan.FaultPlan` from the seed-derived ``faults``
    stream; scenario parameters live in ``params`` and are sweepable as
    ``fault.<param>`` dotted paths.

    ``none`` rejects params: sweeping ``fault.fraction`` over a base spec
    that never names a scenario would otherwise be a silent no-op — every
    grid point fault-free — which turns a resilience comparison into
    meaningless numbers.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.kind == "none" and self.params:
            raise ExperimentError(
                "fault kind 'none' takes no params "
                f"(got {sorted(self.params)}); name a scenario kind — e.g. "
                "FaultSpec('crash_random', ...) or a 'fault.kind' sweep "
                "axis / CLI --fault — for fault.* parameters to apply"
            )

    @property
    def enabled(self) -> bool:
        """True when the spec actually injects faults."""
        return self.kind != "none"


def _default_fault() -> FaultSpec:
    return FaultSpec("none")


@dataclass(frozen=True)
class ModelSpec:
    """The abstract-MAC model constants plus execution budgets.

    Attributes:
        fack: Acknowledgment bound.
        fprog: Progress bound (``fprog <= fack``).
        mac: MAC-layer registry key (``standard`` or ``enhanced``; the
            ``radio`` substrate always uses the radio adapter).
        max_time: Optional wall on simulated time.
        max_events: Simulator event budget.
        params: Substrate-specific extras (e.g. ``max_slots``,
            ``slot_duration``, ``adaptive`` for the radio substrate);
            ``run`` rejects a key the substrate does not list in its
            ``model_params``.

    Each radio model has one reception pass, so there is nothing to
    select: :meth:`from_dict` accepts a stored ``"engine": "reference"``
    and rejects any other engine.
    """

    fack: Time = 20.0
    fprog: Time = 1.0
    mac: str = "standard"
    max_time: Time | None = None
    max_events: int = 50_000_000
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.fack <= 0 or self.fprog <= 0:
            raise ExperimentError(
                f"model bounds must be positive (fack={self.fack}, "
                f"fprog={self.fprog})"
            )
        if self.fprog > self.fack:
            raise ExperimentError(
                f"Fprog must not exceed Fack ({self.fprog} > {self.fack})"
            )
        object.__setattr__(self, "params", _params_dict(self.params))

    def to_dict(self) -> dict[str, Any]:
        return {
            "fack": self.fack,
            "fprog": self.fprog,
            "mac": self.mac,
            "max_time": self.max_time,
            "max_events": self.max_events,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ModelSpec":
        engine = data.get("engine", "reference")
        if engine != "reference":
            raise ExperimentError(
                f"model.engine {engine!r}: reception engines are gone; each "
                "radio model has one reception pass, so drop model.engine"
            )
        return cls(
            fack=data.get("fack", 20.0),
            fprog=data.get("fprog", 1.0),
            mac=data.get("mac", "standard"),
            max_time=data.get("max_time"),
            max_events=data.get("max_events", 50_000_000),
            params=data.get("params"),
        )


def _default_workload() -> WorkloadSpec:
    return WorkloadSpec("one_each", {"k": 1})


@dataclass(frozen=True)
class ExperimentSpec:
    """One fully-described execution.

    Attributes:
        topology: The network to build.
        algorithm: The algorithm to run on it.
        scheduler: The message scheduler (ignored by the ``rounds``
            substrate, whose round scheduler is seeded from ``seed``, and by
            the ``radio`` substrate, where contention *is* the scheduler).
        workload: The MMB message workload; ``None`` for workload-free
            protocols (leader election, consensus).
        fault: The fault/dynamics scenario injected into the execution
            (crashes, churn, link flapping); defaults to ``none``.
        model: Model constants and budgets.
        substrate: Which execution engine runs the spec — ``standard``
            (event-driven abstract MAC), ``protocol`` (wakeup-driven, no
            arrivals), ``rounds`` (FMMB's lock-step substrate), or
            ``radio`` (slotted collision radio below the abstraction).
        seed: Root seed; every stream in the execution derives from it.
        name: Human label; never affects results.
    """

    topology: TopologySpec
    algorithm: AlgorithmSpec = field(default_factory=lambda: AlgorithmSpec("bmmb"))
    scheduler: SchedulerSpec = field(
        default_factory=lambda: SchedulerSpec("uniform")
    )
    workload: WorkloadSpec | None = field(default_factory=_default_workload)
    fault: FaultSpec = field(default_factory=_default_fault)
    model: ModelSpec = field(default_factory=ModelSpec)
    substrate: str = "standard"
    seed: int = 0
    name: str = "experiment"

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "ExperimentSpec":
        """Check the spec against the live substrate registry.

        Raises :class:`~repro.errors.ExperimentError` when the substrate
        is not registered (the message lists what is) or when the spec
        asks for a capability the substrate does not declare — e.g. a
        fault scenario on a substrate with ``supports_faults=False``.
        Returns ``self`` so the call chains.

        The import is deferred: :mod:`repro.experiments.substrates`
        imports this module for its type definitions, and by validating
        against the registry at *use* time, any ``@register_substrate``
        entry added after import — including third-party ones — is
        immediately spec-expressible.
        """
        from repro.experiments.substrates import (
            SUBSTRATES,
            check_capabilities,
        )

        substrate = SUBSTRATES.get(self.substrate)
        check_capabilities(self, substrate)
        return self

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def with_seed(self, seed: int) -> "ExperimentSpec":
        """The same experiment under a different root seed."""
        return replace(self, seed=seed)

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "topology": self.topology.to_dict(),
            "algorithm": self.algorithm.to_dict(),
            "scheduler": self.scheduler.to_dict(),
            "workload": self.workload.to_dict() if self.workload else None,
            "fault": self.fault.to_dict(),
            "model": self.model.to_dict(),
            "substrate": self.substrate,
            "seed": self.seed,
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        workload = data.get("workload")
        return cls(
            topology=TopologySpec.from_dict(data["topology"]),
            algorithm=AlgorithmSpec.from_dict(
                data.get("algorithm", {"kind": "bmmb"})
            ),
            scheduler=SchedulerSpec.from_dict(
                data.get("scheduler", {"kind": "uniform"})
            ),
            workload=WorkloadSpec.from_dict(workload) if workload else None,
            fault=FaultSpec.from_dict(data.get("fault") or {"kind": "none"}),
            model=ModelSpec.from_dict(data.get("model", {})),
            substrate=data.get("substrate", "standard"),
            seed=data.get("seed", 0),
            name=data.get("name", "experiment"),
        )

    def to_json(self, indent: int | None = None) -> str:
        """Serialize to JSON (stable key order)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))
