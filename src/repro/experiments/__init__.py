"""Declarative experiments: specs, registries, substrates, parallel sweeps.

This subsystem is the single way to describe and run executions:

* :mod:`~repro.experiments.specs` — frozen, JSON-round-trippable
  descriptions (:class:`ExperimentSpec` and its component specs) and
  the capture options of a run (:class:`RunOptions`);
* :mod:`~repro.experiments.registries` — string-keyed registries of
  topologies, schedulers, algorithms, MAC layers, workloads, and fault
  scenarios, populated with everything the package ships and open to
  extension via the ``@register_*`` decorators;
* :mod:`~repro.experiments.substrates` — the pluggable execution-engine
  layer: the :class:`Substrate` protocol (``prepare``/``execute`` plus
  declared capabilities), the :data:`SUBSTRATES` registry with
  ``@register_substrate``, the shared :class:`ExecutionContext`
  (seed-derived streams, topology/workload/fault materialization), and
  the five built-in engines ``standard``, ``protocol``, ``rounds``,
  ``radio``, and ``sinr``;
* :mod:`~repro.experiments.runner` — ``run(spec)``, a thin generic loop
  over the substrate registry that summarizes every execution as an
  :class:`ExperimentResult` carrying scalar metrics and the typed
  observation stream (:mod:`repro.runtime.observations`);
* :mod:`~repro.experiments.sweep` — spec grids with derived per-point
  seeds and a process-parallel ``run_sweep`` (``"substrate"`` is a
  sweepable axis like any other).

Example::

    from repro.experiments import ExperimentSpec, TopologySpec, run

    spec = ExperimentSpec(
        topology=TopologySpec("random_geometric", {"n": 40, "side": 3.0}),
        substrate="sinr",
        seed=7,
    )
    result = run(spec)

Every name below is imported from its defining module when it is first
read (PEP 562), and building, validating and expanding specs loads no
engine: registry builders and substrates import their implementation
when they run, and the fault and workload registries import the modules
that register into them (:mod:`repro.faults.scenarios`,
:mod:`repro.traffic.arrivals`) when first read.
"""

from repro._lazy import lazy_exports

#: Each public name's defining module, imported when the name is first read.
_SOURCES = {
    "repro.experiments.specs": (
        "BUILTIN_SUBSTRATES",
        "AlgorithmSpec",
        "ExperimentSpec",
        "FaultSpec",
        "ModelSpec",
        "RunOptions",
        "SchedulerSpec",
        "TopologySpec",
        "WorkloadSpec",
    ),
    "repro.experiments.registries": (
        "ALGORITHMS",
        "FAULTS",
        "MACS",
        "SCHEDULERS",
        "TOPOLOGIES",
        "WORKLOADS",
        "AlgorithmEntry",
        "Registry",
        "list_algorithms",
        "list_faults",
        "list_macs",
        "list_schedulers",
        "list_topologies",
        "list_workloads",
        "register_algorithm",
        "register_fault",
        "register_mac",
        "register_scheduler",
        "register_topology",
        "register_workload",
    ),
    "repro.experiments.runner": ("ExperimentResult", "run"),
    "repro.experiments.substrates": (
        "SUBSTRATES",
        "Execution",
        "ExecutionContext",
        "Outcome",
        "RadioRun",
        "Substrate",
        "SubstrateBase",
        "get_substrate",
        "list_substrates",
        "materialize_fault_engine",
        "materialize_topology",
        "materialize_workload",
        "register_substrate",
        "smoke_spec",
        "substrate_smoke",
    ),
    "repro.experiments.sweep": ("Sweep", "SweepResult", "run_sweep"),
    "repro.runtime.observations": ("Observation", "Probe"),
}

__all__ = [
    # specs
    "ExperimentSpec",
    "TopologySpec",
    "SchedulerSpec",
    "AlgorithmSpec",
    "WorkloadSpec",
    "FaultSpec",
    "ModelSpec",
    "BUILTIN_SUBSTRATES",
    # registries
    "Registry",
    "AlgorithmEntry",
    "TOPOLOGIES",
    "SCHEDULERS",
    "ALGORITHMS",
    "MACS",
    "WORKLOADS",
    "FAULTS",
    "SUBSTRATES",
    "register_topology",
    "register_scheduler",
    "register_algorithm",
    "register_mac",
    "register_workload",
    "register_fault",
    "register_substrate",
    "list_topologies",
    "list_schedulers",
    "list_algorithms",
    "list_macs",
    "list_workloads",
    "list_faults",
    "list_substrates",
    # substrates
    "Substrate",
    "SubstrateBase",
    "ExecutionContext",
    "Execution",
    "Outcome",
    "get_substrate",
    "smoke_spec",
    "substrate_smoke",
    "materialize_fault_engine",
    "materialize_topology",
    "materialize_workload",
    # runner
    "run",
    "RunOptions",
    "ExperimentResult",
    "RadioRun",
    # observations
    "Observation",
    "Probe",
    # sweep
    "Sweep",
    "SweepResult",
    "run_sweep",
]

__getattr__, __dir__ = lazy_exports(__name__, _SOURCES, __all__)
