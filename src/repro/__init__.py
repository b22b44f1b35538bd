"""repro — reproduction of *Multi-Message Broadcast with Abstract MAC
Layers and Unreliable Links* (Ghaffari, Kantor, Lynch, Newport; PODC 2014).

The package implements the paper's model and algorithms end to end:

* a discrete-event simulation kernel (:mod:`repro.sim`),
* dual-graph topologies with reliable and unreliable links
  (:mod:`repro.topology`), including the paper's lower-bound networks,
* the standard and enhanced abstract MAC layers with pluggable message
  schedulers — benign, contention-driven, and the paper's lower-bound
  adversaries — plus an axiom checker that certifies executions against
  the model (:mod:`repro.mac`),
* the BMMB and FMMB algorithms and baselines (:mod:`repro.core`),
* an experiment runtime and analysis helpers
  (:mod:`repro.runtime`, :mod:`repro.analysis`),
* a declarative experiment API — specs, registries, one ``run``
  dispatcher with one options surface (``RunOptions``), and sweeps
  (:mod:`repro.experiments`),
* resumable reproduction campaigns — sharded, checkpointed sweeps with
  figure/report generation that regenerate the paper's result set
  (:mod:`repro.campaigns`; CLI ``python -m repro campaign``).

Quickstart::

    from repro import (
        ExperimentSpec, ModelSpec, SchedulerSpec, TopologySpec,
        WorkloadSpec, run,
    )

    spec = ExperimentSpec(
        topology=TopologySpec("random_geometric", {
            "n": 40, "side": 3.0, "c": 1.6, "grey_edge_probability": 0.4,
        }),
        workload=WorkloadSpec("single_source", {"count": 4}),
        scheduler=SchedulerSpec("contention"),
        model=ModelSpec(fack=20.0, fprog=1.0),
        seed=7,
    )
    result = run(spec)
    print(result.solved, result.completion_time)

Specs are frozen and JSON-round-trippable (``ExperimentSpec.from_json(
spec.to_json()) == spec``), every random stream derives from ``spec.seed``,
and ``run_sweep(Sweep.grid(spec, axes), workers=N)`` fans a parameter grid
out over the campaign fabric's worker processes.  ``list_topologies()`` / ``list_schedulers()`` /
``list_algorithms()`` enumerate what a spec can name; the imperative
entry points (:func:`run_standard`, :func:`run_protocol`,
:func:`repro.core.fmmb.run_fmmb`) remain available underneath.

Every name below is imported from its defining module when it is first
read (PEP 562), so ``import repro`` alone loads no submodule and a caller
pays only for the layers it uses.
"""

from repro._lazy import lazy_exports

#: Each public name's defining module, imported when the name is first read.
_SOURCES = {
    "repro.version": ("__version__",),
    "repro.errors": (
        "AlgorithmError",
        "AxiomViolation",
        "ExperimentError",
        "MACError",
        "ReproError",
        "SchedulerError",
        "SimulationError",
        "TopologyError",
        "WellFormednessError",
    ),
    "repro.ids": ("Message", "MessageAssignment"),
    "repro.sim": ("RandomSource", "Simulator"),
    "repro.topology": (
        "DualGraph",
        "choke_star_network",
        "combined_lower_bound_network",
        "grid_network",
        "grey_zone_network",
        "line_network",
        "parallel_lines_network",
        "random_geometric_network",
        "reliable_only",
        "ring_network",
        "star_network",
        "tree_network",
        "with_arbitrary_unreliable",
        "with_r_restricted_unreliable",
    ),
    "repro.mac": ("EnhancedMACLayer", "StandardMACLayer", "check_axioms"),
    "repro.mac.axioms": ("assert_axioms",),
    "repro.mac.rounds": (
        "AdversarialRoundScheduler",
        "RandomRoundScheduler",
        "SlottedRoundEngine",
    ),
    "repro.mac.schedulers": (
        "ChokeAdversary",
        "CombinedAdversary",
        "ContentionScheduler",
        "GreyZoneAdversary",
        "UniformDelayScheduler",
        "WorstCaseAckScheduler",
    ),
    "repro.core": ("BMMBNode", "SequentialFloodingCoordinator"),
    "repro.core.baselines": ("RedundantFloodingNode",),
    "repro.core.consensus": ("FloodConsensusNode", "consensus_reached"),
    "repro.core.fmmb": ("FMMBConfig", "run_fmmb"),
    "repro.core.leader": ("FloodMaxNode", "elected_correctly"),
    "repro.core.problem": ("Arrival", "ArrivalSchedule"),
    "repro.core.structuring": ("build_cds", "cds_broadcast_schedule", "validate_cds"),
    "repro.radio": ("RadioMACLayer", "SINRRadioNetwork", "SlottedRadioNetwork"),
    "repro.runtime": ("Observation", "Probe", "RunResult", "run_standard"),
    "repro.runtime.validate": ("MMBOutcome", "mmb_outcome"),
    "repro.runtime.runner": ("ProtocolRun", "run_protocol"),
    "repro.analysis": (
        "bmmb_arbitrary_bound",
        "bmmb_gg_bound",
        "bmmb_r_restricted_bound",
        "choke_lower_bound",
        "figure2_lower_bound",
        "fmmb_bound_time",
    ),
    "repro.experiments": (
        "AlgorithmSpec",
        "ExperimentResult",
        "ExperimentSpec",
        "FaultSpec",
        "ModelSpec",
        "SchedulerSpec",
        "Substrate",
        "SubstrateBase",
        "Sweep",
        "SweepResult",
        "TopologySpec",
        "WorkloadSpec",
        "list_algorithms",
        "list_faults",
        "list_macs",
        "list_schedulers",
        "list_substrates",
        "list_topologies",
        "list_workloads",
        "materialize_topology",
        "register_algorithm",
        "register_fault",
        "register_mac",
        "register_scheduler",
        "register_substrate",
        "register_topology",
        "register_workload",
        "run",
        "run_sweep",
    ),
    "repro.campaigns": (
        "CampaignSpec",
        "ResultStore",
        "build_campaign",
        "list_campaigns",
        "register_campaign",
        "run_campaign",
        "verify_campaign",
        "write_artifacts",
    ),
    "repro.faults": (
        "FaultEngine",
        "FaultEvent",
        "FaultKind",
        "FaultPlan",
    ),
}

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "SimulationError",
    "TopologyError",
    "MACError",
    "WellFormednessError",
    "AxiomViolation",
    "SchedulerError",
    "AlgorithmError",
    "ExperimentError",
    # primitives
    "Message",
    "MessageAssignment",
    "RandomSource",
    "Simulator",
    # topology
    "DualGraph",
    "line_network",
    "ring_network",
    "star_network",
    "grid_network",
    "tree_network",
    "reliable_only",
    "with_arbitrary_unreliable",
    "with_r_restricted_unreliable",
    "grey_zone_network",
    "random_geometric_network",
    "parallel_lines_network",
    "choke_star_network",
    "combined_lower_bound_network",
    # MAC
    "StandardMACLayer",
    "EnhancedMACLayer",
    "check_axioms",
    "assert_axioms",
    "UniformDelayScheduler",
    "ContentionScheduler",
    "WorstCaseAckScheduler",
    "ChokeAdversary",
    "GreyZoneAdversary",
    "CombinedAdversary",
    "RandomRoundScheduler",
    "AdversarialRoundScheduler",
    "SlottedRoundEngine",
    # algorithms
    "BMMBNode",
    "SequentialFloodingCoordinator",
    "RedundantFloodingNode",
    "FMMBConfig",
    "run_fmmb",
    # extensions (paper §5 future work, footnotes 2 and 4)
    "FloodMaxNode",
    "elected_correctly",
    "FloodConsensusNode",
    "consensus_reached",
    "Arrival",
    "ArrivalSchedule",
    "build_cds",
    "validate_cds",
    "cds_broadcast_schedule",
    "RadioMACLayer",
    "SlottedRadioNetwork",
    "SINRRadioNetwork",
    # runtime & analysis
    "RunResult",
    "run_standard",
    "MMBOutcome",
    "mmb_outcome",
    "Observation",
    "Probe",
    "ProtocolRun",
    "run_protocol",
    "bmmb_gg_bound",
    "bmmb_r_restricted_bound",
    "bmmb_arbitrary_bound",
    "figure2_lower_bound",
    "choke_lower_bound",
    "fmmb_bound_time",
    # declarative experiment API
    "ExperimentSpec",
    "TopologySpec",
    "SchedulerSpec",
    "AlgorithmSpec",
    "WorkloadSpec",
    "FaultSpec",
    "ModelSpec",
    "ExperimentResult",
    "run",
    "run_sweep",
    "Sweep",
    "SweepResult",
    "materialize_topology",
    "list_topologies",
    "list_schedulers",
    "list_algorithms",
    "list_macs",
    "list_workloads",
    "list_faults",
    "list_substrates",
    "register_topology",
    "register_scheduler",
    "register_algorithm",
    "register_mac",
    "register_workload",
    "register_fault",
    "register_substrate",
    "Substrate",
    "SubstrateBase",
    # fault & dynamics injection
    "FaultEngine",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    # reproduction campaigns
    "CampaignSpec",
    "ResultStore",
    "build_campaign",
    "list_campaigns",
    "register_campaign",
    "run_campaign",
    "verify_campaign",
    "write_artifacts",
]

__getattr__, __dir__ = lazy_exports(__name__, _SOURCES, __all__)
