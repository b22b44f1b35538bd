"""``repro.faults`` — deterministic fault and dynamics injection.

The paper's executions assume fault-free nodes on a static dual graph;
this subsystem relaxes both assumptions while keeping every run exactly
reproducible.  A *fault scenario* (registered with
:func:`~repro.experiments.registries.register_fault`, selected by a spec's
``fault`` field) compiles — using only the seed-derived ``faults`` random
stream — into a :class:`FaultPlan`: a sorted timeline of node **crash** /
**recover**, churn **join** / **leave**, and grey-zone **link flap**
events.  A :class:`FaultEngine` replays the plan against any of the four
execution substrates:

* event-driven MAC layers install it into the simulator
  (:meth:`FaultEngine.install`), which aborts crashed senders' pending
  broadcasts, drops deliveries to dead receivers, wakes late-joining
  nodes (their messages travel with them), and resumes recovered nodes
  by reporting the crash-aborted broadcast as ``on_abort``;
* the FMMB round substrate wraps its scheduler in
  :class:`FaultyRoundScheduler`;
* the slotted radio polls :meth:`FaultEngine.advance_to` once per slot.

Schedulers and postconditions keep working untouched because the engine's
:class:`EffectiveDualView` answers the same neighbor/component queries as
:class:`~repro.topology.DualGraph`, restricted to the live network.
Outcomes are judged among survivors: every MMB substrate passes the
engine to :func:`repro.runtime.validate.mmb_outcome`, the one MMB verdict.

Quickstart::

    from repro.experiments import ExperimentSpec, FaultSpec, TopologySpec, run

    spec = ExperimentSpec(
        topology=TopologySpec("random_geometric", {"n": 30, "side": 2.5}),
        fault=FaultSpec("crash_random", {"fraction": 0.2}),
        seed=7,
    )
    result = run(spec)
    print(result.solved, result.metrics["nodes_crashed"])
"""

from repro.faults.engine import (
    PRIORITY_FAULT,
    EffectiveDualView,
    FaultEngine,
)
from repro.faults.events import Edge, FaultEvent, FaultKind, canonical_edge
from repro.faults.plan import FaultPlan, validate_plan
from repro.faults.rounds import FaultyRoundScheduler

# Imported last, and after every name above is bound: scenario registration
# pulls in repro.experiments.registries, which may re-enter this package.
from repro.faults.scenarios import DEFAULT_HORIZON  # noqa: E402

__all__ = [
    "DEFAULT_HORIZON",
    "Edge",
    "EffectiveDualView",
    "FaultEngine",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "FaultyRoundScheduler",
    "PRIORITY_FAULT",
    "canonical_edge",
    "validate_plan",
]
