"""String-keyed component registries backing the declarative experiment API.

Every axis a spec can vary — topology, scheduler, algorithm, MAC layer,
workload — has a registry mapping a stable string key to a builder.  The
built-in entries wrap the package's existing generators, schedulers,
automata, and MAC layers; downstream code adds its own scenarios with the
``@register_*`` decorators and they immediately work in specs, sweeps, and
the CLI (``repro registry`` lists everything).

Builder conventions:

* topology: ``build(rng, **params) -> DualGraph`` (deterministic families
  ignore ``rng``);
* scheduler: ``build(rng, **params) -> Scheduler``;
* workload: ``build(dual, rng, **params) -> MessageAssignment |
  ArrivalSchedule``;
* algorithm: ``build(**params) -> AutomatonFactory`` for the event-driven
  substrates; the ``fmmb`` entry instead returns its
  :class:`~repro.core.fmmb.config.FMMBConfig` (the rounds substrate owns
  its node drivers);
* mac: the registry stores the MAC layer class (or an equivalent builder
  ``build(dual_or_sim, rng, **params)``, like the ``sinr`` entry).

Execution engines have their own registry in
:mod:`repro.experiments.substrates` (``@register_substrate``); this module
stays limited to the components a substrate assembles.

Declaring the built-ins loads none of them: each builder imports its
implementation when it is called, a MAC entry names its class by module
and attribute (:meth:`Registry.defer`), and the fault scenarios and the
``open_arrivals`` workload, which register themselves in their own
modules, are imported the first time their registry is read.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, NamedTuple

from repro.errors import ExperimentError
from repro.ids import MessageAssignment


class _Deferred(NamedTuple):
    """A registry entry named by module and attribute, imported on use."""

    module: str
    attribute: str


class Registry:
    """A named map from string keys to builders, with helpful errors.

    ``providers`` are modules whose import registers entries here; they
    are imported the first time the registry is read, so every read sees
    them without the registry's own module importing them.
    """

    def __init__(self, label: str, providers: tuple[str, ...] = ()):
        self.label = label
        self._entries: dict[str, Any] = {}
        self._providers = providers

    def _complete(self) -> dict[str, Any]:
        """The entries, after importing the providers (once)."""
        if self._providers:
            providers, self._providers = self._providers, ()
            for module in providers:
                importlib.import_module(module)
        return self._entries

    def register(self, name: str) -> Callable[[Any], Any]:
        """Decorator: register the decorated object under ``name``."""
        if not name:
            raise ExperimentError(f"{self.label} registry key must be non-empty")

        def _decorator(obj: Any) -> Any:
            if name in self._entries:
                raise ExperimentError(
                    f"{self.label} registry already has an entry {name!r}"
                )
            self._entries[name] = obj
            return obj

        return _decorator

    def defer(self, name: str, module: str, attribute: str) -> None:
        """Register ``module.attribute`` under ``name`` without importing
        it; :meth:`get` imports it on first use."""
        self.register(name)(_Deferred(module, attribute))

    def get(self, name: str) -> Any:
        """The entry for ``name``; raises with the known keys otherwise."""
        try:
            entry = self._complete()[name]
        except KeyError:
            known = ", ".join(self.names()) or "<empty>"
            raise ExperimentError(
                f"unknown {self.label} {name!r}; registered: {known}"
            ) from None
        if type(entry) is _Deferred:
            entry = getattr(importlib.import_module(entry.module), entry.attribute)
            self._entries[name] = entry
        return entry

    def names(self) -> list[str]:
        """All registered keys, sorted."""
        return sorted(self._complete())

    def __contains__(self, name: str) -> bool:
        return name in self._complete()

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._complete())


@dataclass(frozen=True)
class AlgorithmEntry:
    """An algorithm registration.

    Attributes:
        build: ``build(**params)`` — returns the per-node automaton factory
            (or, for ``fmmb``, the :class:`FMMBConfig`).
        substrates: The substrates the algorithm can run on.
        postcondition: Optional oracle check ``(dual, automata) -> bool``
            evaluated at quiescence on the ``protocol`` substrate; defines
            that substrate's ``solved`` flag.
    """

    build: Callable[..., Any]
    substrates: tuple[str, ...] = ("standard",)
    postcondition: Callable[..., bool] | None = field(default=None, compare=False)


TOPOLOGIES = Registry("topology")
SCHEDULERS = Registry("scheduler")
ALGORITHMS = Registry("algorithm")
MACS = Registry("mac layer")
WORKLOADS = Registry("workload", providers=("repro.traffic.arrivals",))
FAULTS = Registry("fault scenario", providers=("repro.faults.scenarios",))


def register_topology(name: str):
    """Register ``build(rng, **params) -> DualGraph`` under ``name``."""
    return TOPOLOGIES.register(name)


def register_scheduler(name: str):
    """Register ``build(rng, **params) -> Scheduler`` under ``name``."""
    return SCHEDULERS.register(name)


def register_mac(name: str):
    """Register a MAC layer class under ``name``."""
    return MACS.register(name)


def register_workload(name: str):
    """Register ``build(dual, rng, **params) -> workload`` under ``name``."""
    return WORKLOADS.register(name)


def register_fault(name: str):
    """Register ``build(dual, rng, **params) -> FaultPlan`` under ``name``.

    The built-in scenarios live in :mod:`repro.faults.scenarios`; a spec
    selects one with its ``fault`` field (``FaultSpec(kind, params)``).
    """
    return FAULTS.register(name)


def register_algorithm(
    name: str,
    substrates: tuple[str, ...] = ("standard",),
    postcondition: Callable[..., bool] | None = None,
):
    """Register an algorithm builder under ``name``.

    The decorated callable is the entry's ``build``; ``substrates`` and
    ``postcondition`` complete the :class:`AlgorithmEntry`.
    """

    def _decorator(build: Callable[..., Any]) -> Callable[..., Any]:
        ALGORITHMS.register(name)(
            AlgorithmEntry(
                build=build, substrates=substrates, postcondition=postcondition
            )
        )
        return build

    return _decorator


def list_topologies() -> list[str]:
    """Registered topology keys."""
    return TOPOLOGIES.names()


def list_schedulers() -> list[str]:
    """Registered scheduler keys."""
    return SCHEDULERS.names()


def list_algorithms() -> list[str]:
    """Registered algorithm keys."""
    return ALGORITHMS.names()


def list_macs() -> list[str]:
    """Registered MAC layer keys."""
    return MACS.names()


def list_workloads() -> list[str]:
    """Registered workload keys."""
    return WORKLOADS.names()


def list_faults() -> list[str]:
    """Registered fault-scenario keys."""
    return FAULTS.names()


# ----------------------------------------------------------------------
# Built-in topologies
# ----------------------------------------------------------------------
@register_topology("line")
def _build_line(rng, n: int = 20):
    from repro.topology.generators import line_network

    return line_network(n)


@register_topology("ring")
def _build_ring(rng, n: int = 20):
    from repro.topology.generators import ring_network

    return ring_network(n)


@register_topology("star")
def _build_star(rng, n: int = 12):
    from repro.topology.generators import star_network

    return star_network(n)


@register_topology("grid")
def _build_grid(rng, rows: int = 5, cols: int = 5):
    from repro.topology.generators import grid_network

    return grid_network(rows, cols)


@register_topology("tree")
def _build_tree(rng, branching: int = 2, height: int = 4):
    from repro.topology.generators import tree_network

    return tree_network(branching, height)


@register_topology("random_geometric")
def _build_random_geometric(
    rng,
    n: int = 40,
    side: float = 3.0,
    c: float = 1.6,
    grey_edge_probability: float = 0.4,
    connect: bool = True,
):
    from repro.topology.geometric import random_geometric_network

    return random_geometric_network(
        n,
        side=side,
        c=c,
        grey_edge_probability=grey_edge_probability,
        rng=rng,
        connect=connect,
    )


@register_topology("r_restricted_line")
def _build_r_restricted_line(
    rng, n: int = 20, r: int = 3, probability: float = 0.5
):
    from repro.topology.generators import (
        line_network,
        with_r_restricted_unreliable,
    )

    return with_r_restricted_unreliable(
        line_network(n), r=r, probability=probability, rng=rng
    )


@register_topology("arbitrary_line")
def _build_arbitrary_line(rng, n: int = 20, extra_edges: int = 10):
    from repro.topology.generators import line_network, with_arbitrary_unreliable

    return with_arbitrary_unreliable(line_network(n), extra_edges, rng=rng)


@register_topology("parallel_lines")
def _build_parallel_lines(rng, depth: int = 10):
    from repro.topology.adversarial import parallel_lines_network

    return parallel_lines_network(depth).dual


@register_topology("choke_star")
def _build_choke_star(rng, k: int = 8, clique_sources: bool = True):
    from repro.topology.adversarial import choke_star_network

    return choke_star_network(k, clique_sources=clique_sources).dual


# ----------------------------------------------------------------------
# Built-in schedulers
# ----------------------------------------------------------------------
@register_scheduler("uniform")
def _build_uniform(
    rng,
    p_unreliable: float = 0.5,
    rcv_fraction: float = 0.9,
    ack_lag_fraction: float = 0.0,
    delay_floor: float = 0.0,
):
    from repro.mac.schedulers.uniform import UniformDelayScheduler

    return UniformDelayScheduler(
        rng,
        p_unreliable=p_unreliable,
        rcv_fraction=rcv_fraction,
        ack_lag_fraction=ack_lag_fraction,
        delay_floor=delay_floor,
    )


@register_scheduler("contention")
def _build_contention(
    rng,
    p_unreliable: float = 0.5,
    slot_fraction: float = 0.95,
    deadline_fraction: float = 0.9,
    unreliable_service_bias: float = 0.25,
):
    from repro.mac.schedulers.contention import ContentionScheduler

    return ContentionScheduler(
        rng,
        p_unreliable=p_unreliable,
        slot_fraction=slot_fraction,
        deadline_fraction=deadline_fraction,
        unreliable_service_bias=unreliable_service_bias,
    )


@register_scheduler("worstcase")
def _build_worstcase(
    rng, p_unreliable: float = 0.5, rcv_fraction: float = 0.9
):
    from repro.mac.schedulers.worstcase import WorstCaseAckScheduler

    return WorstCaseAckScheduler(
        rng, p_unreliable=p_unreliable, rcv_fraction=rcv_fraction
    )


@register_scheduler("choke")
def _build_choke(rng, rcv_fraction: float = 0.9):
    from repro.mac.schedulers.worstcase import ChokeAdversary

    return ChokeAdversary(rcv_fraction=rcv_fraction)


@register_scheduler("greyzone_adversary")
def _build_greyzone_adversary(rng, depth: int = 10, inject_fraction: float = 0.25):
    # The Figure 2 frontier-starving adversary is bound to the
    # parallel-lines gadget; rebuilding the network here is deterministic,
    # so pairing this entry with the "parallel_lines" topology (same
    # depth) reproduces the Lemma 3.19/3.20 execution from a pure spec.
    from repro.mac.schedulers.greyzone_adversary import GreyZoneAdversary
    from repro.topology.adversarial import parallel_lines_network

    return GreyZoneAdversary(
        parallel_lines_network(depth), inject_fraction=inject_fraction
    )


# ----------------------------------------------------------------------
# Built-in algorithms
# ----------------------------------------------------------------------
@register_algorithm("bmmb", substrates=("standard", "radio", "sinr"))
def _build_bmmb():
    from repro.core.bmmb import BMMBNode

    return lambda _node: BMMBNode()


@register_algorithm("redundant_flooding", substrates=("standard",))
def _build_redundant_flooding(redundancy: int = 2):
    from repro.core.baselines import RedundantFloodingNode

    return lambda _node: RedundantFloodingNode(redundancy)


def _elected_correctly(dual, automata) -> bool:
    from repro.core.leader import elected_correctly

    return elected_correctly(dual, automata)


def _consensus_reached(dual, automata) -> bool:
    from repro.core.consensus import consensus_reached

    return consensus_reached(dual, automata)


@register_algorithm(
    "flood_max", substrates=("protocol",), postcondition=_elected_correctly
)
def _build_flood_max():
    from repro.core.leader import FloodMaxNode

    return lambda _node: FloodMaxNode()


@register_algorithm(
    "flood_consensus", substrates=("protocol",), postcondition=_consensus_reached
)
def _build_flood_consensus(value_prefix: str = "v"):
    from repro.core.consensus import FloodConsensusNode

    return lambda node: FloodConsensusNode(f"{value_prefix}{node}")


@register_algorithm("fmmb", substrates=("rounds",))
def _build_fmmb(**config):
    from repro.core.fmmb.config import FMMBConfig

    return FMMBConfig(**config)


# ----------------------------------------------------------------------
# Built-in MAC layers
# ----------------------------------------------------------------------
MACS.defer("standard", "repro.mac.standard", "StandardMACLayer")
MACS.defer("enhanced", "repro.mac.enhanced", "EnhancedMACLayer")
MACS.defer("radio", "repro.radio.mac_adapter", "RadioMACLayer")
MACS.defer("sinr", "repro.radio.sinr", "sinr_mac_layer")


# ----------------------------------------------------------------------
# Built-in workloads
# ----------------------------------------------------------------------
@register_workload("one_each")
def _build_one_each(dual, rng, k: int = 1, nodes=None, prefix: str = "m"):
    if nodes is None:
        nodes = dual.nodes
        if k > len(nodes):
            raise ExperimentError(
                f"one_each: k={k} messages need k distinct nodes, but the "
                f"network has n={len(nodes)}"
            )
        nodes = nodes[:k]
    return MessageAssignment.one_each(list(nodes), prefix)


@register_workload("single_source")
def _build_single_source(
    dual, rng, count: int = 1, node=None, prefix: str = "m"
):
    source = dual.nodes[0] if node is None else node
    return MessageAssignment.single_source(source, count, prefix)


@register_workload("staggered")
def _build_staggered(
    dual, rng, count: int = 4, spacing: float = 5.0, node=None, prefix: str = "m"
):
    from repro.core.problem import ArrivalSchedule

    source = dual.nodes[0] if node is None else node
    return ArrivalSchedule.staggered(source, count, spacing, prefix)


@register_workload("poisson")
def _build_poisson(
    dual, rng, count: int = 4, mean_gap: float = 5.0, prefix: str = "m"
):
    from repro.core.problem import ArrivalSchedule

    return ArrivalSchedule.poisson(list(dual.nodes), count, mean_gap, rng, prefix)


@register_workload("parallel_lines_sources")
def _build_parallel_lines_sources(dual, rng):
    # The canonical Figure 2 instance: m0 at the head of line A, m1 at the
    # head of line B.  The depth is implied by the dual graph itself, so
    # this workload needs no parameters and cannot drift from the topology.
    from repro.topology.adversarial import parallel_lines_network

    return parallel_lines_network(dual.n // 2).assignment
