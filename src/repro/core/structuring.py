"""Network structuring: a connected dominating set backbone (paper §5).

The paper's conclusion lists "network structuring" among the natural
follow-on problems, citing Censor-Hillel–Gilbert–Lynch–Newport [4]
(structuring *unreliable* radio networks).  The standard structuring target
is a **connected dominating set** (CDS): a backbone such that every node
either belongs to it or neighbors it, and the backbone is connected — the
substrate for routing, aggregation, and scheduled broadcast.

We build the CDS the classical way from the pieces FMMB already
constructs: take a maximal independent set (dominating by maximality) and
add **connectors** — for each overlay edge (MIS pair within 3 ``G``-hops),
the interior nodes of one shortest ``G``-path between the pair.  The result
is connected within every component of ``G`` and has size
``O(|MIS|)`` on grey-zone (bounded-growth) networks.

:func:`cds_broadcast_schedule` then demonstrates a backbone use: a single
source message is routed along a BFS tree of the backbone, giving a
collision-free dissemination plan whose length is ``O(D)`` backbone hops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.fmmb.mis import require_valid_mis
from repro.core.fmmb.overlay import build_overlay
from repro.errors import AlgorithmError, TopologyError
from repro.ids import NodeId
from repro.topology.dualgraph import DualGraph, bfs_distances


@dataclass(frozen=True)
class Backbone:
    """A CDS backbone of ``G``.

    Attributes:
        members: All backbone nodes (MIS + connectors).
        mis: The independent "anchor" nodes.
        connectors: The path nodes added to connect anchor pairs.
        graph: The backbone's induced subgraph of ``G``, as an adjacency
            mapping: member -> its backbone neighbors, ascending.
    """

    members: frozenset[NodeId]
    mis: frozenset[NodeId]
    connectors: frozenset[NodeId]
    graph: Mapping[NodeId, tuple[NodeId, ...]]

    @property
    def size(self) -> int:
        """Number of backbone nodes."""
        return len(self.members)


def build_cds(dual: DualGraph, mis: frozenset[NodeId]) -> Backbone:
    """Construct a connected dominating set from a valid MIS.

    Raises :class:`AlgorithmError` if ``mis`` is not independent+maximal.
    """
    require_valid_mis(dual, mis)
    overlay = build_overlay(dual, mis)
    connectors: set[NodeId] = set()
    for u, nbrs in overlay.items():
        for v in nbrs:
            if u < v:
                connectors.update(_shortest_path_interior(dual, u, v))
    members = frozenset(mis | connectors)
    induced = {
        v: tuple(u for u in dual.reliable_neighbors_sorted(v) if u in members)
        for v in sorted(members)
    }
    return Backbone(
        members=members,
        mis=mis,
        connectors=frozenset(connectors - mis),
        graph=induced,
    )


def _shortest_path_interior(
    dual: DualGraph, u: NodeId, v: NodeId
) -> list[NodeId]:
    """The interior nodes of one shortest ``G``-path from ``u`` to ``v``.

    Walks back from ``u`` along ``v``'s BFS distances, taking the smallest
    neighbor one hop closer at each step.
    """
    dist = dual.distances_from(v)
    interior: list[NodeId] = []
    node = u
    while dist[node] > 1:
        node = next(
            w
            for w in dual.reliable_neighbors_sorted(node)
            if dist.get(w) == dist[node] - 1
        )
        interior.append(node)
    return interior


def is_dominating(dual: DualGraph, members: frozenset[NodeId]) -> bool:
    """True iff every node is in ``members`` or ``G``-adjacent to it."""
    for v in dual.nodes:
        if v not in members and not (dual.reliable_neighbors(v) & members):
            return False
    return True


def is_connected_within_components(dual: DualGraph, backbone: Backbone) -> bool:
    """True iff the backbone is connected inside every ``G``-component."""
    for component in dual.components():
        present = [v for v in component if v in backbone.members]
        # The backbone is an induced subgraph of G, so a BFS from one
        # member never leaves this component.
        if present and len(bfs_distances(backbone.graph, present[0])) < len(present):
            return False
    return True


def validate_cds(dual: DualGraph, backbone: Backbone) -> None:
    """Raise :class:`AlgorithmError` unless the backbone is a valid CDS."""
    if not is_dominating(dual, backbone.members):
        raise AlgorithmError("backbone is not dominating")
    if not is_connected_within_components(dual, backbone):
        raise AlgorithmError("backbone is not connected within components")


@dataclass(frozen=True)
class BroadcastStep:
    """One step of a scheduled backbone broadcast: ``sender`` transmits,
    covering its ``G``-neighborhood; ``new_nodes`` hear it first here."""

    step: int
    sender: NodeId
    new_nodes: frozenset[NodeId]


def cds_broadcast_schedule(
    dual: DualGraph, backbone: Backbone, source: NodeId
) -> list[BroadcastStep]:
    """A sequential broadcast plan over the backbone from ``source``.

    The plan walks a BFS tree of the backbone rooted at the source's
    dominator; each step one backbone node transmits, and the plan ends
    when every node of the source's component has been covered.  Length is
    at most ``|backbone ∩ component|`` steps — and because consecutive
    transmitters are backbone-adjacent, the plan's depth tracks ``O(D)``.

    This is a *schedule* (an existence proof of an efficient backbone
    dissemination), not a distributed protocol; the distributed version is
    BMMB restricted to backbone relays.
    """
    if source not in dual.reliable_adjacency:
        raise TopologyError(f"unknown source {source}")
    component = dual.component_of(source)
    if source in backbone.members:
        root = source
    else:
        dominators = dual.reliable_neighbors(source) & backbone.members
        if not dominators:
            raise AlgorithmError(f"source {source} has no dominator")
        root = min(dominators)
    covered: set[NodeId] = {source}
    schedule: list[BroadcastStep] = []
    # BFS discovery order over the backbone: every sender after its parent.
    for step, sender in enumerate(bfs_distances(backbone.graph, root)):
        reach = (dual.reliable_neighbors(sender) | {sender}) & component
        new = frozenset(reach - covered)
        covered.update(reach)
        schedule.append(BroadcastStep(step=step, sender=sender, new_nodes=new))
        if covered >= component:
            break
    if not covered >= component:
        raise AlgorithmError("backbone schedule failed to cover the component")
    return schedule
