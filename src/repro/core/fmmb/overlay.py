"""The FMMB overlay graph ``H`` (paper §4.4).

``H``'s vertices are the MIS nodes; two MIS nodes are ``H``-adjacent when
their hop distance in ``G`` is at most 3.  Because the MIS is maximal, ``H``
is connected within every connected component of ``G`` (a standard fact:
consecutive MIS "representatives" along any ``G``-path are within 3 hops),
and its hop diameter ``D_H`` satisfies ``D_H ≤ D``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import TopologyError
from repro.ids import NodeId
from repro.topology.dualgraph import DualGraph, hop_diameter

if TYPE_CHECKING:
    import networkx as nx

#: The overlay adjacency radius from the paper: MIS pairs within 3 G-hops.
OVERLAY_RADIUS = 3


def build_overlay(dual: DualGraph, mis: frozenset[NodeId]) -> nx.Graph:
    """Build ``H = (S, E_S)`` with edges between MIS pairs ≤ 3 hops apart."""
    missing = [v for v in mis if not dual.reliable_graph.has_node(v)]
    if missing:
        raise TopologyError(f"MIS nodes not in topology: {missing[:5]}")
    import networkx as nx

    overlay = nx.Graph()
    overlay.add_nodes_from(sorted(mis))
    for v in sorted(mis):
        lengths = nx.single_source_shortest_path_length(
            dual.reliable_graph, v, cutoff=OVERLAY_RADIUS
        )
        for u, dist in lengths.items():
            if u != v and u in mis and dist <= OVERLAY_RADIUS:
                overlay.add_edge(v, u)
    return overlay


def overlay_diameter(overlay: nx.Graph) -> int:
    """Hop diameter ``D_H`` (max over connected components)."""
    return hop_diameter(overlay.adj)


def overlay_mirrors_components(dual: DualGraph, overlay: nx.Graph) -> bool:
    """Check that ``H`` is connected inside every component of ``G``.

    Used as a postcondition test: for a valid (maximal) MIS, the MIS nodes
    of one ``G``-component must form one ``H``-component.
    """
    import networkx as nx

    for component in dual.components():
        members = [v for v in component if overlay.has_node(v)]
        if len(members) <= 1:
            continue
        sub = overlay.subgraph(members)
        if not nx.is_connected(sub):
            return False
    return True
