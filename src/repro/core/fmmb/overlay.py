"""The FMMB overlay graph ``H`` (paper §4.4).

``H``'s vertices are the MIS nodes; two MIS nodes are ``H``-adjacent when
their hop distance in ``G`` is at most 3.  Because the MIS is maximal, ``H``
is connected within every connected component of ``G`` (a standard fact:
consecutive MIS "representatives" along any ``G``-path are within 3 hops),
and its hop diameter ``D_H`` satisfies ``D_H ≤ D``.

``H`` is an adjacency mapping: MIS node (ascending) -> its ``H``-neighbors.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import TopologyError
from repro.ids import NodeId
from repro.topology.dualgraph import DualGraph, bfs_distances, hop_diameter

#: The overlay adjacency radius from the paper: MIS pairs within 3 G-hops.
OVERLAY_RADIUS = 3

Overlay = Mapping[NodeId, frozenset[NodeId]]


def build_overlay(dual: DualGraph, mis: frozenset[NodeId]) -> Overlay:
    """Build ``H = (S, E_S)`` with edges between MIS pairs ≤ 3 hops apart."""
    adj = dual.reliable_adjacency
    missing = [v for v in mis if v not in adj]
    if missing:
        raise TopologyError(f"MIS nodes not in topology: {missing[:5]}")
    return {
        v: frozenset(
            u
            for u in bfs_distances(adj, v, cutoff=OVERLAY_RADIUS)
            if u != v and u in mis
        )
        for v in sorted(mis)
    }


def overlay_diameter(overlay: Overlay) -> int:
    """Hop diameter ``D_H`` (max over connected components)."""
    return hop_diameter(overlay)


def overlay_mirrors_components(dual: DualGraph, overlay: Overlay) -> bool:
    """Check that ``H`` is connected inside every component of ``G``.

    Used as a postcondition test: for a valid (maximal) MIS, the MIS nodes
    of one ``G``-component must form one ``H``-component.
    """
    for component in dual.components():
        members = [v for v in component if v in overlay]
        # H-edges never leave a G-component, so one BFS from any member
        # reaches exactly its H-component inside this G-component.
        if members and len(bfs_distances(overlay, members[0])) != len(members):
            return False
    return True
