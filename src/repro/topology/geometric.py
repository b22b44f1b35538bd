"""Embedded geometric networks: unit-disk ``G`` and grey-zone ``G'``.

The grey-zone constraint (paper §2) requires a plane embedding ``p`` with:

1. ``(u, v) ∈ E``  iff  ``‖p(u) − p(v)‖ ≤ 1`` (``G`` is the unit-disk graph
   of the embedding), and
2. every ``(u, v) ∈ E'`` has ``‖p(u) − p(v)‖ ≤ c`` for a universal constant
   ``c ≥ 1``.

Clause (2) is an upper bound only — pairs within distance ``c`` need *not*
be ``G'``-neighbors, so we expose a sampling probability for the grey band.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.errors import TopologyError
from repro.ids import NodeId
from repro.sim.rng import RandomSource
from repro.topology.dualgraph import DualGraph, Position

if TYPE_CHECKING:
    import networkx as nx


def _close_pairs(
    positions: dict[NodeId, Position], radius: float
) -> list[tuple[NodeId, NodeId, float]]:
    """All pairs ``u < v`` within ``radius`` (+eps), with their distance.

    Grid-bucketed: nodes land in cells of side ``radius`` and only pairs
    from the same or adjacent cells are compared, so the cost is
    O(n · local density) instead of the all-pairs O(n²).  The result is
    sorted lexicographically, which keeps every consumer's edge insertion
    and RNG draw order identical to the historical nested-loop scan.
    """
    # Cell side must cover the *matching* limit (radius + eps), not just
    # the radius: a pair right at the epsilon band can otherwise span
    # non-adjacent cells and be silently dropped.
    limit = radius + 1e-12
    cell = max(limit, 1e-9)
    buckets: dict[tuple[int, int], list[NodeId]] = {}
    for v, (x, y) in positions.items():
        buckets.setdefault((int(x // cell), int(y // cell)), []).append(v)
    # Half neighborhood: each unordered cell pair is visited exactly once.
    half = ((1, -1), (1, 0), (1, 1), (0, 1))
    hypot = math.hypot
    pairs: list[tuple[NodeId, NodeId, float]] = []
    for (cx, cy), members in buckets.items():
        for i, u in enumerate(members):
            ux, uy = positions[u]
            for v in members[i + 1 :]:
                vx, vy = positions[v]
                dist = hypot(ux - vx, uy - vy)
                if dist <= limit:
                    pairs.append((u, v, dist) if u < v else (v, u, dist))
        for dx, dy in half:
            other = buckets.get((cx + dx, cy + dy))
            if not other:
                continue
            for u in members:
                ux, uy = positions[u]
                for v in other:
                    vx, vy = positions[v]
                    dist = hypot(ux - vx, uy - vy)
                    if dist <= limit:
                        pairs.append(
                            (u, v, dist) if u < v else (v, u, dist)
                        )
    pairs.sort()
    return pairs


def unit_disk_graph(positions: dict[NodeId, Position], radius: float = 1.0) -> nx.Graph:
    """The unit-disk graph of an embedding: edges at distance ≤ ``radius``."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(positions)
    g.add_edges_from((u, v) for u, v, _dist in _close_pairs(positions, radius))
    return g


def _check_grey_zone_params(c: float, grey_edge_probability: float) -> None:
    if c < 1.0:
        raise TopologyError(f"grey-zone constant must satisfy c >= 1, got {c}")
    if not 0.0 <= grey_edge_probability <= 1.0:
        raise TopologyError(
            f"probability must be in [0,1], got {grey_edge_probability}"
        )


def _grey_zone_from_pairs(
    positions: dict[NodeId, Position],
    pairs: list[tuple[NodeId, NodeId, float]],
    grey_edge_probability: float,
    rng: RandomSource,
    name: str,
) -> DualGraph:
    """The grey-zone dual graph over ``_close_pairs(positions, c)``.

    Pairs at distance ≤ 1 are E, pairs in the grey band (1, c] are G'-edge
    candidates.  The pairs are lexicographically sorted, so the
    per-candidate Bernoulli draws happen in exactly the order the
    historical all-pairs scan used.
    """
    reliable_edges: list[tuple[NodeId, NodeId]] = []
    extra: list[tuple[NodeId, NodeId]] = []
    for u, v, dist in pairs:
        if dist <= 1.0 + 1e-12:
            reliable_edges.append((u, v))
        elif rng.bernoulli(grey_edge_probability):
            extra.append((u, v))
    return DualGraph.from_edges(
        len(positions), reliable_edges, extra, positions=positions, name=name
    )


def _unit_disk_connected(
    n: int, pairs: list[tuple[NodeId, NodeId, float]]
) -> bool:
    """True if the pairs at distance ≤ 1 connect nodes ``0..n-1`` (union-find)."""
    parent = list(range(n))

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    components = n
    for u, v, dist in pairs:
        if dist <= 1.0 + 1e-12:
            ru, rv = root(u), root(v)
            if ru != rv:
                parent[ru] = rv
                components -= 1
    return components == 1


def grey_zone_network(
    positions: dict[NodeId, Position],
    c: float,
    grey_edge_probability: float,
    rng: RandomSource,
    name: str | None = None,
) -> DualGraph:
    """A grey-zone dual graph from an explicit embedding.

    ``G`` is the unit-disk graph at radius 1; every node pair at distance in
    ``(1, c]`` is added to ``G'`` independently with probability
    ``grey_edge_probability``.

    Args:
        positions: Plane embedding of the nodes.
        c: Grey-zone constant (``c >= 1``).
        grey_edge_probability: Inclusion probability for grey-band pairs.
        rng: Random stream.
    """
    _check_grey_zone_params(c, grey_edge_probability)
    return _grey_zone_from_pairs(
        positions,
        _close_pairs(positions, c),
        grey_edge_probability,
        rng,
        name or f"grey-zone-c{c}",
    )


def random_geometric_network(
    n: int,
    side: float,
    c: float,
    grey_edge_probability: float,
    rng: RandomSource,
    connect: bool = True,
    max_attempts: int = 200,
    name: str | None = None,
) -> DualGraph:
    """A random grey-zone network: ``n`` points uniform in a ``side×side`` box.

    With ``connect=True``, resamples until the unit-disk graph is connected
    (raising after ``max_attempts``); pick ``side ≲ sqrt(n)/2`` for easy
    connectivity.  Each attempt finds the close pairs once, at radius ``c``:
    the pairs within distance 1 decide connectivity, and the same pairs
    build the grey-zone graph.

    Returns a :class:`DualGraph` with the embedding attached, so the FMMB
    subroutines and the grey-zone predicate can use positions.
    """
    if n < 1:
        raise TopologyError(f"need n >= 1, got {n}")
    _check_grey_zone_params(c, grey_edge_probability)
    point_rng = rng.child("points")
    edge_rng = rng.child("grey-edges")
    for attempt in range(max_attempts):
        positions = {
            i: (point_rng.uniform(0.0, side), point_rng.uniform(0.0, side))
            for i in range(n)
        }
        pairs = _close_pairs(positions, c)
        if not connect or _unit_disk_connected(n, pairs):
            return _grey_zone_from_pairs(
                positions,
                pairs,
                grey_edge_probability,
                edge_rng,
                name or f"rgg-n{n}-side{side}-c{c}",
            )
    raise TopologyError(
        f"failed to sample a connected unit-disk graph in {max_attempts} "
        f"attempts (n={n}, side={side}); reduce side or set connect=False"
    )


def cluster_line_positions(
    clusters: int, nodes_per_cluster: int, spacing: float = 0.9
) -> dict[NodeId, Position]:
    """Embedding of dense clusters spaced along a line.

    A convenient deterministic grey-zone workload: each cluster is a tight
    blob (mutual distance < 1), consecutive clusters are ``spacing`` apart so
    only adjacent blobs connect.  Produces diameter ≈ ``clusters`` with high
    local contention — the regime where ``Fprog ≪ Fack`` matters.
    """
    if clusters < 1 or nodes_per_cluster < 1:
        raise TopologyError("need at least one cluster and one node per cluster")
    positions: dict[NodeId, Position] = {}
    node = 0
    for ci in range(clusters):
        base_x = ci * spacing
        for j in range(nodes_per_cluster):
            # Tiny deterministic offsets keep intra-cluster distances < 0.1.
            angle = 2.0 * math.pi * j / max(nodes_per_cluster, 1)
            positions[node] = (
                base_x + 0.04 * math.cos(angle),
                0.04 * math.sin(angle),
            )
            node += 1
    return positions
