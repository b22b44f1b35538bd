"""Reliable-graph families and unreliable-edge augmentations.

Reliable families with ``G' = G``: line, ring, star, 2-D grid and balanced
tree (unit-disk ``G`` lives in :mod:`repro.topology.geometric`).  Each is
an edge list handed to :class:`DualGraph`.  Augmentations take such a
``G' = G`` base network and add the unreliable layer ``G' \\ G`` in the
other two regimes the paper studies:

* ``r``-restricted (:func:`with_r_restricted_unreliable`): extra edges only
  between nodes within ``r`` hops of each other in ``G``,
* arbitrary (:func:`with_arbitrary_unreliable`): extra edges anywhere.
"""

from __future__ import annotations

from repro.errors import TopologyError
from repro.sim.rng import RandomSource
from repro.topology.dualgraph import DualGraph, Edge, bfs_distances


# ----------------------------------------------------------------------
# Reliable families (G' = G)
# ----------------------------------------------------------------------
def line_network(n: int) -> DualGraph:
    """A path ``0 — 1 — ... — n-1`` (diameter ``n − 1``)."""
    if n < 1:
        raise TopologyError(f"line needs n >= 1, got {n}")
    return DualGraph(n, [(i, i + 1) for i in range(n - 1)], name=f"line-{n}")


def ring_network(n: int) -> DualGraph:
    """A cycle of ``n >= 3`` nodes (diameter ``⌊n/2⌋``)."""
    if n < 3:
        raise TopologyError(f"ring needs n >= 3, got {n}")
    return DualGraph(n, [(i, (i + 1) % n) for i in range(n)], name=f"ring-{n}")


def star_network(n: int) -> DualGraph:
    """A star: hub ``0`` connected to leaves ``1..n-1``."""
    if n < 2:
        raise TopologyError(f"star needs n >= 2, got {n}")
    return DualGraph(n, [(0, i) for i in range(1, n)], name=f"star-{n}")


def grid_network(rows: int, cols: int) -> DualGraph:
    """A ``rows × cols`` 2-D grid with integer node ids ``r*cols + c``."""
    if rows < 1 or cols < 1:
        raise TopologyError(f"grid needs positive dimensions, got {rows}x{cols}")
    edges: list[Edge] = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return DualGraph(rows * cols, edges, name=f"grid-{rows}x{cols}")


def tree_network(branching: int, height: int) -> DualGraph:
    """A complete ``branching``-ary tree of the given height, ids in BFS order."""
    if branching < 1 or height < 0:
        raise TopologyError(
            f"tree needs branching >= 1 and height >= 0, got {branching}, {height}"
        )
    edges: list[Edge] = []
    frontier = [0]
    next_id = 1
    for _ in range(height):
        new_frontier = []
        for parent in frontier:
            for _ in range(branching):
                edges.append((parent, next_id))
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    return DualGraph(next_id, edges, name=f"tree-{branching}^{height}")


# ----------------------------------------------------------------------
# Unreliable augmentations
# ----------------------------------------------------------------------
def _require_reliable_only(base: DualGraph) -> None:
    if not base.is_g_equals_gprime():
        raise TopologyError(
            f"augmentation needs a G' = G base network, got {base.name!r} "
            f"with {base.unreliable_edge_count} unreliable edges"
        )


def with_r_restricted_unreliable(
    base: DualGraph,
    r: int,
    probability: float,
    rng: RandomSource,
    name: str | None = None,
) -> DualGraph:
    """Add each pair at ``G``-distance ``2..r`` to ``G'`` independently.

    The result is ``r``-restricted by construction: every added edge joins
    nodes at ``G``-distance in ``[2, r]``.  With ``r = 1`` no edge can be
    added and the result degenerates to ``G' = G``, matching the paper's
    observation that 1-restriction is the reliable case.

    Args:
        base: The ``G' = G`` network whose ``G`` is kept.
        r: Restriction radius (``r >= 1``).
        probability: Inclusion probability per candidate pair.
        rng: Random stream for reproducibility.
    """
    _require_reliable_only(base)
    if r < 1:
        raise TopologyError(f"r must be >= 1, got {r}")
    if not 0.0 <= probability <= 1.0:
        raise TopologyError(f"probability must be in [0,1], got {probability}")
    adj = base.reliable_adjacency
    extra: list[Edge] = []
    for v in base.nodes_sorted:
        for u, dist in sorted(bfs_distances(adj, v, cutoff=r).items()):
            if u <= v or dist < 2:
                continue
            if rng.bernoulli(probability):
                extra.append((v, u))
    return DualGraph(
        base.n, base.reliable_edges, extra, name=name or f"r{r}-restricted"
    )


def with_arbitrary_unreliable(
    base: DualGraph,
    extra_edge_count: int,
    rng: RandomSource,
    name: str | None = None,
) -> DualGraph:
    """Add ``extra_edge_count`` uniformly random non-``G`` pairs to ``G'``.

    This realizes the "arbitrary ``G'``" regime: added edges may join nodes
    of the ``G' = G`` network ``base`` arbitrarily far apart in ``G`` (or
    even in different components).
    """
    _require_reliable_only(base)
    nodes = base.nodes_sorted
    n = len(nodes)
    candidates: list[Edge] = [
        (nodes[i], nodes[j])
        for i in range(n)
        for j in range(i + 1, n)
        if not base.is_reliable_edge(nodes[i], nodes[j])
    ]
    if extra_edge_count > len(candidates):
        raise TopologyError(
            f"requested {extra_edge_count} extra edges but only "
            f"{len(candidates)} candidate pairs exist"
        )
    extra = rng.sample(candidates, extra_edge_count)
    return DualGraph(
        n, base.reliable_edges, extra, name=name or f"arbitrary+{extra_edge_count}"
    )
