"""Reliable-graph families and unreliable-edge augmentations.

Reliable families (``G``): line, ring, star, 2-D grid, balanced tree, and —
via :mod:`repro.topology.geometric` — unit-disk graphs.  Augmentations add
the unreliable layer ``G' \\ G`` in the three regimes the paper studies:

* ``G' = G`` (:func:`reliable_only`),
* ``r``-restricted (:func:`with_r_restricted_unreliable`): extra edges only
  between nodes within ``r`` hops of each other in ``G``,
* arbitrary (:func:`with_arbitrary_unreliable`): extra edges anywhere.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import TopologyError
from repro.ids import NodeId
from repro.sim.rng import RandomSource
from repro.topology.dualgraph import DualGraph

if TYPE_CHECKING:
    import networkx as nx


# ----------------------------------------------------------------------
# Reliable families
# ----------------------------------------------------------------------
def line_graph(n: int) -> nx.Graph:
    """A path ``0 — 1 — ... — n-1`` (diameter ``n − 1``)."""
    if n < 1:
        raise TopologyError(f"line needs n >= 1, got {n}")
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from((i, i + 1) for i in range(n - 1))
    return g


def ring_graph(n: int) -> nx.Graph:
    """A cycle of ``n >= 3`` nodes (diameter ``⌊n/2⌋``)."""
    if n < 3:
        raise TopologyError(f"ring needs n >= 3, got {n}")
    g = line_graph(n)
    g.add_edge(n - 1, 0)
    return g


def star_graph(n: int) -> nx.Graph:
    """A star: hub ``0`` connected to leaves ``1..n-1``."""
    if n < 2:
        raise TopologyError(f"star needs n >= 2, got {n}")
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from((0, i) for i in range(1, n))
    return g


def grid_graph(rows: int, cols: int) -> nx.Graph:
    """A ``rows × cols`` 2-D grid with integer node ids ``r*cols + c``."""
    if rows < 1 or cols < 1:
        raise TopologyError(f"grid needs positive dimensions, got {rows}x{cols}")
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(rows * cols))
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                g.add_edge(v, v + 1)
            if r + 1 < rows:
                g.add_edge(v, v + cols)
    return g


def tree_graph(branching: int, height: int) -> nx.Graph:
    """A complete ``branching``-ary tree of the given height, ids in BFS order."""
    if branching < 1 or height < 0:
        raise TopologyError(
            f"tree needs branching >= 1 and height >= 0, got {branching}, {height}"
        )
    import networkx as nx

    g = nx.Graph()
    g.add_node(0)
    frontier = [0]
    next_id = 1
    for _ in range(height):
        new_frontier = []
        for parent in frontier:
            for _ in range(branching):
                g.add_edge(parent, next_id)
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    return g


# ----------------------------------------------------------------------
# Dual-graph constructors
# ----------------------------------------------------------------------
def reliable_only(g: nx.Graph, name: str = "g-equals-gprime") -> DualGraph:
    """The ``G' = G`` regime of [29, 30]: no unreliable edges at all."""
    import networkx as nx

    gp = nx.Graph()
    gp.add_nodes_from(g.nodes)
    gp.add_edges_from(g.edges)
    return DualGraph(g, gp, name=name)


def line_network(n: int) -> DualGraph:
    """Line with ``G' = G``."""
    return reliable_only(line_graph(n), name=f"line-{n}")


def ring_network(n: int) -> DualGraph:
    """Ring with ``G' = G``."""
    return reliable_only(ring_graph(n), name=f"ring-{n}")


def star_network(n: int) -> DualGraph:
    """Star with ``G' = G``."""
    return reliable_only(star_graph(n), name=f"star-{n}")


def grid_network(rows: int, cols: int) -> DualGraph:
    """Grid with ``G' = G``."""
    return reliable_only(grid_graph(rows, cols), name=f"grid-{rows}x{cols}")


def tree_network(branching: int, height: int) -> DualGraph:
    """Complete tree with ``G' = G``."""
    return reliable_only(
        tree_graph(branching, height), name=f"tree-{branching}^{height}"
    )


# ----------------------------------------------------------------------
# Unreliable augmentations
# ----------------------------------------------------------------------
def with_r_restricted_unreliable(
    g: nx.Graph,
    r: int,
    probability: float,
    rng: RandomSource,
    name: str | None = None,
) -> DualGraph:
    """Add each candidate ``G^r`` non-edge-of-``G`` pair to ``G'`` i.i.d.

    The result is ``r``-restricted by construction: every added edge joins
    nodes at ``G``-distance in ``[2, r]``.  With ``r = 1`` no edge can be
    added and the result degenerates to ``G' = G``, matching the paper's
    observation that 1-restriction is the reliable case.

    Args:
        g: The reliable graph.
        r: Restriction radius (``r >= 1``).
        probability: Inclusion probability per candidate pair.
        rng: Random stream for reproducibility.
    """
    if r < 1:
        raise TopologyError(f"r must be >= 1, got {r}")
    if not 0.0 <= probability <= 1.0:
        raise TopologyError(f"probability must be in [0,1], got {probability}")
    import networkx as nx

    extra: list[tuple[NodeId, NodeId]] = []
    for v in sorted(g.nodes):
        lengths = nx.single_source_shortest_path_length(g, v, cutoff=r)
        for u, dist in sorted(lengths.items()):
            if u <= v or dist < 2:
                continue
            if rng.bernoulli(probability):
                extra.append((v, u))
    dual = DualGraph.from_edges(
        g.number_of_nodes(),
        g.edges,
        extra,
        name=name or f"r{r}-restricted",
    )
    return dual


def with_arbitrary_unreliable(
    g: nx.Graph,
    extra_edge_count: int,
    rng: RandomSource,
    name: str | None = None,
) -> DualGraph:
    """Add ``extra_edge_count`` uniformly random non-``G`` pairs to ``G'``.

    This realizes the "arbitrary ``G'``" regime: added edges may join nodes
    arbitrarily far apart in ``G`` (or even in different components).
    """
    nodes = sorted(g.nodes)
    n = len(nodes)
    candidates = [
        (nodes[i], nodes[j])
        for i in range(n)
        for j in range(i + 1, n)
        if not g.has_edge(nodes[i], nodes[j])
    ]
    if extra_edge_count > len(candidates):
        raise TopologyError(
            f"requested {extra_edge_count} extra edges but only "
            f"{len(candidates)} candidate pairs exist"
        )
    extra = rng.sample(candidates, extra_edge_count)
    return DualGraph.from_edges(
        n, g.edges, extra, name=name or f"arbitrary+{extra_edge_count}"
    )
