"""The dual graph ``(G, G')`` — reliable and unreliable connectivity.

This is the package's central topology type.  It validates the model's
structural constraint ``E ⊆ E'`` at construction, precomputes adjacency
sets/tuples for the hot paths (the MAC layer queries neighbors on every
broadcast; the round and radio substrates iterate them every round/slot),
and offers the graph-theoretic helpers the paper's definitions use:
shortest-path distances in ``G``, the power graph ``G^r``, the
``r``-restriction predicate, and the grey-zone embedding predicate.

Performance notes:

* Every query the simulation loop touches — neighbor sets, sorted neighbor
  tuples, node lists, BFS distances, components, diameter, ``G^r`` — is
  answered from arrays/dicts precomputed at construction or from
  **per-instance** caches filled on first use.  networkx is used only to
  *build* and validate the graphs; no hot path calls into it, and it is
  imported inside the functions that build graphs, so importing this
  module does not load it.
* The diameter does not run one BFS per node through the distance cache:
  :func:`hop_diameter` runs a bit-parallel BFS from every source at once
  (one Python-int bitmask of reached sources per node), in blocks of at
  most ``_DIAMETER_BLOCK`` sources.  Each block costs O(D·(n+|E|))
  big-int ORs and O(n·block/8) bytes, and ``_bfs_cache`` is left untouched.
* Caches are per-instance (plain dicts), not module-level ``lru_cache``:
  an ``lru_cache`` keyed on ``self`` would pin every :class:`DualGraph`
  (and its networkx graphs) alive process-wide — a real leak across the
  thousands of topologies a parallel sweep builds.
* Instances are treated as immutable after construction (mutating the
  underlying networkx graphs voids the caches); nothing in the package
  mutates them.
"""

from __future__ import annotations

import math
from collections import deque
from functools import reduce
from operator import or_
from typing import TYPE_CHECKING, Collection, Iterable, Mapping

from repro.errors import TopologyError
from repro.ids import NodeId

if TYPE_CHECKING:
    import networkx as nx

Position = tuple[float, float]

#: Cap on the number of cached BFS sources per instance (the cache serves
#: point queries such as :meth:`DualGraph.distance`; it simply restarts
#: when full).  The diameter does not go through it.
_BFS_CACHE_MAX = 4096

#: Sources per block of :func:`hop_diameter`'s bit-parallel BFS; bounds its
#: masks at n·block bits.
_DIAMETER_BLOCK = 4096


def hop_diameter(adj: Mapping[NodeId, Collection[NodeId]]) -> int:
    """Largest finite hop eccentricity of the graph with adjacency ``adj``.

    That is the maximum diameter over connected components (0 when every
    component is a single node).  Exact: one BFS from every source at once.
    Each node holds a bitmask of the sources that have reached it, and one
    round ORs every node's neighbors' masks into its own; the number of
    rounds in which some mask still grows is the answer.  Sources run in
    blocks of at most ``_DIAMETER_BLOCK``.
    """
    index = {v: i for i, v in enumerate(adj)}
    nbrs = [[index[u] for u in adj[v]] for v in adj]
    n = len(nbrs)
    diameter = 0
    for base in range(0, n, _DIAMETER_BLOCK):
        reached = [0] * n
        for s in range(base, min(base + _DIAMETER_BLOCK, n)):
            reached[s] = 1 << (s - base)
        rounds = 0
        while True:
            get = reached.__getitem__
            grown = [
                reduce(or_, map(get, nb), mask) for nb, mask in zip(nbrs, reached)
            ]
            if grown == reached:
                break
            reached = grown
            rounds += 1
        diameter = max(diameter, rounds)
    return diameter


class DualGraph:
    """A validated dual graph ``(G, G')`` with optional plane embedding.

    Args:
        reliable: The reliable graph ``G``.
        unreliable: The full communication graph ``G'``; must contain every
            vertex and edge of ``G``.  Edges of ``G' \\ G`` are the
            *unreliable* links.
        positions: Optional plane embedding ``p: V → R²`` (required by the
            grey-zone constraint predicate and by geometric generators).
        name: Human-readable label used in experiment reports.

    Raises:
        TopologyError: If the vertex sets differ, ``E ⊄ E'``, or positions
            are given for only part of the vertex set.
    """

    def __init__(
        self,
        reliable: nx.Graph,
        unreliable: nx.Graph,
        positions: Mapping[NodeId, Position] | None = None,
        name: str = "dual-graph",
    ):
        if set(reliable.nodes) != set(unreliable.nodes):
            raise TopologyError("G and G' must share the same vertex set")
        missing = [e for e in reliable.edges if not unreliable.has_edge(*e)]
        if missing:
            raise TopologyError(
                f"E ⊆ E' violated: {len(missing)} reliable edges missing from G' "
                f"(first: {missing[0]})"
            )
        if positions is not None:
            absent = set(reliable.nodes) - set(positions)
            if absent:
                raise TopologyError(
                    f"embedding missing positions for {len(absent)} nodes"
                )
        self.name = name
        self._g = reliable
        self._gp = unreliable
        self.positions: dict[NodeId, Position] | None = (
            dict(positions) if positions is not None else None
        )
        #: Sorted vertex tuple (hot paths iterate this; no per-call sort).
        self._nodes_sorted: tuple[NodeId, ...] = tuple(sorted(reliable.nodes))
        # Precomputed adjacency (hot path for the MAC layer): frozensets
        # for O(1) membership, sorted tuples for deterministic iteration
        # without per-broadcast sorting.
        self._g_adj: dict[NodeId, frozenset[NodeId]] = {
            v: frozenset(reliable.neighbors(v)) for v in reliable.nodes
        }
        self._gp_adj: dict[NodeId, frozenset[NodeId]] = {
            v: frozenset(unreliable.neighbors(v)) for v in unreliable.nodes
        }
        self._unreliable_only_adj: dict[NodeId, frozenset[NodeId]] = {
            v: self._gp_adj[v] - self._g_adj[v] for v in reliable.nodes
        }
        self._g_adj_sorted: dict[NodeId, tuple[NodeId, ...]] = {
            v: tuple(sorted(adj)) for v, adj in self._g_adj.items()
        }
        self._gp_adj_sorted: dict[NodeId, tuple[NodeId, ...]] = {
            v: tuple(sorted(adj)) for v, adj in self._gp_adj.items()
        }
        self._uo_adj_sorted: dict[NodeId, tuple[NodeId, ...]] = {
            v: tuple(sorted(adj))
            for v, adj in self._unreliable_only_adj.items()
        }
        # Per-instance lazy caches (see module docstring).
        self._bfs_cache: dict[NodeId, dict[NodeId, int]] = {}
        self._power_cache: dict[int, nx.Graph] = {}
        self._components_cache: list[frozenset[NodeId]] | None = None
        self._component_of_cache: dict[NodeId, frozenset[NodeId]] | None = None
        self._diameter_cache: int | None = None

    # ------------------------------------------------------------------
    # Basic structure
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self._nodes_sorted)

    @property
    def nodes(self) -> list[NodeId]:
        """Vertex list in sorted order (a fresh list; callers may mutate)."""
        return list(self._nodes_sorted)

    @property
    def nodes_sorted(self) -> tuple[NodeId, ...]:
        """Sorted vertex tuple — the allocation-free hot-path variant."""
        return self._nodes_sorted

    @property
    def reliable_graph(self) -> nx.Graph:
        """The reliable graph ``G`` (do not mutate)."""
        return self._g

    @property
    def unreliable_graph(self) -> nx.Graph:
        """The full graph ``G'`` (do not mutate)."""
        return self._gp

    @property
    def reliable_adjacency(self) -> Mapping[NodeId, frozenset[NodeId]]:
        """``v -> reliable_neighbors(v)`` for every vertex (do not mutate).

        Its keys are the vertex set, so ``v in dual.reliable_adjacency``
        is the O(1) vertex test hot paths use.
        """
        return self._g_adj

    def reliable_neighbors(self, v: NodeId) -> frozenset[NodeId]:
        """Neighbors of ``v`` in ``G`` (links the MAC always delivers on)."""
        return self._g_adj[v]

    def gprime_neighbors(self, v: NodeId) -> frozenset[NodeId]:
        """Neighbors of ``v`` in ``G'`` (all links, reliable or not)."""
        return self._gp_adj[v]

    def unreliable_only_neighbors(self, v: NodeId) -> frozenset[NodeId]:
        """Neighbors of ``v`` in ``G' \\ G`` (purely unreliable links)."""
        return self._unreliable_only_adj[v]

    def reliable_neighbors_sorted(self, v: NodeId) -> tuple[NodeId, ...]:
        """``reliable_neighbors(v)`` as a precomputed sorted tuple."""
        return self._g_adj_sorted[v]

    def gprime_neighbors_sorted(self, v: NodeId) -> tuple[NodeId, ...]:
        """``gprime_neighbors(v)`` as a precomputed sorted tuple."""
        return self._gp_adj_sorted[v]

    def unreliable_only_neighbors_sorted(self, v: NodeId) -> tuple[NodeId, ...]:
        """``unreliable_only_neighbors(v)`` as a precomputed sorted tuple."""
        return self._uo_adj_sorted[v]

    def is_reliable_edge(self, u: NodeId, v: NodeId) -> bool:
        """True if ``(u, v) ∈ E``."""
        return v in self._g_adj[u]

    def is_gprime_edge(self, u: NodeId, v: NodeId) -> bool:
        """True if ``(u, v) ∈ E'``."""
        return v in self._gp_adj[u]

    @property
    def reliable_edge_count(self) -> int:
        """Number of edges in ``G``."""
        return self._g.number_of_edges()

    @property
    def unreliable_edge_count(self) -> int:
        """Number of edges in ``G' \\ G``."""
        return self._gp.number_of_edges() - self._g.number_of_edges()

    def max_gprime_degree(self) -> int:
        """Maximum degree in ``G'``; bounds worst-case receiver contention."""
        return max((len(adj) for adj in self._gp_adj.values()), default=0)

    # ------------------------------------------------------------------
    # Distances and diameter (w.r.t. G, as in the paper)
    # ------------------------------------------------------------------
    def distances_from(self, source: NodeId) -> dict[NodeId, int]:
        """Hop distances ``d_G(source, ·)`` for the reachable set."""
        return self._bfs(source)

    def _bfs(self, source: NodeId) -> dict[NodeId, int]:
        cached = self._bfs_cache.get(source)
        if cached is not None:
            return cached
        if source not in self._g_adj:
            raise TopologyError(f"unknown node {source}")
        adj = self._g_adj
        dist = {source: 0}
        frontier = deque((source,))
        while frontier:
            v = frontier.popleft()
            d = dist[v] + 1
            for u in adj[v]:
                if u not in dist:
                    dist[u] = d
                    frontier.append(u)
        if len(self._bfs_cache) >= _BFS_CACHE_MAX:
            self._bfs_cache.clear()
        self._bfs_cache[source] = dist
        return dist

    def distance(self, u: NodeId, v: NodeId) -> int:
        """``d_G(u, v)``; raises if disconnected."""
        dist = self._bfs(u).get(v)
        if dist is None:
            raise TopologyError(f"nodes {u} and {v} are not connected in G")
        return dist

    def diameter(self) -> int:
        """Diameter ``D`` of ``G``.

        For disconnected ``G`` (the MMB definition permits it), returns the
        maximum diameter over connected components — the quantity every
        per-component bound in the paper uses.
        """
        if self._diameter_cache is None:
            self._diameter_cache = hop_diameter(self._g_adj)
        return self._diameter_cache

    def components(self) -> list[frozenset[NodeId]]:
        """Connected components of ``G``, ordered by smallest member."""
        if self._components_cache is None:
            adj = self._g_adj
            seen: set[NodeId] = set()
            components: list[frozenset[NodeId]] = []
            for start in self._nodes_sorted:
                if start in seen:
                    continue
                component: set[NodeId] = {start}
                stack = [start]
                while stack:
                    v = stack.pop()
                    for u in adj[v]:
                        if u not in component:
                            component.add(u)
                            stack.append(u)
                seen |= component
                components.append(frozenset(component))
            self._components_cache = components
        return self._components_cache

    def component_of(self, v: NodeId) -> frozenset[NodeId]:
        """The connected component of ``v`` in ``G``."""
        if self._component_of_cache is None:
            self._component_of_cache = {
                node: component
                for component in self.components()
                for node in component
            }
        try:
            return self._component_of_cache[v]
        except KeyError:
            raise TopologyError(f"unknown node {v}") from None

    # ------------------------------------------------------------------
    # Paper constraint predicates
    # ------------------------------------------------------------------
    def power_graph(self, r: int) -> nx.Graph:
        """The ``r``-th power ``G^r``: edges between distinct nodes within
        ``r`` hops of each other in ``G`` (no self-loops, paper §3.2).

        Cached per instance and keyed by ``r`` — do not mutate the result.
        """
        if r < 1:
            raise TopologyError(f"power graph exponent must be >= 1, got {r}")
        cached = self._power_cache.get(r)
        if cached is not None:
            return cached
        import networkx as nx

        adj = self._g_adj
        power = nx.Graph()
        power.add_nodes_from(self._g.nodes)
        for v in self._nodes_sorted:
            # Bounded BFS to depth r.
            dist = {v: 0}
            frontier = deque((v,))
            while frontier:
                w = frontier.popleft()
                d = dist[w] + 1
                if d > r:
                    break
                for u in adj[w]:
                    if u not in dist:
                        dist[u] = d
                        frontier.append(u)
            for u in dist:
                if u != v:
                    power.add_edge(v, u)
        self._power_cache[r] = power
        return power

    def is_g_equals_gprime(self) -> bool:
        """True under the original [29/30] assumption ``G' = G``."""
        return self.unreliable_edge_count == 0

    def is_r_restricted(self, r: int) -> bool:
        """True if every ``G'`` edge connects nodes within ``r`` hops in ``G``."""
        for u, v in self._gp.edges:
            if u in self._g_adj[v]:
                continue
            try:
                if self.distance(u, v) > r:
                    return False
            except TopologyError:
                return False
        return True

    def restriction_radius(self) -> int | None:
        """The smallest ``r`` for which ``G'`` is ``r``-restricted.

        Returns None if some ``G'`` edge joins different ``G``-components
        (no finite ``r`` exists — the "arbitrary G'" regime).
        """
        worst = 1
        for u, v in self._gp.edges:
            if u in self._g_adj[v]:
                continue
            try:
                worst = max(worst, self.distance(u, v))
            except TopologyError:
                return None
        return worst

    def is_grey_zone(self, c: float) -> bool:
        """Check the grey-zone constraint for parameter ``c ≥ 1``.

        Requires an embedding and verifies both clauses of the paper's
        definition: (1) ``(u,v) ∈ E`` iff ``‖p(u)−p(v)‖ ≤ 1``; (2) every
        ``(u,v) ∈ E'`` has ``‖p(u)−p(v)‖ ≤ c``.
        """
        if self.positions is None:
            raise TopologyError("grey-zone check requires an embedding")
        if c < 1:
            raise TopologyError(f"grey-zone constant must satisfy c >= 1, got {c}")
        nodes = self._nodes_sorted
        for i, u in enumerate(nodes):
            for v in nodes[i + 1 :]:
                dist = self.euclidean(u, v)
                in_e = v in self._g_adj[u]
                if in_e != (dist <= 1.0 + 1e-12):
                    return False
        for u, v in self._gp.edges:
            if self.euclidean(u, v) > c + 1e-12:
                return False
        return True

    def euclidean(self, u: NodeId, v: NodeId) -> float:
        """Euclidean distance between embedded nodes."""
        if self.positions is None:
            raise TopologyError("no embedding available")
        (ux, uy), (vx, vy) = self.positions[u], self.positions[v]
        return math.hypot(ux - vx, uy - vy)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def from_edges(
        n: int,
        reliable_edges: Iterable[tuple[NodeId, NodeId]],
        unreliable_extra_edges: Iterable[tuple[NodeId, NodeId]] = (),
        positions: Mapping[NodeId, Position] | None = None,
        name: str = "dual-graph",
    ) -> "DualGraph":
        """Build a dual graph over nodes ``0..n-1`` from edge lists.

        ``unreliable_extra_edges`` lists only the edges of ``G' \\ G``; the
        reliable edges are included in ``G'`` automatically.
        """
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(reliable_edges)
        gp = nx.Graph()
        gp.add_nodes_from(range(n))
        gp.add_edges_from(g.edges)
        for u, v in unreliable_extra_edges:
            if u == v:
                raise TopologyError(f"self-loop ({u},{v}) not allowed")
            gp.add_edge(u, v)
        return DualGraph(g, gp, positions=positions, name=name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DualGraph({self.name!r}, n={self.n}, "
            f"|E|={self.reliable_edge_count}, "
            f"|E'\\E|={self.unreliable_edge_count})"
        )
