"""The dual graph ``(G, G')`` — reliable and unreliable connectivity.

This is the package's one graph type.  A :class:`DualGraph` is built from
edge lists over nodes ``0..n-1``: the reliable edges ``E`` and the extra
edges ``E' \\ E``, so ``E ⊆ E'`` holds by construction.  It validates
every endpoint, precomputes adjacency sets/tuples for the hot paths (the
MAC layer queries neighbors on every broadcast; the round and radio
substrates iterate them every round/slot), and offers the graph-theoretic
helpers the paper's definitions use: shortest-path distances in ``G``,
components, the diameter, the ``r``-restriction predicate, and the
grey-zone embedding predicate.

Performance notes:

* Every query the simulation loop touches — neighbor sets, sorted neighbor
  tuples, node lists, BFS distances, components, diameter — is answered
  from dicts precomputed at construction or from **per-instance** caches
  filled on first use.  The package needs no graph library at all.
* The diameter does not run one BFS per node through the distance cache:
  :func:`hop_diameter` runs a bit-parallel BFS from every source at once
  (one Python-int bitmask of reached sources per node), in blocks of at
  most ``_DIAMETER_BLOCK`` sources.  Each block costs O(D·(n+|E|))
  big-int ORs and O(n·block/8) bytes, and ``_bfs_cache`` is left untouched.
* Caches are per-instance (plain dicts), not module-level ``lru_cache``:
  an ``lru_cache`` keyed on ``self`` would pin every :class:`DualGraph`
  alive process-wide — a real leak across the thousands of topologies a
  parallel sweep builds.
* Instances are immutable after construction; nothing in the package
  mutates their adjacency.
"""

from __future__ import annotations

import math
from collections import deque
from functools import reduce
from operator import or_
from typing import Collection, Iterable, Mapping

from repro.errors import TopologyError
from repro.ids import NodeId

Position = tuple[float, float]
Edge = tuple[NodeId, NodeId]

#: Cap on the number of cached BFS sources per instance (the cache serves
#: point queries such as :meth:`DualGraph.distance`; it simply restarts
#: when full).  The diameter does not go through it.
_BFS_CACHE_MAX = 4096

#: Sources per block of :func:`hop_diameter`'s bit-parallel BFS; bounds its
#: masks at n·block bits.
_DIAMETER_BLOCK = 4096


def bfs_distances(
    adj: Mapping[NodeId, Iterable[NodeId]],
    source: NodeId,
    cutoff: int | None = None,
) -> dict[NodeId, int]:
    """Hop distances from ``source`` in the graph with adjacency ``adj``.

    Only nodes within ``cutoff`` hops are returned when a cutoff is given.
    The dict's order is BFS discovery order.
    """
    dist = {source: 0}
    frontier = deque((source,))
    while frontier:
        v = frontier.popleft()
        d = dist[v] + 1
        if cutoff is not None and d > cutoff:
            break
        for u in adj[v]:
            if u not in dist:
                dist[u] = d
                frontier.append(u)
    return dist


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


def _add_edges(
    adjacency: list[set[NodeId]], edges: Iterable[Edge], layer: str
) -> None:
    """Add ``edges`` to ``adjacency`` (nodes ``0..len-1``), validating each."""
    n = len(adjacency)
    for edge in edges:
        try:
            u, v = edge
        except (TypeError, ValueError):
            raise TopologyError(
                f"{layer} edge {edge!r} is not a node pair"
            ) from None
        if not (
            isinstance(u, int) and isinstance(v, int) and 0 <= u < n and 0 <= v < n
        ):
            raise TopologyError(
                f"{layer} edge ({u!r}, {v!r}) has an endpoint outside 0..{n - 1}"
            )
        if u == v:
            raise TopologyError(f"{layer} self-loop ({u}, {v}) not allowed")
        adjacency[u].add(v)
        adjacency[v].add(u)


def _sorted_edges(
    adj_sorted: Mapping[NodeId, tuple[NodeId, ...]],
) -> tuple[Edge, ...]:
    """The edges ``(u, v)``, ``u < v``, of a sorted adjacency, ascending."""
    return tuple((u, v) for u, nbrs in adj_sorted.items() for v in nbrs if u < v)


class DualGraph:
    """A validated dual graph ``(G, G')`` over nodes ``0..n-1``.

    Args:
        n: Number of nodes.
        reliable_edges: The edges ``E`` of the reliable graph ``G``.
        unreliable_extra_edges: The edges of ``G' \\ G`` (the *unreliable*
            links); ``G'`` is ``E`` plus these.  A pair listed in both is
            reliable.
        positions: Optional plane embedding ``p: V → R²`` (required by the
            grey-zone constraint predicate and by geometric generators).
        name: Human-readable label used in experiment reports.

    Raises:
        TopologyError: If an edge is not a pair of nodes in ``0..n-1``, is
            a self-loop, or positions are given for only part of the
            vertex set or for anything outside it.
    """

    def __init__(
        self,
        n: int,
        reliable_edges: Iterable[Edge],
        unreliable_extra_edges: Iterable[Edge] = (),
        positions: Mapping[NodeId, Position] | None = None,
        name: str = "dual-graph",
    ):
        if n < 0:
            raise TopologyError(f"need n >= 0 nodes, got {n}")
        g_sets: list[set[NodeId]] = [set() for _ in range(n)]
        _add_edges(g_sets, reliable_edges, "reliable")
        gp_sets = [set(adj) for adj in g_sets]
        _add_edges(gp_sets, unreliable_extra_edges, "unreliable")
        if positions is not None:
            absent = set(range(n)) - set(positions)
            if absent:
                raise TopologyError(
                    f"embedding missing positions for {len(absent)} nodes"
                )
            stray = set(positions) - set(range(n))
            if stray:
                raise TopologyError(
                    f"embedding has positions for non-nodes "
                    f"{', '.join(sorted(map(repr, stray)))} (nodes are 0..{n - 1})"
                )
        self.name = name
        self.positions: dict[NodeId, Position] | None = (
            dict(positions) if positions is not None else None
        )
        #: Sorted vertex tuple (hot paths iterate this; no per-call sort).
        self._nodes_sorted: tuple[NodeId, ...] = tuple(range(n))
        # Precomputed adjacency (hot path for the MAC layer): frozensets
        # for O(1) membership, sorted tuples for deterministic iteration
        # without per-broadcast sorting.
        self._g_adj_sorted: dict[NodeId, tuple[NodeId, ...]] = {
            v: tuple(sorted(adj)) for v, adj in enumerate(g_sets)
        }
        self._gp_adj_sorted: dict[NodeId, tuple[NodeId, ...]] = {
            v: tuple(sorted(adj)) for v, adj in enumerate(gp_sets)
        }
        self._uo_adj_sorted: dict[NodeId, tuple[NodeId, ...]] = {
            v: tuple(sorted(gp_sets[v] - g_sets[v])) for v in range(n)
        }
        self._g_adj: dict[NodeId, frozenset[NodeId]] = {
            v: frozenset(adj) for v, adj in self._g_adj_sorted.items()
        }
        self._gp_adj: dict[NodeId, frozenset[NodeId]] = {
            v: frozenset(adj) for v, adj in self._gp_adj_sorted.items()
        }
        self._unreliable_only_adj: dict[NodeId, frozenset[NodeId]] = {
            v: frozenset(adj) for v, adj in self._uo_adj_sorted.items()
        }
        self._reliable_edge_count = sum(map(len, g_sets)) // 2
        self._unreliable_edge_count = (
            sum(map(len, gp_sets)) // 2 - self._reliable_edge_count
        )
        # Per-instance lazy caches (see module docstring).
        self._bfs_cache: dict[NodeId, dict[NodeId, int]] = {}
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
    def reliable_adjacency(self) -> Mapping[NodeId, frozenset[NodeId]]:
        """``v -> reliable_neighbors(v)`` for every vertex (do not mutate).

        Its keys are the vertex set, so ``v in dual.reliable_adjacency``
        is the O(1) vertex test hot paths use.
        """
        return self._g_adj

    @property
    def reliable_edges(self) -> tuple[Edge, ...]:
        """The edges of ``G`` as pairs ``(u, v)`` with ``u < v``, ascending."""
        return _sorted_edges(self._g_adj_sorted)

    @property
    def unreliable_extra_edges(self) -> tuple[Edge, ...]:
        """The edges of ``G' \\ G`` as pairs ``(u, v)`` with ``u < v``,
        ascending."""
        return _sorted_edges(self._uo_adj_sorted)

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
        return self._reliable_edge_count

    @property
    def unreliable_edge_count(self) -> int:
        """Number of edges in ``G' \\ G``."""
        return self._unreliable_edge_count

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
        dist = bfs_distances(self._g_adj, source)
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
    def is_g_equals_gprime(self) -> bool:
        """True under the original [29/30] assumption ``G' = G``."""
        return self.unreliable_edge_count == 0

    def is_r_restricted(self, r: int) -> bool:
        """True if every ``G'`` edge connects nodes within ``r`` hops in ``G``."""
        for u, v in self.unreliable_extra_edges:
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
        for u, v in self.unreliable_extra_edges:
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
        # Clause (1) already puts every E edge within 1 <= c.
        for u, v in self.unreliable_extra_edges:
            if self.euclidean(u, v) > c + 1e-12:
                return False
        return True

    def euclidean(self, u: NodeId, v: NodeId) -> float:
        """Euclidean distance between embedded nodes."""
        if self.positions is None:
            raise TopologyError("no embedding available")
        (ux, uy), (vx, vy) = self.positions[u], self.positions[v]
        return math.hypot(ux - vx, uy - vy)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DualGraph({self.name!r}, n={self.n}, "
            f"|E|={self.reliable_edge_count}, "
            f"|E'\\E|={self.unreliable_edge_count})"
        )
