"""Unit tests for the DualGraph container and its predicates."""

from __future__ import annotations

import re

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.topology import DualGraph
from repro.topology import dualgraph
from repro.topology.dualgraph import bfs_distances, hop_diameter


def make_dual(n, reliable, extra, positions=None):
    return DualGraph(n, reliable, extra, positions=positions)


def test_vertex_sets_must_match():
    # G' has no vertex outside G's 0..n-1: a G' edge reaching one is refused.
    with pytest.raises(TopologyError, match=r"\(2, 3\) has an endpoint outside 0..2"):
        make_dual(3, [(0, 1), (1, 2)], [(2, 3)])


def test_reliable_edges_must_be_in_gprime():
    # E ⊆ E' by construction; a pair listed in both layers is reliable.
    dual = make_dual(3, [(0, 1)], [(1, 0), (1, 2)])
    assert dual.is_gprime_edge(0, 1) and dual.is_reliable_edge(0, 1)
    assert dual.reliable_edge_count == 1
    assert dual.unreliable_edge_count == 1
    assert dual.unreliable_extra_edges == ((1, 2),)


@pytest.mark.parametrize(
    "reliable, extra, edge",
    [
        ([(0, 1), (1, 99)], [], "(1, 99)"),
        ([(0, 1)], [(2, 3)], "(2, 3)"),
        ([(-1, 0)], [], "(-1, 0)"),
        ([(0, 1.5)], [], "(0, 1.5)"),
    ],
    ids=["reliable-high", "unreliable-high", "negative", "non-integer"],
)
def test_out_of_range_endpoint_is_rejected(reliable, extra, edge):
    # Before, such an endpoint silently grew the vertex set.
    with pytest.raises(TopologyError, match=re.escape(f"{edge} has an endpoint")):
        make_dual(3, reliable, extra)


def test_malformed_edge_is_rejected():
    with pytest.raises(TopologyError, match="not a node pair"):
        make_dual(3, [(0, 1, 2)], [])


def test_negative_node_count_is_rejected():
    with pytest.raises(TopologyError, match="n >= 0"):
        make_dual(-1, [], [])


def test_from_edges_includes_reliable_in_gprime():
    dual = make_dual(3, [(0, 1), (1, 2)], [(0, 2)])
    assert dual.is_gprime_edge(0, 1)
    assert dual.is_gprime_edge(0, 2)
    assert not dual.is_reliable_edge(0, 2)


def test_from_edges_rejects_self_loop():
    with pytest.raises(TopologyError, match="self-loop"):
        make_dual(3, [(0, 1)], [(2, 2)])


def test_reliable_self_loop_is_rejected():
    # Before, node 1 became its own reliable neighbour.
    with pytest.raises(TopologyError, match=r"reliable self-loop \(1, 1\)"):
        make_dual(3, [(0, 1), (1, 1)], [])


def test_neighbor_partitions():
    dual = make_dual(4, [(0, 1), (1, 2)], [(0, 3), (0, 2)])
    assert dual.reliable_neighbors(0) == frozenset({1})
    assert dual.unreliable_only_neighbors(0) == frozenset({2, 3})
    assert dual.gprime_neighbors(0) == frozenset({1, 2, 3})


def test_edge_counts():
    dual = make_dual(4, [(0, 1), (1, 2)], [(0, 3)])
    assert dual.reliable_edge_count == 2
    assert dual.unreliable_edge_count == 1


def test_distances_and_diameter_use_g_only():
    # G is a 5-line; G' shortcuts the ends, but D must stay 4.
    dual = make_dual(5, [(i, i + 1) for i in range(4)], [(0, 4)])
    assert dual.distance(0, 4) == 4
    assert dual.diameter() == 4
    assert dual.distances_from(0) == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}


def test_distance_raises_when_disconnected():
    dual = make_dual(4, [(0, 1), (2, 3)], [])
    with pytest.raises(TopologyError, match="not connected"):
        dual.distance(0, 3)


def test_diameter_of_disconnected_graph_is_max_component_diameter():
    dual = make_dual(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)], [])
    assert dual.diameter() == 3


def test_components_and_component_of():
    dual = make_dual(5, [(0, 1), (2, 3)], [])
    comps = {frozenset(c) for c in dual.components()}
    assert comps == {frozenset({0, 1}), frozenset({2, 3}), frozenset({4})}
    assert dual.component_of(3) == frozenset({2, 3})


def test_r_restriction_predicate():
    line = [(i, i + 1) for i in range(5)]
    dual = make_dual(6, line, [(0, 2), (1, 4)])
    assert dual.is_r_restricted(3)
    assert not dual.is_r_restricted(2)
    assert dual.restriction_radius() == 3


def test_restriction_radius_of_reliable_only_is_one():
    dual = make_dual(4, [(0, 1), (1, 2), (2, 3)], [])
    assert dual.restriction_radius() == 1
    assert dual.is_g_equals_gprime()


def test_restriction_radius_none_for_cross_component_edge():
    dual = make_dual(4, [(0, 1), (2, 3)], [(1, 2)])
    assert dual.restriction_radius() is None
    assert not dual.is_r_restricted(100)


def test_grey_zone_predicate_accepts_valid_embedding():
    positions = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (2.2, 0.0)}
    dual = make_dual(3, [(0, 1)], [(1, 2)], positions=positions)
    assert dual.is_grey_zone(1.5)


def test_grey_zone_predicate_rejects_too_long_unreliable_edge():
    positions = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (4.0, 0.0)}
    dual = make_dual(3, [(0, 1)], [(1, 2)], positions=positions)
    assert not dual.is_grey_zone(1.5)


def test_grey_zone_predicate_rejects_missing_unit_disk_edge():
    # Nodes 0 and 2 are within distance 1 but not G-adjacent: clause (1)
    # fails.
    positions = {0: (0.0, 0.0), 1: (0.5, 0.0), 2: (0.9, 0.0)}
    dual = make_dual(3, [(0, 1), (1, 2)], [], positions=positions)
    assert not dual.is_grey_zone(1.5)


def test_grey_zone_requires_embedding():
    dual = make_dual(3, [(0, 1)], [])
    with pytest.raises(TopologyError, match="embedding"):
        dual.is_grey_zone(1.5)


def test_grey_zone_rejects_c_below_one():
    positions = {0: (0.0, 0.0), 1: (1.0, 0.0)}
    dual = make_dual(2, [(0, 1)], [], positions=positions)
    with pytest.raises(TopologyError, match="c >= 1"):
        dual.is_grey_zone(0.5)


def test_positions_must_cover_all_nodes():
    with pytest.raises(TopologyError, match="missing positions"):
        make_dual(3, [(0, 1), (1, 2)], [], positions={0: (0.0, 0.0)})


@pytest.mark.parametrize("stray", [99, 3, -1])
def test_positions_must_name_only_nodes(stray):
    positions = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (2.0, 0.0), stray: (9.0, 9.0)}
    with pytest.raises(TopologyError, match=rf"non-nodes {stray} \(nodes are 0\.\.2\)"):
        make_dual(3, [(0, 1), (1, 2)], [], positions=positions)


def test_euclidean_distance():
    positions = {0: (0.0, 0.0), 1: (3.0, 4.0)}
    dual = make_dual(2, [], [], positions=positions)
    assert dual.euclidean(0, 1) == pytest.approx(5.0)


def test_max_gprime_degree():
    dual = make_dual(4, [(0, 1), (0, 2)], [(0, 3)])
    assert dual.max_gprime_degree() == 3


def _reference_diameter(g: nx.Graph) -> int:
    """Max BFS eccentricity over all nodes (finite distances only)."""
    return max(
        (max(nx.single_source_shortest_path_length(g, v).values()) for v in g),
        default=0,
    )


def _nx_pair(n, reliable, extra) -> tuple[nx.Graph, nx.Graph]:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(reliable)
    gp = g.copy()
    gp.add_edges_from(extra)
    return g, gp


def _reference_restriction_radius(g: nx.Graph, gp: nx.Graph) -> int | None:
    worst = 1
    for u, v in gp.edges:
        if g.has_edge(u, v):
            continue
        if not nx.has_path(g, u, v):
            return None
        worst = max(worst, nx.shortest_path_length(g, u, v))
    return worst


@st.composite
def sparse_graphs(draw):
    """Random dual graphs ``(n, reliable, extra)`` over ``0..n-1``, often
    disconnected; pairs repeat, come in either orientation, and may be
    listed in both layers."""
    n = draw(st.integers(min_value=1, max_value=40))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def edges(max_size):
        if not pairs:
            return []
        chosen = draw(st.lists(st.sampled_from(pairs), max_size=max_size))
        flips = draw(
            st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen))
        )
        return [(v, u) if flip else (u, v) for (u, v), flip in zip(chosen, flips)]

    return n, edges(3 * n), edges(n)


@given(sparse_graphs())
@settings(max_examples=150, deadline=None)
def test_constructor_matches_networkx(graph):
    n, reliable, extra = graph
    g, gp = _nx_pair(n, reliable, extra)
    dual = DualGraph(n, reliable, extra)
    assert dual.nodes == sorted(g.nodes)
    for v in g:
        only = set(gp.adj[v]) - set(g.adj[v])
        assert dual.reliable_neighbors(v) == frozenset(g.adj[v])
        assert dual.gprime_neighbors(v) == frozenset(gp.adj[v])
        assert dual.unreliable_only_neighbors(v) == frozenset(only)
        assert dual.reliable_neighbors_sorted(v) == tuple(sorted(g.adj[v]))
        assert dual.gprime_neighbors_sorted(v) == tuple(sorted(gp.adj[v]))
        assert dual.unreliable_only_neighbors_sorted(v) == tuple(sorted(only))
    assert dual.reliable_edge_count == g.number_of_edges()
    assert dual.unreliable_edge_count == gp.number_of_edges() - g.number_of_edges()
    assert list(dual.reliable_edges) == sorted(tuple(sorted(e)) for e in g.edges)
    assert list(dual.unreliable_extra_edges) == sorted(
        tuple(sorted(e)) for e in gp.edges if not g.has_edge(*e)
    )
    for v in list(g)[:3]:
        for cutoff in (None, 0, 2):
            assert bfs_distances(dual.reliable_adjacency, v, cutoff) == dict(
                nx.single_source_shortest_path_length(g, v, cutoff=cutoff)
            )
    radius = _reference_restriction_radius(g, gp)
    assert dual.restriction_radius() == radius
    for r in (1, 2, 3, 5):
        assert dual.is_r_restricted(r) == (radius is not None and radius <= r)


@given(sparse_graphs(), st.sampled_from([1, 2, 3, 7, 4096]), st.data())
@settings(max_examples=150, deadline=None)
def test_diameter_matches_per_component_bfs(graph, block, data):
    n, reliable, _extra = graph
    g, _gp = _nx_pair(n, reliable, ())
    expected = _reference_diameter(g)
    per_component = max(
        (
            nx.diameter(g.subgraph(c))
            for c in nx.connected_components(g)
            if len(c) > 1
        ),
        default=0,
    )
    assert expected == per_component
    # hop_diameter takes any adjacency mapping: relabel onto sparse ids.
    ids = data.draw(
        st.lists(
            st.integers(min_value=-50, max_value=10_000),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    sparse = nx.relabel_nodes(g, dict(enumerate(ids)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dualgraph, "_DIAMETER_BLOCK", block)
        dual = DualGraph(n, reliable)
        assert dual.diameter() == expected
        assert hop_diameter(sparse.adj) == expected
    assert dual._bfs_cache == {}


@pytest.mark.parametrize(
    "n, edges, expected",
    [
        (1, [], 0),
        (6, [], 0),
        (5, [(0, 1), (1, 2)], 2),
        (9, [(0, 1), (2, 3), (3, 4), (4, 5), (5, 6)], 4),
    ],
    ids=["single-node", "no-edges", "isolated-nodes", "disconnected"],
)
def test_diameter_edge_cases(n, edges, expected):
    dual = make_dual(n, edges, [])
    assert dual.diameter() == expected
    assert dual._bfs_cache == {}


def test_diameter_above_block_size(monkeypatch):
    monkeypatch.setattr(dualgraph, "_DIAMETER_BLOCK", 4)
    # A 23-node path plus a 3-cycle: seven source blocks, one of them split
    # across both components.
    line = [(i, i + 1) for i in range(22)]
    dual = make_dual(26, line + [(23, 24), (24, 25), (25, 23)], [])
    assert dual.diameter() == 22
