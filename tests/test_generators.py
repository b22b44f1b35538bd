"""Unit tests for the topology generators and augmentations."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.sim.rng import RandomSource
from repro.topology import (
    DualGraph,
    grid_network,
    line_network,
    ring_network,
    star_network,
    tree_network,
    with_arbitrary_unreliable,
    with_r_restricted_unreliable,
)


def test_line_network_shape():
    net = line_network(5)
    assert net.n == 5
    assert net.diameter() == 4
    assert net.reliable_edge_count == 4
    assert net.is_g_equals_gprime()


def test_line_rejects_zero_nodes():
    with pytest.raises(TopologyError):
        line_network(0)


def test_ring_network_shape():
    net = ring_network(6)
    assert net.n == 6
    assert net.diameter() == 3
    assert net.reliable_edge_count == 6


def test_ring_rejects_small_n():
    with pytest.raises(TopologyError):
        ring_network(2)


def test_star_network_shape():
    net = star_network(7)
    assert net.n == 7
    assert net.diameter() == 2
    assert net.reliable_neighbors(0) == frozenset(range(1, 7))
    assert net.reliable_neighbors(3) == frozenset({0})


def test_grid_network_shape():
    net = grid_network(3, 4)
    assert net.n == 12
    assert net.diameter() == 5  # (3-1) + (4-1)
    assert net.reliable_edge_count == 3 * 3 + 2 * 4  # horizontal + vertical


def test_grid_adjacency_is_lattice():
    g = grid_network(2, 3)
    assert g.is_reliable_edge(0, 1)
    assert g.is_reliable_edge(0, 3)
    assert not g.is_reliable_edge(0, 4)


def test_tree_network_shape():
    net = tree_network(2, 3)
    assert net.n == 1 + 2 + 4 + 8
    assert net.diameter() == 6


def test_tree_height_zero_is_single_node():
    assert tree_network(3, 0).n == 1


def test_r_restricted_augmentation_respects_radius():
    rng = RandomSource(9)
    dual = with_r_restricted_unreliable(line_network(20), r=3, probability=0.5, rng=rng)
    assert dual.is_r_restricted(3)
    assert dual.unreliable_edge_count > 0
    # Sanity: at least one added edge spans more than one hop.
    radius = dual.restriction_radius()
    assert radius is not None and 2 <= radius <= 3


def test_r_restricted_with_r_one_degenerates_to_reliable():
    rng = RandomSource(9)
    dual = with_r_restricted_unreliable(line_network(10), r=1, probability=1.0, rng=rng)
    assert dual.is_g_equals_gprime()


def test_r_restricted_probability_zero_adds_nothing():
    rng = RandomSource(9)
    dual = with_r_restricted_unreliable(line_network(10), r=4, probability=0.0, rng=rng)
    assert dual.unreliable_edge_count == 0


def test_r_restricted_probability_one_adds_every_candidate():
    rng = RandomSource(9)
    dual = with_r_restricted_unreliable(line_network(6), r=2, probability=1.0, rng=rng)
    # Candidates at distance exactly 2 on a 6-line: (0,2),(1,3),(2,4),(3,5).
    assert dual.unreliable_edge_count == 4


def test_r_restricted_rejects_bad_params():
    rng = RandomSource(9)
    with pytest.raises(TopologyError):
        with_r_restricted_unreliable(line_network(5), r=0, probability=0.5, rng=rng)
    with pytest.raises(TopologyError):
        with_r_restricted_unreliable(line_network(5), r=2, probability=1.5, rng=rng)


def test_arbitrary_augmentation_adds_exact_count():
    rng = RandomSource(9)
    dual = with_arbitrary_unreliable(line_network(10), extra_edge_count=5, rng=rng)
    assert dual.unreliable_edge_count == 5


def test_arbitrary_augmentation_is_reproducible():
    a = with_arbitrary_unreliable(line_network(10), 5, RandomSource(9))
    b = with_arbitrary_unreliable(line_network(10), 5, RandomSource(9))
    assert a.unreliable_extra_edges == b.unreliable_extra_edges


def test_arbitrary_augmentation_rejects_impossible_count():
    rng = RandomSource(9)
    with pytest.raises(TopologyError, match="candidate"):
        with_arbitrary_unreliable(star_network(4), extra_edge_count=100, rng=rng)


def test_arbitrary_augmentation_can_cross_components():
    g = DualGraph(4, [(0, 1), (2, 3)])
    rng = RandomSource(1)
    dual = with_arbitrary_unreliable(g, extra_edge_count=4, rng=rng)
    assert dual.unreliable_edge_count == 4
    assert len(dual.components()) == 2


@pytest.mark.parametrize(
    "augment",
    [
        lambda base: with_r_restricted_unreliable(base, 2, 1.0, RandomSource(1)),
        lambda base: with_arbitrary_unreliable(base, 1, RandomSource(1)),
    ],
    ids=["r_restricted", "arbitrary"],
)
def test_augmentations_reject_a_base_with_unreliable_edges(augment):
    base = DualGraph(4, [(0, 1), (1, 2), (2, 3)], [(0, 3)])
    with pytest.raises(TopologyError, match="G' = G base"):
        augment(base)


# ----------------------------------------------------------------------
# networkx as the oracle: the augmentations' extra edges and RNG draws
# ----------------------------------------------------------------------
@st.composite
def base_graphs(draw):
    """A random G' = G base: (n, reliable edge list), often disconnected."""
    n = draw(st.integers(min_value=1, max_value=18))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * n)) if pairs else []
    return n, edges


def _nx_graph(n, edges):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def reference_r_restricted(n, edges, r, probability, rng):
    """The extra edges drawn by a networkx BFS, in the generator's order."""
    g = _nx_graph(n, edges)
    extra = []
    for v in sorted(g.nodes):
        lengths = nx.single_source_shortest_path_length(g, v, cutoff=r)
        for u, dist in sorted(lengths.items()):
            if u > v and dist >= 2 and rng.bernoulli(probability):
                extra.append((v, u))
    return extra


@given(
    base_graphs(),
    st.integers(min_value=1, max_value=6),
    st.sampled_from([0.0, 0.2, 0.5, 1.0]),
    st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=80, deadline=None)
def test_r_restricted_matches_networkx_reference(base, r, probability, seed):
    n, edges = base
    ours, theirs = RandomSource(seed, "aug"), RandomSource(seed, "aug")
    dual = with_r_restricted_unreliable(DualGraph(n, edges), r, probability, ours)
    expected = reference_r_restricted(n, edges, r, probability, theirs)
    assert list(dual.unreliable_extra_edges) == expected
    assert ours.draws == theirs.draws
    assert ours.random() == theirs.random()


@given(
    base_graphs(),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=80, deadline=None)
def test_arbitrary_matches_networkx_reference(base, count, seed):
    n, edges = base
    g = _nx_graph(n, edges)
    nodes = sorted(g.nodes)
    candidates = [
        (nodes[i], nodes[j])
        for i in range(n)
        for j in range(i + 1, n)
        if not g.has_edge(nodes[i], nodes[j])
    ]
    count = min(count, len(candidates))
    ours, theirs = RandomSource(seed, "aug"), RandomSource(seed, "aug")
    dual = with_arbitrary_unreliable(DualGraph(n, edges), count, ours)
    expected = theirs.sample(candidates, count)
    assert list(dual.unreliable_extra_edges) == sorted(expected)
    assert ours.random() == theirs.random()
