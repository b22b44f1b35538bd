"""Unit tests for embedded geometric networks (grey zone)."""

from __future__ import annotations

import hashlib
import json
import math

import pytest

from repro.errors import TopologyError
from repro.sim.rng import RandomSource
from repro.topology import serialization
from repro.topology.geometric import (
    cluster_line_positions,
    grey_zone_network,
    random_geometric_network,
)


def unit_disk(positions):
    """The grey-zone network with no grey edges: ``G`` alone."""
    return grey_zone_network(
        positions, c=1.0, grey_edge_probability=0.0, rng=RandomSource(0)
    )


def test_unit_disk_graph_edges():
    positions = {0: (0.0, 0.0), 1: (0.8, 0.0), 2: (2.0, 0.0)}
    g = unit_disk(positions)
    assert g.is_reliable_edge(0, 1)
    assert not g.is_reliable_edge(0, 2)
    assert not g.is_reliable_edge(1, 2)


def test_grey_zone_network_satisfies_predicate():
    positions = {
        0: (0.0, 0.0),
        1: (0.9, 0.0),
        2: (1.8, 0.0),
        3: (2.7, 0.0),
    }
    rng = RandomSource(4)
    dual = grey_zone_network(positions, c=2.0, grey_edge_probability=1.0, rng=rng)
    assert dual.is_grey_zone(2.0)
    # Every pair at distance in (1, 2] got a G' edge at probability 1.
    assert dual.is_gprime_edge(0, 2)
    assert not dual.is_gprime_edge(0, 3)  # distance 2.7 > c


def test_grey_zone_probability_zero_gives_reliable_only():
    positions = {0: (0.0, 0.0), 1: (0.9, 0.0), 2: (1.8, 0.0)}
    rng = RandomSource(4)
    dual = grey_zone_network(positions, c=2.0, grey_edge_probability=0.0, rng=rng)
    assert dual.unreliable_edge_count == 0


def test_grey_zone_rejects_bad_params():
    positions = {0: (0.0, 0.0)}
    rng = RandomSource(4)
    with pytest.raises(TopologyError):
        grey_zone_network(positions, c=0.5, grey_edge_probability=0.5, rng=rng)
    with pytest.raises(TopologyError):
        grey_zone_network(positions, c=2.0, grey_edge_probability=1.5, rng=rng)


def test_random_geometric_network_is_connected_and_embedded():
    rng = RandomSource(11)
    dual = random_geometric_network(
        30, side=3.0, c=1.6, grey_edge_probability=0.3, rng=rng
    )
    assert dual.n == 30
    assert len(dual.components()) == 1
    assert dual.positions is not None
    assert dual.is_grey_zone(1.6)


def test_random_geometric_network_is_reproducible():
    a = random_geometric_network(20, 2.5, 1.6, 0.3, RandomSource(11))
    b = random_geometric_network(20, 2.5, 1.6, 0.3, RandomSource(11))
    assert a.positions == b.positions
    assert a.unreliable_extra_edges == b.unreliable_extra_edges


def test_random_geometric_network_unconnected_allowed():
    rng = RandomSource(11)
    dual = random_geometric_network(
        10, side=50.0, c=1.6, grey_edge_probability=0.0, rng=rng, connect=False
    )
    assert dual.n == 10  # sparse box: almost surely disconnected, still valid


def test_random_geometric_network_raises_when_connection_impossible():
    rng = RandomSource(11)
    with pytest.raises(TopologyError, match="connected"):
        random_geometric_network(
            40, side=100.0, c=1.6, grey_edge_probability=0.0, rng=rng, max_attempts=3
        )


def test_random_geometric_network_validates_c_before_sampling():
    rng = RandomSource(11)
    with pytest.raises(TopologyError, match=r"c >= 1, got 0\.5"):
        random_geometric_network(40, 30.0, c=0.5, grey_edge_probability=0.4, rng=rng)
    with pytest.raises(TopologyError, match=r"probability must be in \[0,1\]"):
        random_geometric_network(40, 30.0, c=1.6, grey_edge_probability=1.5, rng=rng)
    assert rng.draws == 0


@pytest.mark.parametrize(
    "args, connect, digest, draws",
    [
        (
            (30, 3.0, 1.6, 0.3, 11),
            True,
            "84738c774cf23d2ee5237d7b0ea61c4e78135960aebea158f33f1cacf6c81d33",
            173,
        ),
        # Needs one connectivity resample.
        (
            (60, 4.5, 1.6, 0.4, 7),
            True,
            "6c61e74c8ede5cc7a152dde41e4ebbe1482b9c76bd569d5ddb3b7dfd0b47a24c",
            568,
        ),
        # Needs five connectivity resamples.
        (
            (64, 5.0, 1.6, 0.4, 4),
            True,
            "9dfb2c78337809b67037f5c1f6f54295b305189973ddac8c5db3a515bf14e995",
            1053,
        ),
        (
            (12, 6.0, 2.0, 0.5, 5),
            False,
            "06923d2d292c608ba85d78e62fab1d19c9ef3f3cb0da6077f4d4341e770c0538",
            33,
        ),
    ],
)
def test_random_geometric_network_bytes_are_pinned(args, connect, digest, draws):
    """Positions, edges and RNG draw order are fixed: the serialized
    topology and the draw count match the pinned values exactly."""
    n, side, c, p, seed = args
    rng = RandomSource(seed)
    dual = random_geometric_network(n, side, c, p, rng, connect=connect)
    text = json.dumps(
        serialization.to_dict(dual), sort_keys=True, separators=(",", ":")
    )
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert rng.draws == draws


def test_cluster_line_positions_geometry():
    positions = cluster_line_positions(clusters=3, nodes_per_cluster=4, spacing=0.9)
    assert len(positions) == 12
    # Intra-cluster distances are tiny; inter-cluster ≈ spacing.
    d_intra = math.dist(positions[0], positions[1])
    d_inter = math.dist(positions[0], positions[4])
    assert d_intra < 0.2
    assert 0.7 < d_inter < 1.1


def test_cluster_line_positions_rejects_bad_params():
    with pytest.raises(TopologyError):
        cluster_line_positions(0, 3)


def test_unit_disk_includes_epsilon_band_pairs_across_cell_boundaries():
    """Regression: a pair at distance radius + ~5e-13 landing in
    non-adjacent grid cells must still be matched (the bucket cell side
    has to cover the matching limit, not just the radius)."""
    positions = {0: (1.0 - 5e-13, 0.0), 1: (2.0, 0.0)}
    assert unit_disk(positions).is_reliable_edge(0, 1)
