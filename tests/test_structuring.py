"""Tests for the CDS backbone extension (network structuring)."""

from __future__ import annotations

import pytest

from repro.core.fmmb.mis import build_mis
from repro.core.structuring import (
    build_cds,
    cds_broadcast_schedule,
    is_connected_within_components,
    is_dominating,
    validate_cds,
)
from repro.errors import AlgorithmError, TopologyError
from repro.mac.rounds import RandomRoundScheduler
from repro.sim.rng import RandomSource
from repro.topology import (
    grid_network,
    line_network,
    random_geometric_network,
    ring_network,
)


def make_backbone(dual, seed=0):
    rng = RandomSource(seed, "cds")
    mis = build_mis(dual, RandomRoundScheduler(rng.child("r")), rng.child("m")).mis
    return build_cds(dual, mis)


@pytest.mark.parametrize(
    "dual",
    [line_network(15), ring_network(12), grid_network(5, 5)],
    ids=["line", "ring", "grid"],
)
def test_cds_is_valid_on_classic_topologies(dual):
    backbone = make_backbone(dual)
    validate_cds(dual, backbone)
    assert is_dominating(dual, backbone.members)
    assert is_connected_within_components(dual, backbone)


@pytest.mark.parametrize("seed", range(3))
def test_cds_on_grey_zone_networks(seed):
    rng = RandomSource(seed + 30)
    dual = random_geometric_network(
        30, side=3.0, c=1.6, grey_edge_probability=0.4, rng=rng
    )
    backbone = make_backbone(dual, seed)
    validate_cds(dual, backbone)


def test_cds_members_partition_into_mis_and_connectors():
    dual = grid_network(4, 4)
    backbone = make_backbone(dual)
    assert backbone.mis <= backbone.members
    assert backbone.connectors <= backbone.members
    assert backbone.mis.isdisjoint(backbone.connectors)
    assert backbone.mis | backbone.connectors == backbone.members


def test_cds_size_is_small_fraction_on_dense_network():
    rng = RandomSource(77)
    dual = random_geometric_network(
        60, side=3.0, c=1.6, grey_edge_probability=0.3, rng=rng
    )
    backbone = make_backbone(dual, 77)
    validate_cds(dual, backbone)
    assert backbone.size < dual.n  # strictly smaller than broadcasting on all


def test_build_cds_rejects_invalid_mis():
    dual = line_network(5)
    with pytest.raises(AlgorithmError):
        build_cds(dual, frozenset({0, 1}))  # not independent


def test_broadcast_schedule_covers_component():
    dual = grid_network(4, 5)
    backbone = make_backbone(dual)
    schedule = cds_broadcast_schedule(dual, backbone, source=0)
    covered = {0}
    for step in schedule:
        assert step.sender in backbone.members
        covered.update(step.new_nodes)
        covered.add(step.sender)
    assert covered >= dual.component_of(0)


def test_broadcast_schedule_steps_bounded_by_backbone_size():
    dual = line_network(20)
    backbone = make_backbone(dual)
    schedule = cds_broadcast_schedule(dual, backbone, source=3)
    assert len(schedule) <= backbone.size


def test_broadcast_schedule_from_non_backbone_source():
    from repro.topology import grey_zone_network
    from repro.topology.geometric import cluster_line_positions

    rng = RandomSource(5, "blob")
    positions = cluster_line_positions(clusters=3, nodes_per_cluster=5)
    dual = grey_zone_network(positions, c=1.6, grey_edge_probability=0.3, rng=rng)
    backbone = make_backbone(dual)
    # Dense clusters guarantee dominated non-backbone nodes exist.
    source = next(v for v in dual.nodes if v not in backbone.members)
    schedule = cds_broadcast_schedule(dual, backbone, source)
    covered = {source}
    for step in schedule:
        covered.update(step.new_nodes)
        covered.add(step.sender)
    assert covered >= dual.component_of(source)


def test_broadcast_schedule_rejects_unknown_source():
    dual = line_network(5)
    backbone = make_backbone(dual)
    with pytest.raises(TopologyError):
        cds_broadcast_schedule(dual, backbone, source=99)


def test_cds_on_disconnected_graph():
    from repro.topology import DualGraph

    dual = DualGraph(8, [(0, 1), (1, 2), (2, 3), (5, 6), (6, 7)])
    backbone = make_backbone(dual)
    validate_cds(dual, backbone)
    # Node 4 is isolated: it must be in the backbone itself.
    assert 4 in backbone.members
