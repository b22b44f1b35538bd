"""Tests for the FMMB overlay graph H (paper §4.4)."""

from __future__ import annotations

import pytest

from repro.core.fmmb.mis import build_mis
from repro.core.fmmb.overlay import (
    build_overlay,
    overlay_diameter,
    overlay_mirrors_components,
)
from repro.errors import TopologyError
from repro.mac.rounds import RandomRoundScheduler
from repro.sim.rng import RandomSource
from repro.topology import grid_network, line_network


def test_overlay_edges_are_pairs_within_three_hops():
    dual = line_network(13)
    mis = frozenset({0, 3, 6, 9, 12})
    overlay = build_overlay(dual, mis)
    assert 3 in overlay[0] and 0 in overlay[3]
    assert 6 in overlay[3]
    assert 6 not in overlay[0]  # 6 hops apart in G


def test_overlay_nodes_are_exactly_the_mis():
    dual = line_network(7)
    mis = frozenset({0, 2, 4, 6})
    overlay = build_overlay(dual, mis)
    assert set(overlay) == set(mis)


def test_overlay_connected_for_valid_mis():
    """Maximality guarantees consecutive MIS representatives within 3 hops."""
    rng = RandomSource(1, "ov")
    dual = grid_network(5, 5)
    mis = build_mis(dual, RandomRoundScheduler(rng.child("r")), rng.child("m")).mis
    overlay = build_overlay(dual, mis)
    assert overlay_mirrors_components(dual, overlay)


def test_overlay_diameter_at_most_graph_diameter():
    rng = RandomSource(2, "ov")
    dual = grid_network(6, 6)
    mis = build_mis(dual, RandomRoundScheduler(rng.child("r")), rng.child("m")).mis
    overlay = build_overlay(dual, mis)
    assert overlay_diameter(overlay) <= dual.diameter()


def test_overlay_diameter_of_singleton_is_zero():
    dual = line_network(3)
    overlay = build_overlay(dual, frozenset({1}))
    assert overlay_diameter(overlay) == 0


def test_overlay_rejects_unknown_mis_nodes():
    dual = line_network(3)
    with pytest.raises(TopologyError, match="not in topology"):
        build_overlay(dual, frozenset({99}))


def test_overlay_disconnected_when_mis_nodes_too_far():
    # Not a valid MIS (node 4 uncovered gap) — the helper should notice the
    # overlay does not mirror the (single) G-component.
    dual = line_network(9)
    overlay = build_overlay(dual, frozenset({0, 8}))
    assert not overlay_mirrors_components(dual, overlay)
