"""Unit tests for topology summary metrics."""

from __future__ import annotations

from repro.sim.rng import RandomSource
from repro.topology import line_network, with_r_restricted_unreliable
from repro.topology.metrics import minimum_fack_for_contention, summarize


def test_summarize_reliable_line():
    s = summarize(line_network(6))
    assert s.n == 6
    assert s.diameter == 5
    assert s.reliable_edges == 5
    assert s.unreliable_edges == 0
    assert s.restriction_radius == 1
    assert s.components == 1
    assert s.max_contention == 3  # interior degree 2, +1


def test_summarize_r_restricted():
    rng = RandomSource(2)
    dual = with_r_restricted_unreliable(line_network(12), r=3, probability=1.0, rng=rng)
    s = summarize(dual)
    assert s.restriction_radius == 3
    assert s.unreliable_edges > 0


def test_as_dict_round_trip_keys():
    d = summarize(line_network(4)).as_dict()
    assert d["n"] == 4
    assert d["D"] == 3
    assert "contention" in d


def test_minimum_fack_scales_with_degree():
    line = line_network(6)
    assert minimum_fack_for_contention(line, fprog=1.0) == 3.0
    rng = RandomSource(2)
    dense = with_r_restricted_unreliable(line_network(6), 3, 1.0, rng)
    assert minimum_fack_for_contention(dense, 1.0) > 3.0
