"""Tests for dual-graph serialization."""

from __future__ import annotations

import re

import pytest

from repro.errors import TopologyError
from repro.sim.rng import RandomSource
from repro.topology import (
    line_network,
    random_geometric_network,
    with_r_restricted_unreliable,
)
from repro.topology.adversarial import parallel_lines_network
from repro.topology.serialization import from_dict, load, save, to_dict


def test_round_trip_plain_network():
    rng = RandomSource(1)
    dual = with_r_restricted_unreliable(line_network(10), 3, 0.5, rng)
    rebuilt = from_dict(to_dict(dual))
    assert rebuilt.n == dual.n
    assert rebuilt.reliable_edges == dual.reliable_edges
    assert rebuilt.unreliable_extra_edges == dual.unreliable_extra_edges
    assert rebuilt.positions is None


def test_round_trip_preserves_embedding_and_name():
    rng = RandomSource(2)
    dual = random_geometric_network(15, 2.0, 1.6, 0.4, rng)
    rebuilt = from_dict(to_dict(dual))
    assert rebuilt.name == dual.name
    assert rebuilt.positions == dual.positions
    assert rebuilt.is_grey_zone(1.6)


def test_round_trip_figure2_network():
    net = parallel_lines_network(6)
    rebuilt = from_dict(to_dict(net.dual))
    assert rebuilt.unreliable_edge_count == net.dual.unreliable_edge_count
    assert len(rebuilt.components()) == 2


def test_file_round_trip(tmp_path):
    rng = RandomSource(3)
    dual = with_r_restricted_unreliable(line_network(8), 2, 0.7, rng)
    path = tmp_path / "net.json"
    save(dual, path)
    loaded = load(path)
    assert loaded.unreliable_extra_edges == dual.unreliable_extra_edges


def test_from_dict_rejects_unknown_schema():
    with pytest.raises(TopologyError, match="schema"):
        from_dict({"schema": 99, "n": 2})


def test_from_dict_rejects_missing_fields():
    with pytest.raises(TopologyError, match="missing field"):
        from_dict({"schema": 1, "n": 2})


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{")
    with pytest.raises(TopologyError, match="invalid topology JSON"):
        load(path)


@pytest.mark.parametrize(
    "field, edges, message",
    [
        ("unreliable_extra_edges", [[0, 1], [1, 3]], "(1, 3) has an endpoint"),
        ("reliable_edges", [[0, 1], [1, 99]], "(1, 99) has an endpoint"),
        ("reliable_edges", [[0, 1], [1, 1]], "reliable self-loop (1, 1)"),
        ("unreliable_extra_edges", [[0, 1, 2]], "not a node pair"),
    ],
    ids=["extra-out-of-range", "reliable-out-of-range", "self-loop", "triple"],
)
def test_from_dict_names_the_bad_edge(field, edges, message):
    record = to_dict(line_network(3))
    record[field] = edges
    with pytest.raises(TopologyError, match=re.escape(message)):
        from_dict(record)


def test_from_dict_rejects_a_position_for_a_non_node():
    # An untrusted record: an embedding naming node 99 of a 3-node line
    # must not load (it would pass is_grey_zone and keep the stray point).
    record = to_dict(line_network(3))
    record["positions"] = {
        str(node): [float(node), 0.0] for node in (0, 1, 2, 99)
    }
    with pytest.raises(TopologyError, match="non-nodes 99"):
        from_dict(record)
