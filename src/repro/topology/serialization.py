"""Dual-graph serialization: share topologies between runs and tools.

A :class:`~repro.topology.dualgraph.DualGraph` round-trips through a plain
dictionary (and therefore JSON): vertex count, reliable edges, unreliable
extra edges, optional embedding, and name.  Experiment scripts use this to
pin the exact network behind a recorded result.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.errors import TopologyError
from repro.topology.dualgraph import DualGraph

#: Schema version written into every serialized topology.
SCHEMA_VERSION = 1


def to_dict(dual: DualGraph) -> dict[str, Any]:
    """Serialize a dual graph to a JSON-compatible dictionary."""
    record: dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "name": dual.name,
        "n": dual.n,
        "reliable_edges": [list(e) for e in dual.reliable_edges],
        "unreliable_extra_edges": [list(e) for e in dual.unreliable_extra_edges],
    }
    if dual.positions is not None:
        record["positions"] = {
            str(node): list(pos) for node, pos in sorted(dual.positions.items())
        }
    return record


def from_dict(record: dict[str, Any]) -> DualGraph:
    """Rebuild a dual graph from :func:`to_dict` output."""
    schema = record.get("schema")
    if schema != SCHEMA_VERSION:
        raise TopologyError(f"unsupported topology schema: {schema!r}")
    for key in ("n", "reliable_edges", "unreliable_extra_edges"):
        if key not in record:
            raise TopologyError(f"topology record missing field {key!r}")
    positions = None
    if "positions" in record:
        positions = {
            int(node): (float(pos[0]), float(pos[1]))
            for node, pos in record["positions"].items()
        }
    return DualGraph(
        int(record["n"]),
        record["reliable_edges"],
        record["unreliable_extra_edges"],
        positions=positions,
        name=str(record.get("name", "loaded")),
    )


def save(dual: DualGraph, path: str | Path) -> None:
    """Write a dual graph to a JSON file."""
    Path(path).write_text(json.dumps(to_dict(dual), indent=2, sort_keys=True))


def load(path: str | Path) -> DualGraph:
    """Read a dual graph from a JSON file."""
    try:
        record = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise TopologyError(f"{path}: invalid topology JSON: {exc}") from exc
    return from_dict(record)
