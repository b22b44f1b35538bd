"""Dual-graph network topologies.

The paper's networks are pairs ``(G, G')`` over the same vertex set with
``E ⊆ E'``: ``G`` carries the reliable links (always delivered), and
``G' \\ G`` carries the unreliable links (delivered at the whim of the
message scheduler).  Every network is one
:class:`~repro.topology.dualgraph.DualGraph`, built from edge lists over
nodes ``0..n-1``; the package needs no graph library.  This subpackage
provides:

* :class:`~repro.topology.dualgraph.DualGraph` — the validated container
  with reliable/unreliable neighbor queries, sorted edge views, BFS
  distances, components, the diameter, and the constraint predicates
  (``r``-restricted, grey-zone).
* :mod:`~repro.topology.generators` — ``G' = G`` families (line, ring,
  star, grid, tree) plus unreliable-edge augmentations of such a base
  (arbitrary / ``r``-restricted).
* :mod:`~repro.topology.geometric` — grey-zone networks (``G`` = unit disk
  at radius 1, ``G'`` edges up to distance ``c``) from an embedding.
* :mod:`~repro.topology.adversarial` — the lower-bound constructions of
  §3.3: the Figure 2 parallel-lines network and the Lemma 3.18 choke star.
* :mod:`~repro.topology.metrics` — diameters, eccentricities, component
  structure helpers shared by the analysis code.
* :mod:`~repro.topology.serialization` — the JSON round trip.
"""

from repro._lazy import lazy_exports

#: Each public name's defining module, imported when the name is first read.
_SOURCES = {
    "repro.topology.dualgraph": ("DualGraph",),
    "repro.topology.generators": (
        "grid_network",
        "line_network",
        "ring_network",
        "star_network",
        "tree_network",
        "with_arbitrary_unreliable",
        "with_r_restricted_unreliable",
    ),
    "repro.topology.geometric": (
        "grey_zone_network",
        "random_geometric_network",
    ),
    "repro.topology.adversarial": (
        "choke_star_network",
        "combined_lower_bound_network",
        "parallel_lines_network",
    ),
}

__all__ = [
    "DualGraph",
    "line_network",
    "ring_network",
    "star_network",
    "grid_network",
    "tree_network",
    "with_arbitrary_unreliable",
    "with_r_restricted_unreliable",
    "grey_zone_network",
    "random_geometric_network",
    "parallel_lines_network",
    "choke_star_network",
    "combined_lower_bound_network",
]

__getattr__, __dir__ = lazy_exports(__name__, _SOURCES, __all__)
