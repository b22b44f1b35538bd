"""The paper's lower-bound networks (§3.3).

Two gadgets drive Theorem 3.17's ``Ω((D + k)·Fack)`` bound:

* :func:`parallel_lines_network` — the Figure 2 network ``C``: two disjoint
  reliable lines ``A`` and ``B`` of ``D`` nodes each, with unreliable cross
  edges ``a_i — b_{i+1}`` and ``b_i — a_{i+1}``.  Message ``m0`` starts at
  ``a_1`` and must traverse line ``A``; ``m1`` starts at ``b_1``.  The long
  ``G'`` edges let an adversarial scheduler legally starve each frontier
  broadcast for the full ``Fack`` (Lemmas 3.19–3.20), giving ``Ω(D·Fack)``.
* :func:`choke_star_network` — the Lemma 3.18 gadget: ``k`` source nodes
  whose messages must all cross a single reliable edge ``hub — sink``;
  the constant-messages-per-broadcast restriction forces ``Ω(k·Fack)``.

Both gadgets come with plane embeddings certifying the grey-zone constraint
(the lines are separated by 1.2, so the cross edges have length
``√(1 + 1.2²) ≈ 1.562 ≤ c``; the choke gadget uses a tight clique blob,
which *is* a unit-disk graph, unlike the paper's literal star — see the
``clique_sources`` note below).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TopologyError
from repro.ids import Message, MessageAssignment, NodeId
from repro.topology.dualgraph import DualGraph, Position

#: Vertical separation between the two lines of the Figure 2 network.
#: Must exceed 1 (so ``a_i — b_i`` is not a reliable edge) while keeping the
#: diagonal cross edges within the grey-zone constant.
LINE_GAP = 1.2

#: The smallest grey-zone constant c that admits the Figure 2 embedding.
FIGURE2_MIN_C = (1.0 + LINE_GAP**2) ** 0.5  # ≈ 1.562


@dataclass(frozen=True)
class ParallelLinesNetwork:
    """The Figure 2 network ``C`` plus its canonical MMB instance.

    Attributes:
        dual: The dual graph (two reliable lines + unreliable diagonals).
        a_nodes: Line ``A`` as node ids, ``a_nodes[i-1]`` is the paper's a_i.
        b_nodes: Line ``B`` likewise.
        assignment: ``m0`` at ``a_1`` and ``m1`` at ``b_1`` (the
            endpoint-oriented execution of §3.3).
    """

    dual: DualGraph
    a_nodes: tuple[NodeId, ...]
    b_nodes: tuple[NodeId, ...]
    assignment: MessageAssignment

    @property
    def depth(self) -> int:
        """Length ``D`` of each line."""
        return len(self.a_nodes)

    @property
    def m0(self) -> Message:
        """The message that must traverse line ``A``."""
        return self.assignment.messages[self.a_nodes[0]][0]

    @property
    def m1(self) -> Message:
        """The message that must traverse line ``B``."""
        return self.assignment.messages[self.b_nodes[0]][0]


def parallel_lines_network(depth: int) -> ParallelLinesNetwork:
    """Build the Figure 2 network ``C`` with lines of ``depth`` nodes.

    Node ids: line ``A`` is ``0..depth-1`` (left to right), line ``B`` is
    ``depth..2·depth-1``.  Reliable edges run along each line; unreliable
    edges are the diagonals ``a_i — b_{i+1}`` and ``b_i — a_{i+1}`` for
    ``i < depth``, exactly as drawn in the paper.
    """
    if depth < 2:
        raise TopologyError(f"parallel lines need depth >= 2, got {depth}")
    a_nodes = tuple(range(depth))
    b_nodes = tuple(range(depth, 2 * depth))
    reliable = [(a_nodes[i], a_nodes[i + 1]) for i in range(depth - 1)]
    reliable += [(b_nodes[i], b_nodes[i + 1]) for i in range(depth - 1)]
    cross = []
    for i in range(depth - 1):
        cross.append((a_nodes[i], b_nodes[i + 1]))
        cross.append((b_nodes[i], a_nodes[i + 1]))
    positions: dict[NodeId, Position] = {}
    for i in range(depth):
        positions[a_nodes[i]] = (float(i), 0.0)
        positions[b_nodes[i]] = (float(i), LINE_GAP)
    dual = DualGraph(
        2 * depth,
        reliable,
        cross,
        positions=positions,
        name=f"figure2-lines-D{depth}",
    )
    assignment = MessageAssignment(
        {
            a_nodes[0]: (Message("m0", a_nodes[0]),),
            b_nodes[0]: (Message("m1", b_nodes[0]),),
        }
    )
    return ParallelLinesNetwork(dual, a_nodes, b_nodes, assignment)


@dataclass(frozen=True)
class ChokeStarNetwork:
    """The Lemma 3.18 choke gadget plus its singleton assignment.

    Attributes:
        dual: The dual graph (``G' = G``).
        sources: The ``k`` nodes that each start with one message (the
            paper's ``U ∪ {u_k}``).
        hub: The choke-point node ``u_k``.
        sink: The receiver ``v`` behind the choke point.
        assignment: One unique message per source (singleton assignment).
    """

    dual: DualGraph
    sources: tuple[NodeId, ...]
    hub: NodeId
    sink: NodeId
    assignment: MessageAssignment

    @property
    def k(self) -> int:
        """Number of messages."""
        return len(self.sources)


def choke_star_network(k: int, clique_sources: bool = True) -> ChokeStarNetwork:
    """Build the Lemma 3.18 network for ``k`` messages.

    Nodes ``0..k-2`` are the leaves ``u_1..u_{k-1}``, node ``k-1`` is the hub
    ``u_k``, node ``k`` is the sink ``v``.  Every source starts with one
    unique message; all ``k`` messages must cross the single reliable edge
    ``hub — sink``.

    Args:
        k: Number of messages (``k >= 2``); the network has ``k + 1`` nodes.
        clique_sources: If True (default) the sources form a clique (a tight
            geometric blob), which is unit-disk-embeddable and therefore
            satisfies the grey-zone constraint; the choke argument is
            unchanged since the hub—sink edge still serializes all traffic.
            If False, build the paper's literal star (leaves adjacent only to
            the hub) — same lower bound, but no unit-disk embedding for
            ``k > 6``, so no positions are attached.
    """
    if k < 2:
        raise TopologyError(f"choke star needs k >= 2, got {k}")
    leaves = tuple(range(k - 1))
    hub: NodeId = k - 1
    sink: NodeId = k
    sources = leaves + (hub,)
    edges: list[tuple[NodeId, NodeId]] = [(hub, sink)]
    positions: dict[NodeId, Position] | None = None
    if clique_sources:
        edges += [
            (sources[i], sources[j])
            for i in range(len(sources))
            for j in range(i + 1, len(sources))
        ]
        # Blob of leaves in [0, 0.02] x [0, 0.02]; hub slightly right of the
        # blob; sink within 1 of the hub but beyond 1 from every leaf.
        positions = {}
        for idx, node in enumerate(leaves):
            positions[node] = (0.02 * (idx % 7) / 7.0, 0.02 * (idx // 7) / 7.0)
        positions[hub] = (0.04, 0.0)
        positions[sink] = (1.035, 0.0)
    else:
        edges += [(leaf, hub) for leaf in leaves]
    dual = DualGraph(
        k + 1,
        edges,
        (),
        positions=positions,
        name=f"choke-star-k{k}" + ("-clique" if clique_sources else ""),
    )
    assignment = MessageAssignment.one_each(list(sources))
    return ChokeStarNetwork(dual, sources, hub, sink, assignment)


@dataclass(frozen=True)
class CombinedLowerBoundNetwork:
    """Choke gadget composed with the Figure 2 lines (Theorem 3.17).

    The sink of the choke gadget *is* ``a_1`` of the parallel-lines network:
    all ``k−1`` blob messages plus ``m0`` must first serialize through the
    hub—a_1 edge (``Ω(k·Fack)``) and then traverse line ``A`` against the
    frontier-starving adversary (``Ω(D·Fack)``).
    """

    dual: DualGraph
    blob: tuple[NodeId, ...]
    hub: NodeId
    a_nodes: tuple[NodeId, ...]
    b_nodes: tuple[NodeId, ...]
    assignment: MessageAssignment


def combined_lower_bound_network(depth: int, k: int) -> CombinedLowerBoundNetwork:
    """Build the composed ``Ω((D + k)·Fack)`` network.

    Node layout: ``0..k-2`` blob sources (clique, includes hub ``k-2``),
    ``k-1 .. k-2+depth`` line ``A`` (``a_1`` adjacent to the hub),
    then ``depth`` more nodes for line ``B``.  ``m0`` starts at ``a_1``;
    ``m1`` starts at ``b_1``; ``k − 2`` further messages start in the blob.
    """
    if depth < 2 or k < 2:
        raise TopologyError(f"need depth >= 2 and k >= 2, got {depth}, {k}")
    blob = tuple(range(k - 1))
    hub = blob[-1]
    a_nodes = tuple(range(k - 1, k - 1 + depth))
    b_nodes = tuple(range(k - 1 + depth, k - 1 + 2 * depth))
    edges: list[tuple[NodeId, NodeId]] = []
    edges += [
        (blob[i], blob[j]) for i in range(len(blob)) for j in range(i + 1, len(blob))
    ]
    edges.append((hub, a_nodes[0]))
    edges += [(a_nodes[i], a_nodes[i + 1]) for i in range(depth - 1)]
    edges += [(b_nodes[i], b_nodes[i + 1]) for i in range(depth - 1)]
    cross = []
    for i in range(depth - 1):
        cross.append((a_nodes[i], b_nodes[i + 1]))
        cross.append((b_nodes[i], a_nodes[i + 1]))
    messages: dict[NodeId, tuple[Message, ...]] = {
        a_nodes[0]: (Message("m0", a_nodes[0]),),
        b_nodes[0]: (Message("m1", b_nodes[0]),),
    }
    for idx, node in enumerate(blob):
        if idx < k - 2:
            messages[node] = (Message(f"mb{idx}", node),)
    dual = DualGraph(
        k - 1 + 2 * depth,
        edges,
        cross,
        name=f"combined-D{depth}-k{k}",
    )
    return CombinedLowerBoundNetwork(
        dual, blob, hub, a_nodes, b_nodes, MessageAssignment(messages)
    )
