"""A synchronous slotted radio network over a dual graph.

Semantics per slot (the graph-based low-level model of [8, 29]):

* every node either **transmits** one packet or **listens**;
* each unreliable edge (``E' \\ E``) is independently *live* this slot with
  probability ``p_unreliable_live`` (random fading); reliable edges are
  always live;
* a listener ``v`` receives a packet iff **exactly one** of its live-edge
  neighbors transmits this slot; two or more transmitting neighbors
  collide and ``v`` hears nothing (no collision detection); transmitters
  hear nothing.

This is the substrate the decay MAC runs on — it has *no* delivery
guarantees of its own; reliability emerges (probabilistically) from
retransmission schedules above it.

A slot is computed by one pure-python pass driven by the slot's
transmitters (:func:`_slotted_reference_pass`), at O(Σ transmitter
degree) per slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import MACError
from repro.ids import NodeId
from repro.sim.rng import RandomSource
from repro.topology.dualgraph import DualGraph

#: Map node → packet for one slot's transmissions.
Transmissions = dict[NodeId, Any]
#: Map listener → (sender, packet) received this slot (at most one).
Receptions = dict[NodeId, tuple[NodeId, Any]]
#: One slot's work: transmissions -> (receptions, collision count).
SlotPass = Callable[[Transmissions], tuple[Receptions, int]]


@dataclass
class SlotStats:
    """Counters for one executed slot (useful for contention diagnostics)."""

    slot: int
    transmitters: int
    receptions: int
    collisions: int


class SlottedRadioNetwork:
    """Executes radio slots over a dual graph.

    Args:
        dual: The network; reliable edges always carry, unreliable edges
            fade per slot.
        rng: Random stream for fading.
        p_unreliable_live: Per-slot liveness probability of each unreliable
            edge.
    """

    def __init__(
        self,
        dual: DualGraph,
        rng: RandomSource,
        p_unreliable_live: float = 0.5,
    ):
        if not 0.0 <= p_unreliable_live <= 1.0:
            raise MACError(
                f"p_unreliable_live must be in [0,1]: {p_unreliable_live}"
            )
        self.dual = dual
        self._rng = rng
        self.p_unreliable_live = p_unreliable_live
        self._slot_pass: SlotPass | None = None  # built lazily on the first slot
        self.slot = 0
        #: Counters of the most recent slot (``None`` before the first);
        #: earlier slots' counters are not kept.
        self.last_stats: SlotStats | None = None
        #: Optional :class:`~repro.faults.engine.FaultEngine` (set by the
        #: radio MAC adapter): dead nodes neither transmit nor listen, and
        #: flapped-up grey edges stop fading while they are reliable.
        self.fault_engine = None

    def run_slot(self, transmissions: Transmissions) -> Receptions:
        """Execute one slot and return who received what.

        ``transmissions`` maps each transmitting node to its packet; all
        other nodes listen.
        """
        nodes = self.dual.reliable_adjacency
        for sender in transmissions:
            if sender not in nodes:
                raise MACError(f"unknown transmitter {sender}")
        if self._slot_pass is None:
            self._slot_pass = _slotted_reference_pass(self)
        receptions, collisions = self._slot_pass(transmissions)
        self.last_stats = SlotStats(
            slot=self.slot,
            transmitters=len(transmissions),
            receptions=len(receptions),
            collisions=collisions,
        )
        self.slot += 1
        return receptions


def hear_lists(
    dual: DualGraph, senders: list[NodeId], transmissions: Transmissions
) -> dict[NodeId, list[NodeId]]:
    """Each listening G'-neighbor of a sender -> the senders it hears.

    ``senders`` is the slot's transmitters, ascending; each pushes itself
    onto its listening G'-neighbors' lists, so every list is ascending
    and only listeners with a transmitting neighbor appear.
    """
    gprime_sorted = dual.gprime_neighbors_sorted
    heard: dict[NodeId, list[NodeId]] = {}
    for u in senders:
        for v in gprime_sorted(u):
            if v in transmissions:
                continue  # transmitters cannot listen
            audible = heard.get(v)
            if audible is None:
                heard[v] = [u]
            else:
                audible.append(u)
    return heard


def _slotted_reference_pass(network: SlottedRadioNetwork) -> SlotPass:
    """The collision pass, driven by the slot's transmitters.

    Each listener on the slot's :func:`hear_lists`, ascending, draws one
    fading coin per grey sender on its list in list order.  That is listeners ascending, senders ascending — the coin
    order the golden fixtures pin — at a cost of O(Σ transmitter degree)
    instead of a walk over every node and its neighbor list.
    """
    dual = network.dual
    reliable_adj = dual.reliable_adjacency

    def run(transmissions: Transmissions) -> tuple[Receptions, int]:
        engine = network.fault_engine
        random_f = network._rng.raw.random  # bernoulli(p) == random_f() < p
        p_live = network.p_unreliable_live
        heard = hear_lists(dual, sorted(transmissions), transmissions)
        receptions: Receptions = {}
        collisions = 0
        for v in sorted(heard):
            if engine is not None and not engine.is_active(v):
                continue  # dead nodes hear nothing
            reliable_set = reliable_adj[v]
            live = 0
            sender = None
            for u in heard[v]:
                if engine is not None:
                    reliable = engine.is_reliable_edge(u, v)
                else:
                    reliable = u in reliable_set
                if reliable or random_f() < p_live:
                    live += 1
                    sender = u
            if live == 1:
                receptions[v] = (sender, transmissions[sender])
            elif live > 1:
                collisions += 1
        return receptions, collisions

    return run
