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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import MACError
from repro.ids import NodeId
from repro.sim.rng import RandomSource
from repro.topology.dualgraph import DualGraph

#: Map node → packet for one slot's transmissions.
Transmissions = dict[NodeId, Any]
#: Map listener → (sender, packet) received this slot (at most one).
Receptions = dict[NodeId, tuple[NodeId, Any]]


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
        engine: Reception-engine key (``reference``/``vectorized``/``auto``,
            see :mod:`repro.radio.engines`); all engines compute identical
            receptions from the same stream.
    """

    def __init__(
        self,
        dual: DualGraph,
        rng: RandomSource,
        p_unreliable_live: float = 0.5,
        engine: str = "reference",
    ):
        from repro.radio.engines import resolve_engine

        if not 0.0 <= p_unreliable_live <= 1.0:
            raise MACError(
                f"p_unreliable_live must be in [0,1]: {p_unreliable_live}"
            )
        self.dual = dual
        self._rng = rng
        self.p_unreliable_live = p_unreliable_live
        self.engine = resolve_engine(engine)
        self._slot_pass = None  # built lazily on the first slot
        self.slot = 0
        self.stats: list[SlotStats] = []
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
            self._slot_pass = self.engine.slotted_pass(self)
        receptions, collisions = self._slot_pass(transmissions)
        self.stats.append(
            SlotStats(
                slot=self.slot,
                transmitters=len(transmissions),
                receptions=len(receptions),
                collisions=collisions,
            )
        )
        self.slot += 1
        return receptions
