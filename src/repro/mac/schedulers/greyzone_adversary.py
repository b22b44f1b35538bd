"""The Figure 2 adversary: frontier starvation over long ``G'`` edges.

This scheduler implements the strategy of Lemmas 3.19–3.20 concretely.  On
the parallel-lines network ``C`` (message ``m0`` walking line ``A``,
``m1`` walking line ``B``), it maintains one *frontier instance* per line —
the broadcast carrying the line's message to the furthest node not yet
holding it — and handles broadcasts as follows:

* **Frontier broadcast** (``a_i`` broadcasting ``m0`` while ``a_{i+1}``
  lacks it): the delivery to ``a_{i+1}`` is withheld until ``bcast + Fack``
  and the acknowledgment fires at ``bcast + Fack``; the remaining
  ``G``-neighbor (``a_{i-1}``) receives immediately; and one *legalizing
  injection* delivers ``m0`` over the long diagonal ``G'`` edge to
  ``b_{i+1}`` after a small delay.  Symmetrically for line ``B``.
* **Every other broadcast**: delivered to all ``G``-neighbors and
  acknowledged with zero time passing (the paper's instantaneous round-robin
  segment), never using ``G'`` edges.

Why the starvation is legal: during ``a_i``'s window, the withheld receiver
``a_{i+1}`` gets a ``rcv`` of ``m1`` early in the window from ``b_i``'s
still-pending frontier instance (over the diagonal ``b_i — a_{i+1}``), and
the paper's progress condition (c) counts a receive that occurred by the end
of an interval from any instance whose termination does not precede the
interval's start.  Without the long unreliable edges no such contending
instance would exist and the progress bound would force ``m0`` through in
``Fprog`` — which is exactly the paper's point that the *structure* of
unreliability, not its quantity, is what destroys efficiency.

Every execution this adversary produces is certified against all five MAC
axioms in the test suite.
"""

from __future__ import annotations

from repro.errors import SchedulerError
from repro.ids import MessageId, NodeId, Time
from repro.mac.messages import MessageInstance
from repro.mac.schedulers.base import Scheduler
from repro.topology.adversarial import (
    CombinedLowerBoundNetwork,
    ParallelLinesNetwork,
)


class GreyZoneAdversary(Scheduler):
    """Lemma 3.19/3.20 frontier-starving scheduler for network ``C``.

    Args:
        network: The parallel-lines instance this adversary attacks (it
            needs the line structure and the identities of ``m0``/``m1``).
        inject_fraction: When, within each window, the legalizing diagonal
            injection fires, as a fraction of ``Fprog`` (must be < 1 so the
            first ``Fprog`` subinterval of the window sees a receive).
    """

    def __init__(self, network: ParallelLinesNetwork, inject_fraction: float = 0.25):
        super().__init__()
        if not 0.0 < inject_fraction < 1.0:
            raise SchedulerError(
                f"inject_fraction must be in (0,1): {inject_fraction}"
            )
        self.network = network
        self.inject_fraction = inject_fraction
        self._a_index = {v: i for i, v in enumerate(network.a_nodes)}
        self._b_index = {v: i for i, v in enumerate(network.b_nodes)}
        self._m0 = network.m0.mid
        self._m1 = network.m1.mid
        # Nodes known to hold each target message (origin + scheduled rcvs).
        self._holders: dict[MessageId, set[NodeId]] = {
            self._m0: {network.a_nodes[0]},
            self._m1: {network.b_nodes[0]},
        }

    # ------------------------------------------------------------------
    def on_bcast(self, instance: MessageInstance) -> None:
        ctx = self.ctx
        assert ctx is not None, "scheduler used before bind()"
        mid = getattr(instance.payload, "mid", None)
        plan = self._frontier_plan(instance.sender, mid)
        if plan is None:
            self._instant(instance)
            return
        next_node, diagonal_target = plan
        t = instance.bcast_time
        delta = self.inject_fraction * ctx.fprog
        planned = [
            (receiver, t + ctx.fack if receiver == next_node else t + 0.0)
            for receiver in ctx.dual.reliable_neighbors_sorted(instance.sender)
        ]
        if diagonal_target is not None:
            planned.append((diagonal_target, t + delta))
        self._book(instance, mid, planned)
        ctx.ack_at(instance, t + ctx.fack)

    # ------------------------------------------------------------------
    def _frontier_plan(
        self, sender: NodeId, mid: MessageId | None
    ) -> tuple[NodeId, NodeId | None] | None:
        """Return (withheld G-neighbor, diagonal injection target) or None.

        None means the broadcast is not a frontier broadcast and should be
        handled instantaneously.
        """
        if mid == self._m0 and sender in self._a_index:
            line, other = self.network.a_nodes, self.network.b_nodes
            i = self._a_index[sender]
        elif mid == self._m1 and sender in self._b_index:
            line, other = self.network.b_nodes, self.network.a_nodes
            i = self._b_index[sender]
        else:
            return None
        if i + 1 >= len(line):
            return None
        next_node = line[i + 1]
        if next_node in self._holders[mid]:
            return None
        diagonal_target = other[i + 1]
        if self.ctx is not None and not self.ctx.dual.is_gprime_edge(
            sender, diagonal_target
        ):
            diagonal_target = None
        return next_node, diagonal_target

    def _instant(self, instance: MessageInstance) -> None:
        """Deliver to all G-neighbors and acknowledge with no time passing."""
        ctx = self.ctx
        assert ctx is not None
        mid = getattr(instance.payload, "mid", None)
        now = ctx.now
        self._book(
            instance,
            mid,
            [
                (receiver, now)
                for receiver in ctx.dual.reliable_neighbors_sorted(instance.sender)
            ],
        )
        ctx.ack_at(instance, now)

    def _book(
        self,
        instance: MessageInstance,
        mid: MessageId | None,
        planned: list[tuple[NodeId, Time]],
    ) -> None:
        """Book one broadcast's fan-out in a batch and note its receivers
        as holders of ``mid``."""
        ctx = self.ctx
        assert ctx is not None
        ctx.deliver_many(instance, planned)
        holders = self._holders.get(mid)
        if holders is not None:
            holders.update(receiver for receiver, _ in planned)


class CombinedAdversary(GreyZoneAdversary):
    """The Theorem 3.17 composition: choke the blob, then starve the lines.

    On :func:`~repro.topology.adversarial.combined_lower_bound_network`,
    broadcasts by blob nodes are delivered to ``G``-neighbors at
    ``rcv_fraction·Fprog`` and acknowledged at the full ``Fack`` (the
    Lemma 3.18 treatment — the hub serializes its ``k − 2`` stored messages
    across the hub—``a_1`` edge), while line broadcasts get the Figure 2
    frontier treatment.  Completion is therefore at least
    ``max(k−2, D−1)·Fack ≥ ((D + k)/2 − 2)·Fack``.
    """

    def __init__(
        self,
        network: CombinedLowerBoundNetwork,
        inject_fraction: float = 0.25,
        rcv_fraction: float = 0.9,
    ):
        lines_view = ParallelLinesNetwork(
            dual=network.dual,
            a_nodes=network.a_nodes,
            b_nodes=network.b_nodes,
            assignment=network.assignment,
        )
        super().__init__(lines_view, inject_fraction=inject_fraction)
        if not 0.0 < rcv_fraction < 1.0:
            raise SchedulerError(f"rcv_fraction must be in (0,1): {rcv_fraction}")
        self.rcv_fraction = rcv_fraction
        self._blob = set(network.blob)

    def on_bcast(self, instance: MessageInstance) -> None:
        ctx = self.ctx
        assert ctx is not None, "scheduler used before bind()"
        if instance.sender in self._blob:
            mid = getattr(instance.payload, "mid", None)
            rcv_time = instance.bcast_time + self.rcv_fraction * ctx.fprog
            self._book(
                instance,
                mid,
                [
                    (receiver, rcv_time)
                    for receiver in ctx.dual.reliable_neighbors_sorted(
                        instance.sender
                    )
                ],
            )
            ctx.ack_at(instance, instance.bcast_time + ctx.fack)
            return
        super().on_bcast(instance)
