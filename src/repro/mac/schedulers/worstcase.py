"""The worst-case acknowledgment scheduler (and Lemma 3.18's adversary).

Every delivery is legal-but-late: ``G``-neighbors (and, with probability
``p_unreliable``, ``G'``-only neighbors) receive at
``bcast + rcv_fraction·Fprog`` — early enough to satisfy the progress bound
everywhere — while every acknowledgment is withheld until exactly
``bcast + Fack``.  A well-formed sender therefore pushes at most one message
per ``Fack`` into the network, which is precisely the choke-point mechanism
behind the ``Ω(k·Fack)`` lower bound of Lemma 3.18: on the choke-star
network, the hub needs ``Θ(k·Fack)`` to forward ``k`` messages across the
single hub—sink edge.
"""

from __future__ import annotations

from repro.errors import SchedulerError
from repro.mac.messages import MessageInstance
from repro.mac.schedulers.base import Scheduler
from repro.sim.rng import RandomSource


class WorstCaseAckScheduler(Scheduler):
    """Deliver fast, acknowledge as late as the model allows.

    Args:
        rng: Random stream (used only for unreliable-delivery coin flips;
            may be None when ``p_unreliable`` is 0).
        p_unreliable: Probability each ``G'``-only neighbor receives a given
            broadcast.
        rcv_fraction: Delivery delay as a fraction of ``Fprog`` (< 1 keeps
            the progress bound satisfied with margin).
    """

    def __init__(
        self,
        rng: RandomSource | None = None,
        p_unreliable: float = 0.0,
        rcv_fraction: float = 0.9,
    ):
        super().__init__()
        if p_unreliable > 0.0 and rng is None:
            raise SchedulerError("p_unreliable > 0 requires an rng")
        if not 0.0 < rcv_fraction < 1.0:
            raise SchedulerError(f"rcv_fraction must be in (0,1): {rcv_fraction}")
        self._rng = rng
        self.p_unreliable = p_unreliable
        self.rcv_fraction = rcv_fraction

    def on_bcast(self, instance: MessageInstance) -> None:
        ctx = self.ctx
        assert ctx is not None, "scheduler used before bind()"
        sender = instance.sender
        dual = ctx.dual
        rcv_time = instance.bcast_time + self.rcv_fraction * ctx.fprog
        # One batch for the whole fan-out: reliable receivers, then the
        # coin-flipped unreliable ones, in sorted order.  deliver_many
        # validates and numbers them as one deliver_at per receiver would.
        planned = [
            (receiver, rcv_time)
            for receiver in dual.reliable_neighbors_sorted(sender)
        ]
        if self.p_unreliable > 0.0 and self._rng is not None:
            bernoulli = self._rng.bernoulli
            p_unreliable = self.p_unreliable
            for receiver in dual.unreliable_only_neighbors_sorted(sender):
                if bernoulli(p_unreliable):
                    planned.append((receiver, rcv_time))
        ctx.deliver_many(instance, planned)
        ctx.ack_at(instance, instance.bcast_time + ctx.fack)


class ChokeAdversary(WorstCaseAckScheduler):
    """Alias with the Lemma 3.18 framing.

    On :func:`~repro.topology.adversarial.choke_star_network`, this
    scheduler forces the hub to serialize all ``k`` messages across the
    hub—sink edge at one per ``Fack``, realizing the ``Ω(k·Fack)`` bound.
    The behavior is identical to :class:`WorstCaseAckScheduler`; the name
    exists so experiment configs read like the paper.
    """
