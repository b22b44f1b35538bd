"""The decay transmission schedule (Bar-Yehuda–Goldreich–Itai).

Decay is the standard probabilistic contention breaker in radio networks
and the concrete mechanism behind footnote 2's ``Fprog ≪ Fack`` intuition:
a transmitter cycles through exponentially decreasing transmission
probabilities ``1, 1/2, 1/4, …, 2^{-L}`` (one *decay phase* = ``L + 1``
slots).  Whatever the local contention ``κ ≤ 2^L``, some phase step has
transmission probability ≈ ``1/κ``, at which exactly one of the κ
contenders transmits with constant probability — so a listener hears
*something* within ``O(log Δ)`` slots in expectation, while any *specific*
transmitter needs ``Θ(κ)``-ish slots of successful airtime to reach all its
neighbors.
"""

from __future__ import annotations

import math
from functools import lru_cache

from repro.errors import MACError
from repro.sim.rng import RandomSource


@lru_cache(maxsize=None)
def _thresholds(depth: int, phases: int) -> tuple[float, ...]:
    """Per-step transmit probabilities ``2^{-(j mod (depth+1))}``."""
    period = depth + 1
    return tuple(2.0 ** -(step % period) for step in range(phases * period))


class DecaySchedule:
    """One sender's transmission schedule for one packet.

    The schedule runs ``phases`` decay phases, each of ``depth + 1`` slots;
    in slot ``j`` of a phase the sender transmits with probability
    ``2^{-j}``.  The schedule occupies :attr:`total_steps` slots from its
    start; its last slot is the point at which a real MAC would hand the
    sender its next packet, i.e. the abstract MAC layer's acknowledgment
    (footnote 1).

    Every step's coin is drawn when the schedule is built, in step order,
    from ``rng``'s backing stream (step ``j`` of a phase transmits iff its
    coin is below ``2^{-j}``).  :attr:`plan` holds the steps that
    transmit, ascending, so a caller books them all at once instead of
    polling every slot.  The stream is the schedule's own, so drawing the
    coins ahead of the slots they belong to changes nothing another
    component sees, and a sender that dies mid-schedule leaves only unused
    plan entries behind.

    Args:
        depth: ``L`` = ceil(log2(max contention)) — the deepest probability
            is ``2^{-L}``.
        phases: Number of decay phases to run (more phases → higher
            delivery confidence, later acknowledgment).
        rng: Random stream for transmission coins.
    """

    __slots__ = ("depth", "phases", "plan")

    def __init__(self, depth: int, phases: int, rng: RandomSource):
        if depth < 0:
            raise MACError(f"depth must be >= 0, got {depth}")
        if phases < 1:
            raise MACError(f"phases must be >= 1, got {phases}")
        self.depth = depth
        self.phases = phases
        # bernoulli(p) is exactly `random() < p` on the same stream.
        random_f = rng.raw.random
        self.plan: tuple[int, ...] = tuple(
            [
                step
                for step, threshold in enumerate(_thresholds(depth, phases))
                if random_f() < threshold
            ]
        )

    @property
    def total_steps(self) -> int:
        """Slots the full schedule occupies (the deterministic ack delay)."""
        return self.phases * (self.depth + 1)


def decay_depth_for(max_contention: int) -> int:
    """The canonical depth: ``ceil(log2 κ)`` for worst-case contention κ."""
    if max_contention < 1:
        raise MACError(f"contention must be >= 1, got {max_contention}")
    return max(1, math.ceil(math.log2(max(max_contention, 2))))


def recommended_phases(n: int, confidence_factor: float = 2.0) -> int:
    """Phases needed for w.h.p. delivery to all reliable neighbors.

    Each phase delivers to a fixed listener with constant probability when
    contention ≤ 2^depth, so ``Θ(log n)`` phases drive the per-listener
    failure probability below ``1/n^c``.
    """
    if n < 1:
        raise MACError(f"n must be >= 1, got {n}")
    return max(4, math.ceil(confidence_factor * math.log2(max(n, 2)) + 4))
