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

from repro.errors import MACError
from repro.sim.rng import RandomSource


class DecaySchedule:
    """One sender's transmission schedule for one packet.

    The schedule runs ``phases`` decay phases, each of ``depth + 1`` slots;
    in slot ``j`` of a phase the sender transmits with probability
    ``2^{-j}``.  The schedule occupies :attr:`total_steps` slots from its
    start; its last slot is the point at which a real MAC would hand the
    sender its next packet, i.e. the abstract MAC layer's acknowledgment
    (footnote 1).  :meth:`next_transmission` yields the steps in which the
    sender transmits, so a caller can book them ahead instead of polling
    every slot.

    Args:
        depth: ``L`` = ceil(log2(max contention)) — the deepest probability
            is ``2^{-L}``.
        phases: Number of decay phases to run (more phases → higher
            delivery confidence, later acknowledgment).
        rng: Random stream for transmission coins.
    """

    def __init__(self, depth: int, phases: int, rng: RandomSource):
        if depth < 0:
            raise MACError(f"depth must be >= 0, got {depth}")
        if phases < 1:
            raise MACError(f"phases must be >= 1, got {phases}")
        self.depth = depth
        self.phases = phases
        self._rng = rng
        # Bound C-level draw for the per-slot coin (bernoulli(p) is
        # exactly `random() < p` on the same stream).
        self._random = rng.raw.random
        self._step = 0
        self._total_steps = phases * (depth + 1)

    @property
    def complete(self) -> bool:
        """True once every step's coin has been drawn."""
        return self._step >= self._total_steps

    @property
    def steps_taken(self) -> int:
        """Steps whose coins have been drawn so far."""
        return self._step

    @property
    def total_steps(self) -> int:
        """Slots the full schedule occupies (the deterministic ack delay)."""
        return self._total_steps

    def next_transmission(self) -> int | None:
        """Advance to the next step whose coin says transmit; return it.

        Draws the schedule's per-step coins in step order (step ``j`` of a
        phase transmits iff its coin is below ``2^{-j}``) until one
        succeeds, and returns that step's index.  Returns ``None`` once
        the schedule is exhausted.  The coins come from this schedule's
        own stream, so drawing them ahead of the slots they belong to
        changes nothing another component sees.
        """
        period = self.depth + 1
        step = self._step
        total = self._total_steps
        random_f = self._random
        while step < total:
            within_phase = step % period
            step += 1
            if random_f() < 2.0 ** (-within_phase):
                self._step = step
                return step - 1
        self._step = step
        return None


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
