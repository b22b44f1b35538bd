"""Closed-form bound predictions for every cell of the paper's Figure 1.

Where the paper proves an explicit constant we use it (Theorem 3.16's
``t1``); where the statement is asymptotic we expose the bound's *shape*
with unit constants, which is what the campaign checks compare scaling against.
"""

from __future__ import annotations

from repro.errors import ExperimentError
from repro.ids import Time, log2n

#: The grey-zone constant FMMB assumes unless a spec sets ``c`` (the
#: default of :attr:`repro.core.fmmb.config.FMMBConfig.c`).
FMMB_C = 1.6


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ExperimentError(message)


def bmmb_r_restricted_bound(
    diameter: int, k: int, r: int, fack: Time, fprog: Time
) -> Time:
    """Theorem 3.16's explicit bound for BMMB with an ``r``-restricted G'.

    ``t1 = (D + (r+1)·k − 2)·Fprog + r·(k−1)·Fack``.
    """
    _require(diameter >= 0 and k >= 1 and r >= 1, "need D >= 0, k >= 1, r >= 1")
    return (diameter + (r + 1) * k - 2) * fprog + r * (k - 1) * fack


def bmmb_gg_bound(diameter: int, k: int, fack: Time, fprog: Time) -> Time:
    """The ``G' = G`` cell: Theorem 3.16 with ``r = 1``.

    1-restriction forces ``E' = E``, so this specializes the r-restricted
    bound and matches the ``O(D·Fprog + k·Fack)`` shape of [30].
    """
    return bmmb_r_restricted_bound(diameter, k, 1, fack, fprog)


def bmmb_arbitrary_bound(diameter: int, k: int, fack: Time) -> Time:
    """Theorem 3.1: BMMB finishes within ``(D + k)·Fack`` for arbitrary G'.

    The proof's key claim gives exactly ``t_k(v)·Fack ≤ (D + k)·Fack``.
    """
    _require(diameter >= 0 and k >= 1, "need D >= 0 and k >= 1")
    return (diameter + k) * fack


def figure2_lower_bound(depth: int, fack: Time) -> Time:
    """Lemma 3.20's concrete floor on the Figure 2 network.

    The frontier adversary holds each of the ``depth − 1`` hops of each
    line for a full ``Fack``.
    """
    _require(depth >= 2, "need depth >= 2")
    return (depth - 1) * fack


def choke_lower_bound(k: int, fack: Time) -> Time:
    """Lemma 3.18's concrete floor on the choke-star network.

    The hub forwards ``k − 1`` stored messages (its own plus the leaves',
    minus the one the sink hears directly from the hub's first send) at one
    per ``Fack``.
    """
    _require(k >= 2, "need k >= 2")
    return (k - 1) * fack


def combined_lower_bound(depth: int, k: int, fack: Time) -> Time:
    """Theorem 3.17 on the composed network: ``max(D−1, k−2)·Fack``.

    Since ``max(a, b) ≥ (a+b)/2`` this certifies the ``Ω((D+k)·Fack)``
    shape.
    """
    _require(depth >= 2 and k >= 2, "need depth >= 2 and k >= 2")
    return max(depth - 1, k - 2) * fack


def fmmb_bound_rounds(diameter: int, k: int, n: int, c: float = FMMB_C) -> float:
    """Theorem 4.1's round count shape (unit constants).

    ``D·log n + k·log n + log³ n`` — the ``c`` factors (``c²`` on the log
    terms, ``c⁴`` on the cube) are folded in for budget comparisons.
    """
    _require(diameter >= 0 and k >= 1 and n >= 1, "need D >= 0, k >= 1, n >= 1")
    ln = log2n(n)
    c2 = c * c
    return c2 * (diameter * ln + k * ln) + c2 * c2 * ln**3


def fmmb_bound_time(
    diameter: int, k: int, n: int, fprog: Time, c: float = FMMB_C
) -> Time:
    """Theorem 4.1's time bound shape: rounds × ``Fprog`` (no ``Fack``!)."""
    return fmmb_bound_rounds(diameter, k, n, c) * fprog
