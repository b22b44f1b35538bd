"""FMMB tuning knobs.

The paper states subroutine durations asymptotically (``O(c²·log n)``
announcement rounds, ``O(c²·(k + log n))`` gather periods, ...).  A concrete
implementation must pick the constants; this config centralizes them, and
the defaults below are the values every built-in campaign runs with.

Two termination modes:

* **oracle** (default) — subroutines stop as soon as their postcondition
  holds (observed by the simulation harness, not by nodes) and the *rounds
  actually used* are reported.  This measures the algorithm's real cost.
* **fixed** — subroutines run for their full paper-prescribed budgets
  (using the known values of ``n``, ``k``, ``c``), which measures the
  a-priori schedule a deployment would provision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ExperimentError
from repro.ids import log2n


@dataclass(frozen=True)
class FMMBConfig:
    """Constants for the three FMMB subroutines.

    Attributes:
        c: The grey-zone constant the algorithm assumes (must be ≥ 1 and at
            least the network's actual constant for the analysis to hold).
        election_bits_factor: Election bit-string length = this × log₂ n
            (the paper uses 4).
        announcement_rounds_factor: Announcement rounds per MIS phase =
            ceil(this × c² × log₂ n).
        activation_probability: Probability an eligible node is active in a
            period/announcement round; None selects ``min(0.4, 1/c²)``
            (the paper's Θ(1/c²)).
        max_phases_factor: MIS phase budget = ceil(this × c² × log₂² n).
        gather_periods_factor: Gather period budget =
            ceil(this × c² × (k + log₂ n)).
        spread_periods_factor: Periods per spreading phase =
            ceil(this × c² × log₂ n).
        spread_phase_slack: Extra spreading phases beyond ``D_H + k``.
        oracle_termination: Stop subroutines when their postcondition holds
            (see module docstring).
    """

    c: float = 1.6
    election_bits_factor: int = 4
    announcement_rounds_factor: float = 3.0
    activation_probability: float | None = None
    max_phases_factor: float = 3.0
    gather_periods_factor: float = 3.0
    spread_periods_factor: float = 2.0
    spread_phase_slack: int = 8
    oracle_termination: bool = True

    def __post_init__(self) -> None:
        if self.c < 1.0:
            raise ExperimentError(f"grey-zone constant must be >= 1, got {self.c}")
        if self.activation_probability is not None and not (
            0.0 < self.activation_probability <= 1.0
        ):
            raise ExperimentError(
                f"activation probability must be in (0,1], got "
                f"{self.activation_probability}"
            )

    # ------------------------------------------------------------------
    # Derived budgets
    # ------------------------------------------------------------------
    @property
    def c_squared(self) -> float:
        """``c²`` — the sphere-packing capacity of a radius-c disk region."""
        return self.c * self.c

    def activation(self) -> float:
        """The Θ(1/c²) activation probability used by all three subroutines."""
        if self.activation_probability is not None:
            return self.activation_probability
        return min(0.4, 1.0 / self.c_squared)

    def election_rounds(self, n: int) -> int:
        """Election rounds per MIS phase (= bit-string length, 4·log n)."""
        return max(4, math.ceil(self.election_bits_factor * log2n(n)))

    def announcement_rounds(self, n: int) -> int:
        """Announcement rounds per MIS phase (Θ(c²·log n))."""
        return max(4, math.ceil(self.announcement_rounds_factor * self.c_squared * log2n(n)))

    def max_mis_phases(self, n: int) -> int:
        """MIS phase budget (Θ(c²·log² n))."""
        return max(4, math.ceil(self.max_phases_factor * self.c_squared * log2n(n) ** 2))

    def gather_periods(self, n: int, k: int) -> int:
        """Gather period budget (Θ(c²·(k + log n)))."""
        return max(
            4,
            math.ceil(self.gather_periods_factor * self.c_squared * (k + log2n(n))),
        )

    def spread_periods_per_phase(self, n: int) -> int:
        """Periods in one run of the overlay local-broadcast procedure."""
        return max(
            2, math.ceil(self.spread_periods_factor * self.c_squared * log2n(n))
        )

    def spread_phase_budget(self, overlay_diameter: int, k: int, n: int) -> int:
        """Spreading phase budget (D_H + k plus slack)."""
        base = overlay_diameter + k + self.spread_phase_slack
        return max(base, math.ceil(1.5 * (overlay_diameter + k)) + 2)
