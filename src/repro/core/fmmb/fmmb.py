"""The FMMB orchestrator (paper §4.1): MIS → gather → spread.

``run_fmmb`` executes the three subroutines back-to-back on the lock-step
round substrate and reports both the algorithm's cost (total rounds ×
``Fprog``) and the MMB solution time (when the last required delivery
happened).  Randomness is hierarchical and seeded, so every run is exactly
reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.fmmb.config import FMMBConfig
from repro.core.fmmb.gather import GatherResult, gather_messages
from repro.core.fmmb.mis import MISResult, build_mis, is_independent, is_maximal
from repro.core.fmmb.overlay import build_overlay, overlay_diameter
from repro.core.fmmb.spread import SpreadResult, spread_messages
from repro.errors import ExperimentError
from repro.ids import Message, MessageAssignment, MessageId, NodeId, Time
from repro.mac.rounds import RandomRoundScheduler, RoundScheduler
from repro.runtime.validate import mmb_outcome, required_deliveries
from repro.sim.rng import RandomSource
from repro.topology.dualgraph import DualGraph


class RoundDeliveryRecorder:
    """Tracks the first round each node obtained each message."""

    def __init__(self) -> None:
        self.rounds: dict[tuple[NodeId, MessageId], int] = {}

    def record(self, node: NodeId, message: Message, round_index: int) -> None:
        """Record a receipt if it is the node's first for this message."""
        key = (node, message.mid)
        if key not in self.rounds:
            self.rounds[key] = round_index


@dataclass
class FMMBResult:
    """Outcome of one FMMB execution.

    Attributes:
        solved: True when every message reached its whole ``G``-component.
        total_rounds: Rounds consumed by all three subroutines.
        total_time: ``total_rounds × Fprog``.
        completion_rounds: Round of the last *required* delivery (≤
            total_rounds); the MMB solution point.
        completion_time: ``(completion_rounds + 1) × Fprog`` (a delivery in
            round r is available by the end of slot r), or ``inf`` if
            unsolved.
        mis_result / gather_result / spread_result: Per-subroutine stats.
        mis_valid: Whether the constructed MIS was independent and maximal
            (the w.h.p. event the analysis conditions on).
        delivery_rounds: (node, mid) → first-receipt round.
    """

    solved: bool
    total_rounds: int
    total_time: Time
    completion_rounds: int
    completion_time: Time
    mis_result: MISResult
    gather_result: GatherResult
    spread_result: SpreadResult
    mis_valid: bool
    delivery_rounds: dict[tuple[NodeId, MessageId], int] = field(repr=False)


def run_fmmb(
    dual: DualGraph,
    assignment: MessageAssignment,
    fprog: Time,
    seed: int = 0,
    config: FMMBConfig | None = None,
    scheduler: RoundScheduler | None = None,
    fault_engine=None,
) -> FMMBResult:
    """Run FMMB end-to-end on the enhanced model's round substrate.

    Args:
        dual: The network (grey-zone restricted for the guarantees).
        assignment: Initial message placement (time 0).
        fprog: The progress bound (one round = one ``Fprog`` slot).
        seed: Root seed for all algorithmic and scheduler randomness.
        config: FMMB constants.
        scheduler: Per-round delivery policy; defaults to the random one.
        fault_engine: Optional fault/dynamics engine; when set, the round
            scheduler is wrapped in
            :class:`~repro.faults.rounds.FaultyRoundScheduler`, so crashed
            nodes neither transmit nor receive and flapped edges move
            between reliable and grey round by round.  ``solved`` keeps
            the full-component criterion; judge faulted runs among
            survivors by passing the engine to
            :func:`repro.runtime.validate.mmb_outcome`.

    Returns:
        The :class:`FMMBResult`.
    """
    if assignment.k == 0:
        raise ExperimentError("MMB requires k >= 1 messages")
    cfg = config or FMMBConfig()
    rng = RandomSource(seed, "fmmb")
    sched = scheduler or RandomRoundScheduler(rng.child("round-scheduler"))
    if fault_engine is not None:
        from repro.faults.rounds import FaultyRoundScheduler

        sched = FaultyRoundScheduler(sched, fault_engine, fprog)
    recorder = RoundDeliveryRecorder()

    # Environment arrivals: each origin holds (and has delivered) its
    # messages from round 0.
    for node, messages in assignment.messages.items():
        for message in messages:
            recorder.record(node, message, 0)

    # --- Subroutine 1: MIS -------------------------------------------
    mis_result = build_mis(dual, sched, rng.child("mis"), cfg, round_offset=0)
    mis = mis_result.mis
    mis_valid = is_independent(dual, mis) and is_maximal(dual, mis)
    offset = mis_result.rounds_used

    # --- Subroutine 2: gather ----------------------------------------
    gather_result = gather_messages(
        dual,
        mis,
        assignment.messages,
        sched,
        rng.child("gather"),
        k=assignment.k,
        config=cfg,
        recorder=recorder,
        round_offset=offset,
    )
    offset += gather_result.rounds_used

    # --- Subroutine 3: spread ----------------------------------------
    overlay = build_overlay(dual, mis)
    d_h = overlay_diameter(overlay)
    required = required_deliveries(dual, assignment)
    spread_result = spread_messages(
        dual,
        mis,
        gather_result.owned,
        sched,
        rng.child("spread"),
        k=assignment.k,
        overlay_diam=d_h,
        required=required,
        already_delivered=set(recorder.rounds),
        config=cfg,
        recorder=recorder,
        round_offset=offset,
    )
    total_rounds = offset + spread_result.rounds_used

    # --- Outcome -------------------------------------------------------
    outcome = mmb_outcome(dual, assignment, recorder.rounds)
    completion_rounds = int(outcome.latest)
    completion_time = (
        (completion_rounds + 1) * fprog if outcome.solved else math.inf
    )
    return FMMBResult(
        solved=outcome.solved,
        total_rounds=total_rounds,
        total_time=total_rounds * fprog,
        completion_rounds=completion_rounds,
        completion_time=completion_time,
        mis_result=mis_result,
        gather_result=gather_result,
        spread_result=spread_result,
        mis_valid=mis_valid,
        delivery_rounds=recorder.rounds,
    )
