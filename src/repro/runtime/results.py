"""Run results: the summary of one standard-model MMB execution."""

from __future__ import annotations

from dataclasses import dataclass

from repro.ids import MessageId, NodeId, Time
from repro.mac.messages import InstanceLog
from repro.runtime.validate import MMBOutcome


@dataclass
class RunResult:
    """Summary of one standard-model MMB execution.

    Attributes:
        outcome: The MMB verdict (:func:`~repro.runtime.validate.mmb_outcome`
            with every message owed to its origin's whole ``G``-component).
        deliveries: Every ``deliver(m)_i`` output: (node, mid) → time.
        broadcast_count: Number of ``bcast`` events in the execution.
        rcv_count: Number of ``rcv`` events in the execution.
        instances: The instance log (input to the axiom checker); None when
            the runner was asked not to retain it.
        sim_events: Number of simulator events processed.
        wall_time: Host seconds the run took (for harness reporting only).
    """

    outcome: MMBOutcome
    deliveries: dict[tuple[NodeId, MessageId], Time]
    broadcast_count: int
    rcv_count: int
    instances: InstanceLog | None
    sim_events: int
    wall_time: float = 0.0
    per_message_latency: dict[MessageId, Time] | None = None

    @property
    def solved(self) -> bool:
        """True when every message reached its origin's whole component."""
        return self.outcome.solved

    @property
    def completion_time(self) -> Time:
        """Time of the last required delivery; ``inf`` if unsolved."""
        return self.outcome.completion_time

    @property
    def per_message_completion(self) -> dict[MessageId, Time]:
        """mid → time its last required delivery happened."""
        return self.outcome.message_times

    @property
    def max_latency(self) -> Time:
        """Worst arrival→last-delivery latency over all messages.

        Equals :attr:`completion_time` for time-0 workloads; differs for
        online arrivals.
        """
        if not self.per_message_latency:
            return self.completion_time
        return max(self.per_message_latency.values(), default=0.0)
