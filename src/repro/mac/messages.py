"""Message-instance bookkeeping: the paper's "cause" function, concretely.

A *message instance* is one ``bcast`` event together with every ``rcv`` and
the ``ack``/``abort`` event the cause function maps back to it (§3.2.1).
Because our layer creates a fresh :class:`MessageInstance` per ``bcast`` and
routes every delivery through it, the cause function is total and injective
by construction — there is nothing to infer after the fact.

The :class:`InstanceLog` retains all instances of an execution and is the
input to the axiom checker and to the analysis code (broadcast counts,
latency histograms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.ids import InstanceId, NodeId, Time

#: Default bound on how long after an abort a straggler rcv may fire (the
#: enhanced layer's ``eps_abort``; the axiom checker's default too).
DEFAULT_EPS_ABORT: Time = 1e-6


@dataclass(slots=True)
class MessageInstance:
    """One local broadcast and everything it caused.

    Attributes:
        iid: Unique instance id (the cause function's key).
        sender: The broadcasting node.
        payload: The broadcast content (opaque to the MAC layer).
        bcast_time: When the ``bcast`` event occurred.
        rcv_times: Map receiver → time of its (single) ``rcv`` event.
        ack_time: Time of the ``ack`` event, or None.
        abort_time: Time of the ``abort`` event, or None.
    """

    iid: InstanceId
    sender: NodeId
    payload: Any
    bcast_time: Time
    rcv_times: dict[NodeId, Time] = field(default_factory=dict)
    ack_time: Time | None = None
    abort_time: Time | None = None

    @property
    def terminated(self) -> bool:
        """True once the instance has its ack or abort event."""
        return self.ack_time is not None or self.abort_time is not None

    @property
    def termination_time(self) -> Time:
        """Time of the terminating event; ``+inf`` while still pending.

        The ``+inf`` convention makes "terminating event does not precede
        time t" checks uniform in the axiom checker.
        """
        if self.ack_time is not None:
            return self.ack_time
        if self.abort_time is not None:
            return self.abort_time
        return math.inf

    def delivered_to(self, receiver: NodeId) -> bool:
        """True if this instance already caused a ``rcv`` at ``receiver``."""
        return receiver in self.rcv_times

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            f"ack@{self.ack_time}"
            if self.ack_time is not None
            else f"abort@{self.abort_time}"
            if self.abort_time is not None
            else "pending"
        )
        return (
            f"MessageInstance(iid={self.iid}, sender={self.sender}, "
            f"t={self.bcast_time}, rcvs={len(self.rcv_times)}, {state})"
        )


class InstanceLog:
    """Append-only store of every message instance in an execution."""

    def __init__(self) -> None:
        self._instances: list[MessageInstance] = []

    def new_instance(self, sender: NodeId, payload: Any, time: Time) -> MessageInstance:
        """Create, register, and return the instance for a fresh ``bcast``."""
        instance = MessageInstance(
            iid=len(self._instances), sender=sender, payload=payload, bcast_time=time
        )
        self._instances.append(instance)
        return instance

    def __len__(self) -> int:
        return len(self._instances)

    def __iter__(self) -> Iterator[MessageInstance]:
        return iter(self._instances)

    def __getitem__(self, iid: InstanceId) -> MessageInstance:
        return self._instances[iid]

    def pending(self) -> list[MessageInstance]:
        """Instances without a terminating event (should be empty at quiescence)."""
        return [inst for inst in self._instances if not inst.terminated]

    def by_sender(self, sender: NodeId) -> list[MessageInstance]:
        """All instances broadcast by one node, in bcast order."""
        return [inst for inst in self._instances if inst.sender == sender]

    def total_rcv_events(self) -> int:
        """Total number of ``rcv`` events across all instances."""
        return sum(len(inst.rcv_times) for inst in self._instances)
