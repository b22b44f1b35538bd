"""Shared primitive types and identifiers used across the package.

The simulation deals in three kinds of identifiers:

* :data:`NodeId` — integer identifier of a wireless device (a vertex of the
  dual graph).  The paper assumes unique ids; we use ``0..n-1``.
* :data:`MessageId` — string identifier of an MMB payload message.  The MMB
  problem treats messages as unique black boxes, so equality on the id is
  equality on the message.
* :data:`InstanceId` — integer identifier of a *message instance*: one
  ``bcast`` event together with all the ``rcv``/``ack``/``abort`` events the
  cause function maps to it (paper §3.2.1).

Time is a float number of abstract seconds.  ``Fack`` and ``Fprog`` are
expressed in the same unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

NodeId = int
MessageId = str
InstanceId = int
Time = float

#: Time tolerance used when comparing event times against model bounds.
#: Float arithmetic on sums of delays can wobble by a few ULPs; every bound
#: check in the package uses this single shared tolerance.
TIME_EPS: Time = 1e-9


def log2n(n: int) -> float:
    """``log₂ n`` clamped below at 1 (keeps small-n budgets positive).

    FMMB's subroutine budgets and the Theorem 4.1 bound share it.
    """
    return max(1.0, math.log2(max(n, 2)))


@dataclass(frozen=True, slots=True)
class Message:
    """An MMB payload message.

    The MMB problem injects ``k`` unique messages at time 0.  Messages are
    black boxes that cannot be combined (no network coding), and only a
    constant number fit into one local broadcast; we broadcast exactly one
    payload message per local broadcast, plus constant-size protocol headers.

    Attributes:
        mid: Globally unique message identifier.
        origin: Node at which the environment injected the message.
        payload: Opaque application payload (unused by the algorithms).
    """

    mid: MessageId
    origin: NodeId
    payload: Any = None

    def __str__(self) -> str:
        return f"Message({self.mid}@{self.origin})"


@dataclass(frozen=True)
class MessageAssignment:
    """Initial placement of MMB messages on nodes.

    ``messages`` maps each node to the (possibly empty) tuple of messages the
    environment hands it at time 0 via ``arrive`` events.  The paper allows
    multiple messages at the same node; a *singleton assignment* (used by the
    lower bound of Lemma 3.18) gives each source at most one message.
    """

    messages: dict[NodeId, tuple[Message, ...]] = field(default_factory=dict)

    @property
    def k(self) -> int:
        """Total number of injected messages."""
        return sum(len(msgs) for msgs in self.messages.values())

    def all_messages(self) -> list[Message]:
        """All injected messages, ordered by node id then injection order."""
        out: list[Message] = []
        for node in sorted(self.messages):
            out.extend(self.messages[node])
        return out

    def is_singleton(self) -> bool:
        """True if no node starts with more than one message."""
        return all(len(msgs) <= 1 for msgs in self.messages.values())

    @staticmethod
    def single_source(node: NodeId, count: int, prefix: str = "m") -> "MessageAssignment":
        """All ``count`` messages injected at one node."""
        msgs = tuple(Message(f"{prefix}{i}", node) for i in range(count))
        return MessageAssignment({node: msgs})

    @staticmethod
    def one_each(nodes: list[NodeId], prefix: str = "m") -> "MessageAssignment":
        """A singleton assignment: one fresh message per listed node."""
        return MessageAssignment(
            {node: (Message(f"{prefix}{i}", node),) for i, node in enumerate(nodes)}
        )
