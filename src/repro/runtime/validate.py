"""MMB solution checking (problem definition, paper §2).

The MMB problem is solved once every message ``m`` starting at node ``u``
has been delivered at every node of ``u``'s connected component in ``G``
(``G`` need not be connected).

:func:`mmb_outcome` is the one implementation of that criterion; every
MMB substrate, faulted or not, judges its runs with it.  Given a fault
engine it applies the standard relaxation from the crash-fault
literature: a run *solves MMB among survivors* when every message that
was actually injected (not lost to a dead origin) reaches every
**surviving** node of its origin's base-graph component.  Nodes that
crashed or left owe nothing; messages the environment could not inject
require nothing (the engine tallies them in ``messages_lost``); and — per
the dynamic-network convention (Ahmadi & Kuhn) — a churn arrival is owed
only the messages that arrive at or after its join (plus its own), since
no algorithm can deliver a flood that finished before the node existed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Collection, Mapping

from repro.ids import MessageAssignment, MessageId, NodeId, Time
from repro.topology.dualgraph import DualGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.engine import FaultEngine


def required_deliveries(
    dual: DualGraph, assignment: MessageAssignment
) -> dict[MessageId, frozenset[NodeId]]:
    """For each message, the set of nodes that must deliver it."""
    required: dict[MessageId, frozenset[NodeId]] = {}
    for node, messages in assignment.messages.items():
        component = dual.component_of(node)
        for message in messages:
            required[message.mid] = component
    return required


@dataclass(frozen=True)
class MMBOutcome:
    """The MMB verdict of one execution.

    Attributes:
        solved: True when every owed delivery happened.
        completion_time: Time of the last owed delivery (the MMB solution
            time): ``inf`` when unsolved, 0.0 when nothing was owed.
        message_times: mid → time of its last owed delivery, ``inf`` when
            one is missing.  Messages owed to nobody (lost, or every owed
            node gone) are absent.
        latest: Time of the latest owed delivery that did happen — finite
            even when unsolved (0.0 when none happened).
        required: Number of (node, message) delivery obligations.
        met: How many of them were fulfilled.
    """

    solved: bool
    completion_time: Time
    message_times: dict[MessageId, Time]
    latest: Time
    required: int
    met: int


def mmb_outcome(
    dual: DualGraph,
    assignment: MessageAssignment,
    delivery_times: Mapping[tuple[NodeId, MessageId], Time],
    engine: "FaultEngine | None" = None,
    arrival_times: Mapping[MessageId, Time] | None = None,
) -> MMBOutcome:
    """Judge one execution against the MMB criterion.

    Args:
        dual: The base network (components are taken in the static ``G``;
            a fault-induced partition shows up as unmet obligations, which
            is the honest accounting for a resilience benchmark).
        assignment: The static message placement.
        delivery_times: ``(node, mid) -> time`` of every recorded delivery
            (any monotone clock: FMMB judges its rounds).
        engine: The fault engine after the run (final aliveness, join
            times, and the lost message ids); ``None`` owes every message
            to its origin's whole component (the paper's criterion).
        arrival_times: ``mid -> injection time``; defaults to time 0 for
            every message.  Under an engine, used to excuse churn
            arrivals from messages that predate their join.

    Returns:
        The :class:`MMBOutcome`.
    """
    get = delivery_times.get
    arrivals = arrival_times or {}
    message_times: dict[MessageId, Time] = {}
    required = 0
    met = 0
    latest: Time = 0.0
    for node, messages in sorted(assignment.messages.items()):
        owed: Collection[NodeId] = dual.component_of(node)
        if engine is not None:
            survivors = [v for v in owed if engine.is_active(v)]
        for message in messages:
            mid = message.mid
            if engine is not None:
                if mid in engine.lost_message_ids:
                    continue
                owed = _owed_survivors(
                    node, survivors, engine, arrivals.get(mid, 0.0)
                )
                if not owed:
                    continue
            worst: Time = 0.0
            for member in owed:
                time = get((member, mid))
                if time is None:
                    worst = math.inf
                    continue
                met += 1
                if time > worst:
                    worst = time
                if time > latest:
                    latest = time
            required += len(owed)
            message_times[mid] = worst
    solved = met == required
    return MMBOutcome(
        solved=solved,
        completion_time=latest if solved else math.inf,
        message_times=message_times,
        latest=latest,
        required=required,
        met=met,
    )


def _owed_survivors(
    origin: NodeId,
    survivors: list[NodeId],
    engine: "FaultEngine",
    arrived_at: Time,
) -> list[NodeId]:
    """The survivors one message from ``origin`` is owed to."""
    origin_join = engine.join_time(origin)
    if origin_join is not None:
        # A churn-in origin's messages travel with it: they are actually
        # injected at its join, not at their nominal time.
        arrived_at = max(arrived_at, origin_join)
    owed = []
    for member in survivors:
        joined_at = engine.join_time(member)
        if joined_at is not None and member != origin and arrived_at < joined_at:
            # A churn arrival is not owed floods that finished (or
            # started) before it existed — only its own messages and
            # those injected from its join onward.
            continue
        owed.append(member)
    return owed
