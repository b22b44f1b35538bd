"""Leader election over the abstract MAC layer (paper §5 future work).

The paper's conclusion names leader election as a natural next problem for
the dual-graph abstract MAC setting (cf. Lynch–Radeva–Sastry [32], who
study it with ``G' = G``).  We implement the classic **FloodMax** strategy
adapted to acknowledged local broadcast:

* every node tracks the largest id it has heard of (initially its own);
* whenever its known maximum improves, it (re)broadcasts the new maximum —
  coalescing improvements that arrive while a broadcast is in flight, so a
  node never floods a stale maximum;
* a node considers the node with the largest known id its leader.

Termination: event-driven nodes in the standard model cannot detect global
stabilization (no clocks), so — as with the paper's own oracle-style
analyses — the harness observes quiescence and then checks the
postcondition: every node's leader is the maximum id of its ``G``-component.

Message complexity is at most ``n`` improvements per node (each broadcast
strictly increases the node's known maximum), and the information needs at
most ``D`` hops from the maximum-id node, so completion is
``O(D·(Fack + Fprog))`` after the last improvement cascade starts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AlgorithmError
from repro.ids import NodeId
from repro.mac.interfaces import Automaton, MACApi


@dataclass(frozen=True)
class LeaderClaim:
    """Payload: 'the largest id I know of is ``candidate``'."""

    candidate: NodeId


class FloodMaxNode(Automaton):
    """One FloodMax process.

    Attributes:
        known_max: Largest node id heard of so far (the presumed leader).
        broadcasts_sent: Number of completed broadcasts (for complexity
            accounting).
    """

    def __init__(self) -> None:
        self.known_max: NodeId | None = None
        self.sending = False
        self.pending_improvement: NodeId | None = None
        self.broadcasts_sent = 0

    @property
    def leader(self) -> NodeId | None:
        """The node this process currently considers the leader."""
        return self.known_max

    def on_wakeup(self, api: MACApi) -> None:
        self.known_max = api.node_id
        self._queue_improvement(api, api.node_id)

    def on_receive(self, api: MACApi, payload: LeaderClaim, sender: NodeId) -> None:
        if not isinstance(payload, LeaderClaim):
            raise AlgorithmError(f"FloodMax received {payload!r}")
        if self.known_max is None or payload.candidate > self.known_max:
            self.known_max = payload.candidate
            self._queue_improvement(api, payload.candidate)

    def on_ack(self, api: MACApi, payload: LeaderClaim) -> None:
        self.sending = False
        self.broadcasts_sent += 1
        if (
            self.pending_improvement is not None
            and self.pending_improvement > payload.candidate
        ):
            improvement = self.pending_improvement
            self.pending_improvement = None
            self._queue_improvement(api, improvement)
        else:
            self.pending_improvement = None

    def on_abort(self, api: MACApi, payload: LeaderClaim) -> None:
        """Crash-recovery abort: re-flood the best maximum known now
        (which subsumes both the aborted claim and any coalesced
        improvement)."""
        self.sending = False
        self.pending_improvement = None
        if self.known_max is not None:
            self._queue_improvement(api, self.known_max)

    def _queue_improvement(self, api: MACApi, candidate: NodeId) -> None:
        if self.sending:
            # Coalesce: only the newest (largest) improvement matters.
            if self.pending_improvement is None or candidate > self.pending_improvement:
                self.pending_improvement = candidate
            return
        self.sending = True
        api.bcast(LeaderClaim(candidate))


def elected_correctly(dual, nodes: dict[NodeId, FloodMaxNode]) -> bool:
    """Postcondition: each node's leader is its component's maximum id."""
    for component in dual.components():
        expected = max(component)
        for v in component:
            if nodes[v].leader != expected:
                return False
    return True
