"""The enhanced abstract MAC layer (paper §2 and §4).

Two additions over the standard layer:

1. **Time**: nodes may set timers and read the clock, and they know the
   execution's ``Fack`` and ``Fprog`` values.
2. **Abort**: a node may abort its broadcast in progress.  Per the model, a
   ``rcv`` for an aborted broadcast may still occur up to ``eps_abort``
   after the abort; we take the simple admissible choice of cancelling all
   undelivered receives at the abort instant (a subset of allowed
   behaviors), and the axiom checker accepts any delivery within
   ``eps_abort``.

These are exactly the powers FMMB needs to run lock-step rounds of length
``Fprog``: broadcast at a slot boundary, abort at the next one.
"""

from __future__ import annotations

from typing import Any

from repro.ids import NodeId, Time
from repro.mac.interfaces import Automaton
from repro.mac.messages import DEFAULT_EPS_ABORT, MessageInstance
from repro.mac.standard import StandardMACLayer, _NodeBinding
from repro.sim.events import EventHandle


class _EnhancedBinding(_NodeBinding):
    """Per-node API: standard powers plus time, timers, and abort."""

    @property
    def fack(self) -> Time:
        return self._mac.fack

    @property
    def fprog(self) -> Time:
        return self._mac.fprog

    @property
    def now(self) -> Time:
        return self._mac.sim.now

    def abort(self) -> None:
        self._mac.abort(self._node_id)

    def set_timer(self, delay: Time, tag: Any) -> EventHandle:
        return self._mac.sim.schedule(delay, self._fire_timer, tag)

    def _fire_timer(self, tag: Any) -> None:
        if not self._mac.node_active(self._node_id):
            return  # timers of crashed nodes die with them
        self._mac.mark_activity()
        self.automaton.on_timer(self, tag)


class EnhancedMACLayer(StandardMACLayer):
    """Standard layer + abort interface + node-visible clocks/timers."""

    eps_abort: Time = DEFAULT_EPS_ABORT
    # Abort must be able to cancel pending rcv/ack events at any moment.
    _needs_abort_handles = True

    def register(self, node_id: NodeId, automaton: Automaton) -> None:
        """Attach an automaton with the enhanced API binding."""
        super().register(node_id, automaton)
        # Swap the standard binding for the enhanced one.
        self._bindings[node_id] = _EnhancedBinding(self, node_id, automaton)

    def abort(self, node_id: NodeId) -> MessageInstance | None:
        """Abort the node's broadcast in progress.

        Returns the aborted instance, or None if no broadcast was pending
        (aborting with nothing pending is a harmless no-op, which keeps
        round-driver code simple).
        """
        instance = self._pending[node_id]
        if instance is None:
            return None
        instance.abort_time = self.sim.now
        self._pending[node_id] = None
        self._cancel_instance_events(instance.iid)
        self._cleanup_instance(instance)
        self.scheduler.on_terminated(instance)
        binding = self._binding(node_id)
        binding.automaton.on_abort(binding, instance.payload)
        return instance
