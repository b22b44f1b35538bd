"""The standard abstract MAC layer.

Responsibilities (paper §2, §3.2.1):

* expose acknowledged local broadcast to node automata;
* enforce *user well-formedness*: a node may not start a second broadcast
  before the first is acknowledged (or aborted, on the enhanced layer);
* route every delivery/ack decision through the pluggable
  :class:`~repro.mac.schedulers.base.Scheduler` while validating each action
  against the model's safety rules (deliveries only over ``E'``, at most one
  ``rcv`` per instance/receiver pair, ack only after all ``G``-neighbors
  received, ack within ``Fack``);
* record every :class:`~repro.mac.messages.MessageInstance` so the execution
  can be certified post-hoc by :mod:`repro.mac.axioms`.

Timing sub-ordering: at equal timestamps, ``rcv`` events fire before ``ack``
events (event priorities 0 and 1), which realizes the model's requirement
that an instance's receives precede its acknowledgment even when a scheduler
sets them at the same instant.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import MACError, SchedulerError, WellFormednessError
from repro.ids import TIME_EPS, Message, NodeId, Time
from repro.mac.interfaces import Automaton
from repro.mac.messages import InstanceLog, MessageInstance
from repro.mac.schedulers.base import Scheduler, SchedulerContext
from repro.sim.events import EventHandle
from repro.sim.kernel import Simulator
from repro.topology.dualgraph import DualGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.engine import FaultEngine

#: Event priority for ``rcv`` events (fires before acks at equal times).
PRIORITY_RCV = 0
#: Event priority for ``ack`` events.
PRIORITY_ACK = 1
#: Event priority for environment wakeups (before everything at time 0).
PRIORITY_WAKEUP = -2
#: Event priority for environment ``arrive`` events.
PRIORITY_ARRIVE = -1

class _NodeBinding:
    """Per-node :class:`~repro.mac.interfaces.MACApi` implementation."""

    __slots__ = ("_mac", "_node_id", "automaton")

    def __init__(self, mac: "StandardMACLayer", node_id: NodeId, automaton: Automaton):
        self._mac = mac
        self._node_id = node_id
        self.automaton = automaton

    @property
    def node_id(self) -> NodeId:
        return self._node_id

    @property
    def reliable_neighbor_ids(self) -> frozenset[NodeId]:
        return self._mac.dual.reliable_neighbors(self._node_id)

    @property
    def gprime_neighbor_ids(self) -> frozenset[NodeId]:
        return self._mac.dual.gprime_neighbors(self._node_id)

    def bcast(self, payload: Any) -> None:
        self._mac.bcast(self._node_id, payload)

    def deliver(self, message: Message) -> None:
        self._mac.record_delivery(self._node_id, message)


class StandardMACLayer:
    """The standard abstract MAC layer over a dual graph.

    Class attribute ``_needs_abort_handles``: subclasses with an abort
    interface (the enhanced layer) set this True so delivery/ack event
    handles are retained for cancellation.  The standard layer keeps them
    only under fault injection (crashes abort broadcasts); fault-free,
    nothing ever cancels, so the per-event handle bookkeeping is skipped
    on the hot path.

    Args:
        sim: The discrete-event simulator to run on.
        dual: The network ``(G, G')``.
        scheduler: The message scheduler realizing the model's
            nondeterminism.
        fack: Acknowledgment bound for this execution.
        fprog: Progress bound for this execution (``fprog <= fack``).
        fault_engine: Optional :class:`~repro.faults.engine.FaultEngine`.
            When set, the layer honors the engine's dynamics: crashed
            nodes' pending broadcasts are aborted, deliveries to dead
            receivers are dropped (and excused at acknowledgment time),
            recovered/joining nodes are re-woken, arrivals addressed to a
            not-yet-joined node are deferred to its join, and schedulers
            observe the engine's effective topology through ``ctx.dual``.
            The layer also schedules a fallback acknowledgment at
            ``bcast + Fack`` per instance so broadcasts whose reliable
            neighbors died cannot outlive the acknowledgment bound.
    """

    _needs_abort_handles = False

    def __init__(
        self,
        sim: Simulator,
        dual: DualGraph,
        scheduler: Scheduler,
        fack: Time,
        fprog: Time,
        fault_engine: "FaultEngine | None" = None,
    ):
        if fprog <= 0 or fack <= 0:
            raise MACError(f"bounds must be positive (fack={fack}, fprog={fprog})")
        if fprog > fack + TIME_EPS:
            raise MACError(f"Fprog must not exceed Fack ({fprog} > {fack})")
        self.sim = sim
        self.dual = dual
        self.fack = fack
        self.fprog = fprog
        self.scheduler = scheduler
        self.instances = InstanceLog()
        #: Time of the last MAC/automaton event (bcast, rcv, ack, arrival,
        #: timer, re-wake).  Under faults the simulator keeps running to
        #: drain the installed fault timeline, so ``sim.now`` at quiescence
        #: reflects the fault horizon; this is the protocol's actual end.
        self.last_activity: Time = 0.0
        self._bindings: dict[NodeId, _NodeBinding] = {}
        self._pending: dict[NodeId, MessageInstance | None] = {}
        self._handles: dict[int, list[EventHandle]] = {}
        self._scheduled_receivers: dict[int, set[NodeId]] = {}
        # The one delivery record: (node, mid) -> time of every MMB
        # ``deliver(m)_i`` output, also the well-formedness dedup check.
        self._delivered: dict[tuple[NodeId, str], Time] = {}
        self.faults = fault_engine
        self._track_handles = (
            self._needs_abort_handles or fault_engine is not None
        )
        # Most schedulers leave the on_delivered hook at the base no-op;
        # resolving that once here spares a call per delivery.
        self._on_delivered = (
            None
            if type(scheduler).on_delivered is Scheduler.on_delivered
            else scheduler.on_delivered
        )
        self._fault_required: dict[int, frozenset[NodeId]] = {}
        self._fault_dropped: dict[int, set[NodeId]] = {}
        self._fault_aborted: dict[NodeId, Any] = {}
        self._fault_unwoken: set[NodeId] = set()
        if fault_engine is not None:
            fault_engine.listener = self
        scheduler.bind(SchedulerContext(self))

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def register(self, node_id: NodeId, automaton: Automaton) -> None:
        """Attach an automaton to a node.  Every node must be registered."""
        if node_id in self._bindings:
            raise MACError(f"node {node_id} registered twice")
        if not self.dual.reliable_graph.has_node(node_id):
            raise MACError(f"node {node_id} is not in the topology")
        self._bindings[node_id] = _NodeBinding(self, node_id, automaton)
        self._pending[node_id] = None

    def start(self) -> None:
        """Schedule the environment's wake-up event at every node (time 0).

        Under faults, nodes that are absent at time 0 (churn arrivals) are
        woken when they join instead; the fault plan itself is installed
        into the simulator here.
        """
        for node_id in sorted(self._bindings):
            if not self.node_active(node_id):
                self._fault_unwoken.add(node_id)
                continue
            binding = self._bindings[node_id]
            self.sim.schedule_at(
                0.0,
                self._fire_wakeup,
                binding,
                priority=PRIORITY_WAKEUP,
            )
        if self.faults is not None:
            self.faults.install(self.sim)

    def _fire_wakeup(self, binding: _NodeBinding) -> None:
        if not self.node_active(binding.node_id):
            # Crashed in the same instant, before its wakeup fired (fault
            # events run first): deliver the wakeup if it ever comes back.
            self._fault_unwoken.add(binding.node_id)
            return
        self.mark_activity()
        binding.automaton.on_wakeup(binding)

    def inject_arrival(
        self, node_id: NodeId, message: Message, time: Time = 0.0
    ) -> None:
        """Schedule an ``arrive(m)_i`` environment event (time 0 by default;
        later times realize the online-arrival MMB variant of footnote 4)."""
        binding = self._binding(node_id)
        self.sim.schedule_at(
            time,
            self._fire_arrival,
            binding,
            message,
            priority=PRIORITY_ARRIVE,
        )

    def _fire_arrival(self, binding: _NodeBinding, message: Message) -> None:
        if self.faults is not None:
            disposition, join_at = self.faults.classify_arrival(
                binding.node_id, message.mid
            )
            if disposition == "lost":
                return
            if disposition == "defer":
                # A late node brings its messages along when it joins.
                self.sim.schedule_at(
                    join_at,
                    self._fire_arrival,
                    binding,
                    message,
                    priority=PRIORITY_ARRIVE,
                )
                return
        self.mark_activity()
        binding.automaton.on_arrive(binding, message)

    def _binding(self, node_id: NodeId) -> _NodeBinding:
        try:
            return self._bindings[node_id]
        except KeyError:
            raise MACError(f"node {node_id} has no registered automaton") from None

    # ------------------------------------------------------------------
    # Fault plumbing
    # ------------------------------------------------------------------
    def node_active(self, node_id: NodeId) -> bool:
        """True when the node currently participates (always, fault-free)."""
        return self.faults is None or self.faults.is_active(node_id)

    def mark_activity(self) -> None:
        """Record that a MAC/automaton event happened at the current time."""
        self.last_activity = self.sim.now

    @property
    def effective_dual(self) -> Any:
        """What schedulers see as the topology: faulted view or the base."""
        return self.dual if self.faults is None else self.faults.view()

    def fault_node_down(self, node_id: NodeId, kind: Any) -> None:
        """Fault-engine hook: a node crashed or left.

        Its pending broadcast (if any) is aborted — undelivered receives
        are cancelled and the scheduler is told the instance terminated.
        The automaton gets no callback: the node is dead.
        """
        instance = self._pending.get(node_id)
        if instance is None:
            return
        instance.abort_time = self.sim.now
        self._pending[node_id] = None
        self._fault_aborted[node_id] = instance.payload
        self._cancel_instance_events(instance.iid)
        self._cleanup_instance(instance)
        assert self.faults is not None
        self.faults.note("bcasts_aborted")
        self.scheduler.on_terminated(instance)

    def fault_node_up(self, node_id: NodeId, kind: Any) -> None:
        """Fault-engine hook: a node recovered or joined.

        A node that never woke (a churn join, or a crash that beat its
        time-0 wakeup) gets its first ``on_wakeup`` now.  A *recovery*
        resumes an automaton whose state survived the crash — no second
        wakeup (protocols like FloodMax would reset themselves), but the
        broadcast the crash aborted is reported as ``on_abort`` so
        queue-driven protocols can retransmit instead of waiting forever
        for an ack that died.
        """
        binding = self._bindings.get(node_id)
        if binding is None:
            return
        if node_id in self._fault_unwoken:
            self._fault_unwoken.discard(node_id)
            self.mark_activity()
            binding.automaton.on_wakeup(binding)
            return
        if node_id in self._fault_aborted:
            payload = self._fault_aborted.pop(node_id)
            self.mark_activity()
            binding.automaton.on_abort(binding, payload)

    # ------------------------------------------------------------------
    # Broadcast / deliver / ack machinery
    # ------------------------------------------------------------------
    def bcast(self, sender: NodeId, payload: Any) -> MessageInstance | None:
        """Start an acknowledged local broadcast (called via the node API).

        Under faults a broadcast by a currently-dead node is suppressed
        (returns None): the environment, not the automaton, killed it, so
        it is not a well-formedness violation.
        """
        if sender not in self._bindings:
            raise MACError(f"node {sender} has no registered automaton")
        if self.faults is not None and not self.faults.is_active(sender):
            # Dead nodes transmit nothing — but remember the payload so a
            # recovery replays it as on_abort: external drivers (e.g. the
            # sequential-flooding coordinator) may have flipped the
            # automaton's sending flag, and nothing else would unwedge it.
            self.faults.note("bcasts_suppressed")
            self._fault_aborted[sender] = payload
            return None
        if self._pending[sender] is not None:
            raise WellFormednessError(
                f"node {sender} bcast while instance "
                f"{self._pending[sender].iid} is unacknowledged"
            )
        instance = self.instances.new_instance(sender, payload, self.sim.now)
        self.mark_activity()
        self._pending[sender] = instance
        if self._track_handles:
            self._handles[instance.iid] = []
        self._scheduled_receivers[instance.iid] = set()
        if self.faults is not None:
            # Acknowledgment obligations are fixed at bcast time: the
            # effective reliable neighbors alive right now.  A fallback
            # ack at bcast + Fack guarantees termination even when a
            # scheduler's own ack logic stalls on a receiver that died.
            self._fault_required[instance.iid] = (
                self.faults.effective_reliable_neighbors(sender)
            )
            self.schedule_ack(instance, instance.bcast_time + self.fack)
        self.scheduler.on_bcast(instance)
        return instance

    def pending_instance(self, node_id: NodeId) -> MessageInstance | None:
        """The node's unacknowledged instance, if any."""
        return self._pending[node_id]

    def schedule_delivery(
        self, instance: MessageInstance, receiver: NodeId, time: Time
    ) -> EventHandle:
        """Validate and schedule a ``rcv`` event (scheduler-facing)."""
        sender = instance.sender
        if receiver == sender:
            raise SchedulerError(f"instance {instance.iid}: self-delivery")
        if receiver not in self.dual.gprime_neighbors(sender):
            raise SchedulerError(
                f"instance {instance.iid}: receiver {receiver} is not a "
                f"G'-neighbor of sender {sender}"
            )
        scheduled = self._scheduled_receivers[instance.iid]
        if receiver in scheduled:
            raise SchedulerError(
                f"instance {instance.iid}: receiver {receiver} scheduled twice"
            )
        if time < self.sim.now - TIME_EPS:
            raise SchedulerError(
                f"instance {instance.iid}: delivery in the past ({time})"
            )
        scheduled.add(receiver)
        handle = self.sim.schedule_at(
            time, self._fire_delivery, instance, receiver, priority=PRIORITY_RCV
        )
        if self._track_handles:
            self._handles[instance.iid].append(handle)
        return handle

    def schedule_deliveries(
        self,
        instance: MessageInstance,
        planned: list[tuple[NodeId, Time]],
    ) -> None:
        """Validate and schedule one broadcast's ``rcv`` fan-out in a batch.

        Semantically identical to calling :meth:`schedule_delivery` once
        per ``(receiver, time)`` pair in order — the same validation runs
        and the kernel assigns the same sequence numbers — but the
        per-call lookups are hoisted and the events enter the heap in a
        single pass, handle-free (raw entries are retained for bulk
        cancellation only where cancellation is possible at all).
        """
        sender = instance.sender
        gprime = self.dual.gprime_neighbors(sender)
        scheduled = self._scheduled_receivers[instance.iid]
        now = self.sim.now
        items = []
        for receiver, time in planned:
            if receiver == sender:
                raise SchedulerError(f"instance {instance.iid}: self-delivery")
            if receiver not in gprime:
                raise SchedulerError(
                    f"instance {instance.iid}: receiver {receiver} is not a "
                    f"G'-neighbor of sender {sender}"
                )
            if receiver in scheduled:
                raise SchedulerError(
                    f"instance {instance.iid}: receiver {receiver} scheduled twice"
                )
            if time < now - TIME_EPS:
                raise SchedulerError(
                    f"instance {instance.iid}: delivery in the past ({time})"
                )
            scheduled.add(receiver)
            items.append((time, self._fire_delivery, (instance, receiver)))
        if self._track_handles:
            entries = self.sim.schedule_many_entries(items, priority=PRIORITY_RCV)
            self._handles[instance.iid].extend(entries)
        else:
            self.sim.schedule_many_raw(items, priority=PRIORITY_RCV)

    def schedule_ack(self, instance: MessageInstance, time: Time) -> EventHandle:
        """Validate and schedule the ``ack`` event (scheduler-facing)."""
        if instance.terminated:
            raise SchedulerError(f"instance {instance.iid}: ack after termination")
        if time > instance.bcast_time + self.fack + TIME_EPS:
            raise SchedulerError(
                f"instance {instance.iid}: ack at {time} violates the "
                f"acknowledgment bound (bcast at {instance.bcast_time}, "
                f"Fack={self.fack})"
            )
        handle = self.sim.schedule_at(
            time, self._fire_ack, instance, priority=PRIORITY_ACK
        )
        if self._track_handles:
            self._handles[instance.iid].append(handle)
        return handle

    def _fire_delivery(self, instance: MessageInstance, receiver: NodeId) -> None:
        if instance.abort_time is not None:
            # Deliveries racing an abort are dropped (the model allows them
            # within eps_abort; we take the simple choice of cancelling).
            return
        faults = self.faults
        if faults is not None and not faults.is_active(receiver):
            # The receiver died after this delivery was planned: drop it
            # and excuse the pair at acknowledgment time.
            self._fault_dropped.setdefault(instance.iid, set()).add(receiver)
            faults.note("deliveries_dropped")
            return
        rcv_times = instance.rcv_times
        if receiver in rcv_times:
            raise SchedulerError(
                f"instance {instance.iid}: duplicate rcv at {receiver}"
            )
        now = self.sim.now
        rcv_times[receiver] = now
        self.last_activity = now
        if self._on_delivered is not None:
            self._on_delivered(instance, receiver)
        binding = self._binding(receiver)
        binding.automaton.on_receive(binding, instance.payload, instance.sender)

    def _fire_ack(self, instance: MessageInstance) -> None:
        if instance.terminated:
            return
        missing = self._ack_missing(instance)
        if missing:
            raise SchedulerError(
                f"instance {instance.iid}: ack before delivery to "
                f"G-neighbors {missing}"
            )
        instance.ack_time = self.sim.now
        self.mark_activity()
        self._pending[instance.sender] = None
        if self.faults is not None:
            # Cancel the redundant ack (fallback or scheduler's own) so a
            # terminated instance leaves nothing in the event queue.
            self._cancel_instance_events(instance.iid)
        self._cleanup_instance(instance)
        self.scheduler.on_terminated(instance)
        binding = self._binding(instance.sender)
        binding.automaton.on_ack(binding, instance.payload)

    def _ack_missing(self, instance: MessageInstance) -> list[NodeId]:
        """Receivers whose missing ``rcv`` blocks the acknowledgment.

        Fault-free: every ``G``-neighbor of the sender.  Under faults: the
        effective reliable neighbors captured at bcast time, excused when
        they have since died, had their planned delivery dropped by a
        crash, or had their flapped-up grey edge go back down — the MAC
        owes deliveries only to receivers that stayed reliably reachable
        the whole time (schedulers judge "everyone got it" against the
        *current* effective topology, so the two views must agree here).
        """
        if self.faults is None:
            return [
                v
                for v in self.dual.reliable_neighbors(instance.sender)
                if not instance.delivered_to(v)
            ]
        required = self._fault_required.get(instance.iid, frozenset())
        dropped = self._fault_dropped.get(instance.iid, ())
        return sorted(
            v
            for v in required
            if not instance.delivered_to(v)
            and self.faults.is_active(v)
            and self.faults.is_reliable_edge(instance.sender, v)
            and v not in dropped
        )

    def _cancel_instance_events(self, iid: int) -> None:
        """Cancel every still-pending event of an instance.

        ``_handles`` holds a mix of raw batch entries (delivery fan-out)
        and :class:`EventHandle` objects (single schedules); raw entries
        are cancelled in one kernel pass.
        """
        items = self._handles.get(iid)
        if not items:
            return
        raw = [item for item in items if type(item) is list]
        if raw:
            self.sim.cancel_entries(raw)
        for item in items:
            if type(item) is not list:
                item.cancel()

    def _cleanup_instance(self, instance: MessageInstance) -> None:
        self._handles.pop(instance.iid, None)
        self._scheduled_receivers.pop(instance.iid, None)
        self._fault_required.pop(instance.iid, None)
        self._fault_dropped.pop(instance.iid, None)

    # ------------------------------------------------------------------
    # MMB deliver output
    # ------------------------------------------------------------------
    def record_delivery(self, node_id: NodeId, message: Message) -> None:
        """Record a ``deliver(m)_i`` output, enforcing MMB well-formedness."""
        key = (node_id, message.mid)
        if key in self._delivered:
            raise MACError(
                f"duplicate deliver({message.mid}) at node {node_id} "
                "(MMB well-formedness violation)"
            )
        self._delivered[key] = self.sim.now

    @property
    def deliveries(self) -> dict[tuple[NodeId, str], Time]:
        """All ``deliver`` outputs recorded so far: (node, mid) → time."""
        return self._delivered
