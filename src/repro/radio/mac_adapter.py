"""``RadioMACLayer``: the abstract MAC layer implemented on real(istic) radio.

This adapter provides the same programming surface as
:class:`~repro.mac.standard.StandardMACLayer` — ``register`` /
``inject_arrival`` / automaton callbacks / ``bcast`` — but realizes
acknowledged local broadcast with a decay back-off schedule over the slotted
collision radio of :mod:`repro.radio.slotted`:

* ``bcast(m)`` starts a decay schedule for ``m``;
* every listener that decodes the packet gets a ``rcv`` (duplicates from
  retransmissions are suppressed per instance);
* in **adaptive** mode (default) the sender keeps running decay phases
  until every reliable neighbor has decoded the packet, then acks — so
  acknowledgment correctness holds by construction and the measured ack
  delay *is* the contention cost;
* in **fixed** mode the sender acks after a fixed number of phases
  (footnote 1's "CSMA finished with this packet"), and delivery to
  reliable neighbors holds only with high probability — the adapter
  reports the realized success rate.

The adapter does work only for the senders that act in a slot.  Each
schedule run is an ``_ActiveBroadcast`` with a start slot (the radio's
slot counter when ``bcast`` or an adaptive re-arm made it).  The adapter
books it in two slot-keyed calendars: ``_transmit_at`` holds the slot of
its next transmission (:meth:`DecaySchedule.next_transmission` draws that
schedule's coins up to the next success), and ``_finish_at`` holds its
last slot, ``start + total_steps - 1``.  A slot pops its own entries of
each, senders ascending, and a transmitter books its next transmission
as it is popped.  Entries whose broadcast is no longer the sender's
active one (crashed, acknowledged, re-armed) are skipped.  Booking ahead
draws a schedule's coins early, which is safe: each schedule draws from
its own child stream, through ``raw``, so no other component's draws
move and a crashed sender's unused coins affect nothing.

The point of the adapter is :func:`empirical_bounds`: it extracts from a
finished execution the smallest ``Fack`` and ``Fprog`` for which the
execution satisfies the abstract MAC layer's timing axioms.  Benchmarks use
it to regenerate footnote 2's claim — under contention κ, the realized
``Fprog`` grows like ``log κ`` while the realized ``Fack`` grows like κ.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Any

from repro.errors import MACError, WellFormednessError
from repro.ids import Message, NodeId, Time
from repro.mac.interfaces import Automaton
from repro.mac.messages import InstanceLog, MessageInstance
from repro.radio.decay import DecaySchedule, decay_depth_for, recommended_phases
from repro.radio.slotted import SlottedRadioNetwork
from repro.sim.rng import RandomSource
from repro.topology.dualgraph import DualGraph


@dataclass(frozen=True)
class EmpiricalBounds:
    """Realized model constants of one radio-backed execution.

    Attributes:
        fack: Largest observed bcast→ack latency.
        fprog: Smallest progress bound for which the execution satisfies
            the progress axiom (see :func:`minimal_progress_bound`).
        delivery_success_rate: Fraction of (instance, reliable neighbor)
            pairs that were actually delivered before the ack (1.0 in
            adaptive mode by construction).
    """

    fack: Time
    fprog: Time
    delivery_success_rate: float


class _RadioBinding:
    """Per-node MACApi implementation for the radio adapter."""

    def __init__(self, layer: "RadioMACLayer", node_id: NodeId, automaton: Automaton):
        self._layer = layer
        self._node_id = node_id
        self.automaton = automaton

    @property
    def node_id(self) -> NodeId:
        return self._node_id

    @property
    def reliable_neighbor_ids(self) -> frozenset[NodeId]:
        return self._layer.dual.reliable_neighbors(self._node_id)

    @property
    def gprime_neighbor_ids(self) -> frozenset[NodeId]:
        return self._layer.dual.gprime_neighbors(self._node_id)

    def bcast(self, payload) -> None:
        self._layer.bcast(self._node_id, payload)

    def deliver(self, message: Message) -> None:
        self._layer.record_delivery(self._node_id, message)


class _ActiveBroadcast:
    """A sender's in-flight instance plus one decay schedule run.

    ``start`` is the slot of the schedule's step 0; an adaptive re-arm
    makes a new object for the same instance, so a calendar entry names
    exactly one schedule run.
    """

    __slots__ = ("instance", "schedule", "start")

    def __init__(
        self, instance: MessageInstance, schedule: DecaySchedule, start: int
    ):
        self.instance = instance
        self.schedule = schedule
        self.start = start


class RadioMACLayer:
    """Acknowledged local broadcast implemented with decay over radio slots.

    Args:
        dual: The network.
        rng: Random stream (fading + decay coins).
        slot_duration: Simulated time per radio slot.
        p_unreliable_live: Per-slot fade-in probability of unreliable edges.
        adaptive: Keep transmitting until all reliable neighbors decoded
            (True, default) or ack after the fixed schedule (False).
        phases: Decay phases per schedule block; defaults to
            ``Θ(log n)`` via :func:`recommended_phases`.
        depth: Decay depth; defaults to ``ceil(log2(max G' degree + 1))``.
        fault_engine: Optional :class:`~repro.faults.engine.FaultEngine`;
            the adapter polls it once per slot.  Crashed nodes stop
            transmitting and listening (their in-flight broadcast is
            aborted), adaptive acknowledgment waits only for reliable
            neighbors that are still alive, arrivals addressed to a
            not-yet-joined node fire when it joins, and flapped-up grey
            edges stop fading while reliable.
        network: A pre-built slot-reception engine implementing the
            :class:`~repro.radio.slotted.SlottedRadioNetwork` surface
            (``run_slot`` / ``slot`` / ``stats`` / ``fault_engine``).
            ``None`` (the default) builds the binary collision radio over
            the ``fading`` child stream exactly as before; the ``sinr``
            substrate injects an
            :class:`~repro.radio.sinr.SINRRadioNetwork` here, reusing
            the whole adapter (decay schedules, acknowledgment,
            empirical-bound extraction) over a different reception model.
        delivered_cap: Bound the delivered/dedup table to this many
            entries via :class:`~repro.mac.dedup.DeliveredRing`
            (steady-state service mode).  On this adapter the table *is*
            the delivery record the substrate judges solvedness from, so
            eviction trades exact late-duplicate detection and complete
            delivery accounting for bounded memory — size the cap well
            above the in-flight message population.  ``None`` keeps the
            exact unbounded dict.
        engine: Reception-engine key for the default collision radio
            (``reference``/``vectorized``/``auto``, see
            :mod:`repro.radio.engines`); ignored when ``network`` is
            injected (the injected network carries its own engine).
    """

    def __init__(
        self,
        dual: DualGraph,
        rng: RandomSource,
        slot_duration: Time = 1.0,
        p_unreliable_live: float = 0.5,
        adaptive: bool = True,
        phases: int | None = None,
        depth: int | None = None,
        fault_engine=None,
        network=None,
        delivered_cap: int | None = None,
        engine: str = "reference",
    ):
        if slot_duration <= 0:
            raise MACError(f"slot_duration must be positive: {slot_duration}")
        self.dual = dual
        self.slot_duration = slot_duration
        self.adaptive = adaptive
        self.phases = phases or recommended_phases(dual.n)
        self.depth = (
            depth
            if depth is not None
            else decay_depth_for(dual.max_gprime_degree() + 1)
        )
        self._rng = rng
        self.radio = (
            network
            if network is not None
            else SlottedRadioNetwork(
                dual,
                rng.child("fading"),
                p_unreliable_live=p_unreliable_live,
                engine=engine,
            )
        )
        self.faults = fault_engine
        self._fault_aborted: dict[NodeId, object] = {}
        self._fault_unwoken: set[NodeId] = set()
        self._quiesced = False
        if fault_engine is not None:
            fault_engine.listener = self
            self.radio.fault_engine = fault_engine
        self.instances = InstanceLog()
        self._bindings: dict[NodeId, _RadioBinding] = {}
        self._active: dict[NodeId, _ActiveBroadcast] = {}
        # Slot -> broadcasts that transmit / finish their schedule in that
        # slot.  Entries whose broadcast is no longer _active[sender]
        # (crashed, acked, re-armed) are skipped when their slot comes.
        self._transmit_at: dict[int, list[tuple[NodeId, _ActiveBroadcast]]] = {}
        self._finish_at: dict[int, list[tuple[NodeId, _ActiveBroadcast]]] = {}
        self._arrivals: dict[int, list[tuple[NodeId, Message]]] = {}
        if delivered_cap is not None:
            from repro.mac.dedup import DeliveredRing

            self._delivered: Any = DeliveredRing(delivered_cap)
        else:
            self._delivered = {}
        self._missed_before_ack = 0
        self._required_deliveries = 0

    # ------------------------------------------------------------------
    # Setup (mirrors StandardMACLayer)
    # ------------------------------------------------------------------
    def register(self, node_id: NodeId, automaton: Automaton) -> None:
        """Attach an automaton to a node."""
        if node_id in self._bindings:
            raise MACError(f"node {node_id} registered twice")
        if node_id not in self.dual.reliable_adjacency:
            raise MACError(f"node {node_id} is not in the topology")
        self._bindings[node_id] = _RadioBinding(self, node_id, automaton)

    def inject_arrival(
        self, node_id: NodeId, message: Message, time: Time = 0.0
    ) -> None:
        """Queue an environment arrival for the slot covering ``time``."""
        slot = max(0, math.ceil(time / self.slot_duration))
        self._arrivals.setdefault(slot, []).append((node_id, message))

    @property
    def now(self) -> Time:
        """Current simulated time (slots elapsed × slot duration)."""
        return self.radio.slot * self.slot_duration

    # ------------------------------------------------------------------
    # Broadcast entry point (called by node automata)
    # ------------------------------------------------------------------
    def bcast(self, sender: NodeId, payload) -> MessageInstance | None:
        if self.faults is not None and not self.faults.is_active(sender):
            # Remember the payload: recovery replays it as on_abort so a
            # driver that flipped the automaton's sending flag while the
            # node was dead cannot wedge it (see StandardMACLayer.bcast).
            self.faults.note("bcasts_suppressed")
            self._fault_aborted[sender] = payload
            return None
        if sender in self._active:
            raise WellFormednessError(
                f"node {sender} bcast while a broadcast is in flight"
            )
        instance = self.instances.new_instance(sender, payload, self.now)
        self._arm(sender, instance, f"decay-{instance.iid}")
        return instance

    def _arm(self, sender: NodeId, instance: MessageInstance, stream: str) -> None:
        """Start a decay schedule for ``instance`` at the current slot and
        book its first transmission and its finishing slot."""
        schedule = DecaySchedule(self.depth, self.phases, self._rng.child(stream))
        active = _ActiveBroadcast(instance, schedule, self.radio.slot)
        self._active[sender] = active
        self._book_transmission(sender, active)
        finish = active.start + schedule.total_steps - 1
        self._finish_at.setdefault(finish, []).append((sender, active))

    def _book_transmission(self, sender: NodeId, active: _ActiveBroadcast) -> None:
        step = active.schedule.next_transmission()
        if step is not None:
            slot = active.start + step
            self._transmit_at.setdefault(slot, []).append((sender, active))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, max_slots: int = 1_000_000) -> int:
        """Run slots until quiescence (or ``max_slots``); returns slots used."""
        start_slot = self.radio.slot
        self._quiesced = False
        if self.faults is not None:
            self.faults.advance_to(self.now)
        for node_id in sorted(self._bindings):
            if self.faults is not None and not self.faults.is_active(node_id):
                # Absent/churn/insta-crashed nodes wake when they come up.
                self._fault_unwoken.add(node_id)
                continue
            binding = self._bindings[node_id]
            binding.automaton.on_wakeup(binding)
        while self.radio.slot - start_slot < max_slots:
            slot = self.radio.slot
            if self.faults is not None:
                self.faults.advance_to(self.now)
            self._fire_arrivals(slot)
            if not self._active and not self._pending_arrivals(slot):
                break
            self._run_one_slot()
        if self.faults is not None:
            # Replay the rest of the fault timeline (no further slots are
            # simulated) so the final engine state — survivors, joins —
            # matches the event-driven substrates, which drain the
            # installed timeline at quiescence.  _quiesced suppresses the
            # wake/resume callbacks, which must not broadcast into a
            # simulation that has ended.
            self._quiesced = True
            self.faults.advance_to(math.inf)
        return self.radio.slot - start_slot

    # ------------------------------------------------------------------
    # Fault-engine hooks (called during advance_to)
    # ------------------------------------------------------------------
    def fault_node_down(self, node_id: NodeId, kind) -> None:
        """A node crashed or left: its in-flight broadcast dies with it."""
        active = self._active.pop(node_id, None)
        if active is not None:
            active.instance.abort_time = self.now
            self._fault_aborted[node_id] = active.instance.payload
            assert self.faults is not None
            self.faults.note("bcasts_aborted")

    def fault_node_up(self, node_id: NodeId, kind) -> None:
        """A node recovered or joined.

        Mirrors :meth:`StandardMACLayer.fault_node_up`: never-woken nodes
        get their first ``on_wakeup``; recoveries get ``on_abort`` for the
        broadcast the crash killed, so queue-driven automata resume
        transmitting.  Suppressed after the slot loop ends — callbacks
        must not broadcast into a finished run.
        """
        if self._quiesced:
            return
        binding = self._bindings.get(node_id)
        if binding is None:
            return
        if node_id in self._fault_unwoken:
            self._fault_unwoken.discard(node_id)
            binding.automaton.on_wakeup(binding)
            return
        if node_id in self._fault_aborted:
            payload = self._fault_aborted.pop(node_id)
            binding.automaton.on_abort(binding, payload)

    def _pending_arrivals(self, current_slot: int) -> bool:
        return any(s >= current_slot and lst for s, lst in self._arrivals.items())

    def _fire_arrivals(self, slot: int) -> None:
        for node_id, message in self._arrivals.pop(slot, []):
            if self.faults is not None:
                disposition, join_at = self.faults.classify_arrival(
                    node_id, message.mid
                )
                if disposition == "lost":
                    continue
                if disposition == "defer":
                    # Re-queue for the slot in which the node joins.
                    join_slot = max(
                        slot + 1, math.ceil(join_at / self.slot_duration)
                    )
                    self._arrivals.setdefault(join_slot, []).append(
                        (node_id, message)
                    )
                    continue
            binding = self._bindings[node_id]
            binding.automaton.on_arrive(binding, message)

    def _due(
        self, calendar: dict[int, list[tuple[NodeId, _ActiveBroadcast]]], slot: int
    ) -> list[tuple[NodeId, _ActiveBroadcast]]:
        """``slot``'s live calendar entries, senders ascending."""
        entries = calendar.pop(slot, None)
        if not entries:
            return []
        active = self._active
        due = [e for e in entries if active.get(e[0]) is e[1]]
        due.sort(key=itemgetter(0))
        return due

    def _run_one_slot(self) -> None:
        slot = self.radio.slot
        transmissions = {}
        for sender, active in self._due(self._transmit_at, slot):
            transmissions[sender] = active.instance
            self._book_transmission(sender, active)
        receptions = self.radio.run_slot(transmissions)
        slot_end = self.now  # run_slot advanced the slot counter
        for listener in sorted(receptions):
            sender, instance = receptions[listener]
            if instance.delivered_to(listener):
                continue  # duplicate decode of a retransmission
            instance.rcv_times[listener] = slot_end
            binding = self._bindings[listener]
            binding.automaton.on_receive(binding, instance.payload, sender)
        self._complete_finished(slot, slot_end)

    def _required_receivers(self, sender: NodeId) -> list[NodeId]:
        """Reliable neighbors the sender still owes a delivery.

        Under faults, dead neighbors are owed nothing (the adaptive mode
        would otherwise retransmit forever at a crashed neighbor).
        """
        neighbors = self.dual.reliable_neighbors_sorted(sender)
        if self.faults is None:
            return list(neighbors)
        return [v for v in neighbors if self.faults.is_active(v)]

    def _complete_finished(self, slot: int, slot_end: Time) -> None:
        for sender, active in self._due(self._finish_at, slot):
            missing = [
                v
                for v in self._required_receivers(sender)
                if not active.instance.delivered_to(v)
            ]
            if missing and self.adaptive:
                # Keep going: append another block of decay phases.
                self._arm(
                    sender,
                    active.instance,
                    f"decay-{active.instance.iid}-extra-{int(slot_end)}",
                )
                continue
            self._required_deliveries += len(self._required_receivers(sender))
            self._missed_before_ack += len(missing)
            active.instance.ack_time = slot_end
            del self._active[sender]
            binding = self._bindings[sender]
            binding.automaton.on_ack(binding, active.instance.payload)

    # ------------------------------------------------------------------
    # MMB deliver output (mirrors StandardMACLayer)
    # ------------------------------------------------------------------
    def record_delivery(self, node_id: NodeId, message: Message) -> None:
        key = (node_id, message.mid)
        if key in self._delivered:
            raise MACError(
                f"duplicate deliver({message.mid}) at node {node_id}"
            )
        self._delivered[key] = self.now

    @property
    def deliveries(self) -> dict[tuple[NodeId, str], Time]:
        """All ``deliver`` outputs: (node, mid) → time."""
        return self._delivered

    # ------------------------------------------------------------------
    # Empirical model constants
    # ------------------------------------------------------------------
    def empirical_bounds(self) -> EmpiricalBounds:
        """The realized ``Fack``/``Fprog`` of this execution."""
        fack = 0.0
        for inst in self.instances:
            if inst.ack_time is not None:
                fack = max(fack, inst.ack_time - inst.bcast_time)
        fprog = minimal_progress_bound(self.instances, self.dual)
        if self._required_deliveries:
            rate = 1.0 - self._missed_before_ack / self._required_deliveries
        else:
            rate = 1.0
        return EmpiricalBounds(
            fack=fack, fprog=fprog, delivery_success_rate=rate
        )


def minimal_progress_bound(instances: InstanceLog, dual: DualGraph) -> Time:
    """The smallest ``Fprog`` for which an execution satisfies the progress
    axiom.

    Mirrors the axiom checker's reduction: within one connected window
    ``[b, T]`` at receiver ``j``, the constraint at critical start ``s`` is
    ``Fprog ≥ min(f(s) − s, T − s)`` where ``f(s)`` is the earliest receive
    at ``j`` from an instance still contending at ``s`` (``T − s`` voids the
    constraint when no interval longer than ``Fprog`` fits).  The minimal
    valid bound is the maximum of these over all windows and starts.
    """
    insts = list(instances)
    trace_end = 0.0
    for inst in insts:
        trace_end = max(trace_end, inst.bcast_time)
        if inst.rcv_times:
            trace_end = max(trace_end, max(inst.rcv_times.values()))
        trace_end = max(
            trace_end, inst.ack_time or 0.0, inst.abort_time or 0.0
        )
    rcv_by_receiver: dict[NodeId, list[tuple[Time, Time]]] = {}
    for inst in insts:
        term = min(inst.termination_time, trace_end)
        for receiver, rtime in inst.rcv_times.items():
            rcv_by_receiver.setdefault(receiver, []).append((rtime, term))
    # Per receiver: events sorted by termination time, plus a suffix
    # minimum of the receive times.  "Earliest receive among instances
    # still contending at s" (term >= s) is then one bisect + one array
    # lookup instead of a scan — this pass used to be quadratic in the
    # instance count and dominated radio-substrate profiles.
    indexed: dict[NodeId, tuple[list[Time], list[Time]]] = {}
    for receiver, events in rcv_by_receiver.items():
        events.sort(key=lambda rt: rt[1])
        terms = [term for _, term in events]
        suffix_min: list[Time] = [math.inf] * (len(events) + 1)
        for i in range(len(events) - 1, -1, -1):
            suffix_min[i] = min(events[i][0], suffix_min[i + 1])
        indexed[receiver] = (terms, suffix_min)
    needed = 0.0
    for inst in insts:
        begin = inst.bcast_time
        end = min(inst.termination_time, trace_end)
        if end <= begin:
            continue
        for receiver in dual.reliable_neighbors(inst.sender):
            index = indexed.get(receiver)
            if index is None:
                terms, suffix_min = [], [math.inf]
            else:
                terms, suffix_min = index
            window = terms[bisect_right(terms, begin) : bisect_left(terms, end)]
            starts = [begin] + [term + 1e-9 for term in window]
            for s in starts:
                if s >= end:
                    continue
                earliest = suffix_min[bisect_left(terms, s)]
                constraint = min(earliest - s, end - s)
                if constraint > needed:
                    needed = constraint
    return needed
