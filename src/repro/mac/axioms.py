"""Post-hoc certification of executions against the MAC-layer axioms.

The paper (§3.2.1) constrains admissible executions with three safety
conditions and two timing bounds.  :func:`check_axioms` takes the
:class:`~repro.mac.messages.InstanceLog` of a finished run plus the model
parameters and verifies every one of them:

1. **Receive correctness** — each ``rcv`` goes to a ``G'``-neighbor of the
   sender, at most once per (instance, receiver), never before the
   ``bcast``, and never after the instance's ``ack`` (or more than
   ``eps_abort`` after its ``abort``).
2. **Acknowledgment correctness** — an ``ack`` implies every ``G``-neighbor
   already received; an instance has at most one terminating event.
3. **Termination** — every ``bcast`` eventually acks or aborts.
4. **Acknowledgment bound** — ``ack − bcast ≤ Fack``.
5. **Progress bound** — there is no interval of length ``> Fprog``, wholly
   contained in the lifetime of some instance whose sender is a
   ``G``-neighbor of ``j``, such that no ``rcv`` at ``j`` from a
   *contending* instance (one whose termination does not precede the
   interval's start, over a ``G'`` edge) occurs by the interval's end.

The progress check quantifies over uncountably many intervals; we reduce it
to finitely many critical interval starts: the qualifying-receive set for a
start ``s`` only changes when ``s`` passes an instance termination time, and
within a region of constant qualifying set the tightest constraint is at the
region's left edge.  See ``_check_progress_for_receiver``.

This module is how the package turns "we simulated something" into "we
simulated an admissible execution of the paper's model": every scheduler —
including the lower-bound adversaries — is certified by these checks in the
test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import AxiomViolation
from repro.ids import TIME_EPS, NodeId, Time
from repro.mac.messages import DEFAULT_EPS_ABORT, MessageInstance
from repro.topology.dualgraph import DualGraph

#: Nudge used to step just past a termination time when enumerating
#: critical interval starts for the progress-bound check.  Must exceed the
#: comparison tolerance ``TIME_EPS`` or the stepped-past instance would
#: still qualify as contending.
_STEP = 1e-6


@dataclass
class AxiomReport:
    """Result of checking one execution against the MAC axioms.

    Attributes:
        ok: True when no violations were found.
        violations: Human-readable descriptions of each violation.
        instances_checked: Number of message instances examined.
        progress_windows_checked: Number of (receiver, window) pairs the
            progress-bound check examined.
    """

    ok: bool
    violations: list[str] = field(default_factory=list)
    instances_checked: int = 0
    progress_windows_checked: int = 0

    def raise_if_failed(self) -> None:
        """Raise :class:`AxiomViolation` describing the first few failures."""
        if not self.ok:
            head = "; ".join(self.violations[:5])
            more = len(self.violations) - 5
            suffix = f" (+{more} more)" if more > 0 else ""
            raise AxiomViolation(f"{len(self.violations)} violations: {head}{suffix}")


def check_axioms(
    instances: Iterable[MessageInstance],
    dual: DualGraph,
    fack: Time,
    fprog: Time,
    eps_abort: Time = DEFAULT_EPS_ABORT,
    allow_pending: bool = False,
    check_progress: bool = True,
) -> AxiomReport:
    """Verify an execution's instances against all five MAC-layer axioms.

    Args:
        instances: The execution's message instances (e.g.
            ``mac.instances``).
        dual: The topology the execution ran on.
        fack: Acknowledgment bound of the execution.
        fprog: Progress bound of the execution.
        eps_abort: Grace period for receives racing an abort.
        allow_pending: Accept unterminated instances (for truncated runs);
            their lifetimes are clipped at the last observed event time.
        check_progress: The progress check is the expensive one
            (O(instances × receive events)); disable for very large traces.

    Returns:
        An :class:`AxiomReport`; call :meth:`AxiomReport.raise_if_failed`
        to turn failures into an exception.
    """
    insts = list(instances)
    report = AxiomReport(ok=True, instances_checked=len(insts))
    trace_end = _trace_end(insts)

    for inst in insts:
        _check_receive_correctness(inst, dual, eps_abort, report)
        _check_ack_correctness(inst, dual, report)
        _check_termination(inst, allow_pending, report)
        _check_ack_bound(inst, fack, report)

    if check_progress:
        _check_progress(insts, dual, fprog, trace_end, report)

    report.ok = not report.violations
    return report


def _trace_end(insts: list[MessageInstance]) -> Time:
    end = 0.0
    for inst in insts:
        end = max(end, inst.bcast_time)
        if inst.rcv_times:
            end = max(end, max(inst.rcv_times.values()))
        if inst.ack_time is not None:
            end = max(end, inst.ack_time)
        if inst.abort_time is not None:
            end = max(end, inst.abort_time)
    return end


# ----------------------------------------------------------------------
# Safety conditions
# ----------------------------------------------------------------------
def _check_receive_correctness(
    inst: MessageInstance, dual: DualGraph, eps_abort: Time, report: AxiomReport
) -> None:
    for receiver, rtime in inst.rcv_times.items():
        if receiver == inst.sender:
            report.violations.append(
                f"inst {inst.iid}: rcv at its own sender {receiver}"
            )
        elif not dual.is_gprime_edge(inst.sender, receiver):
            report.violations.append(
                f"inst {inst.iid}: rcv at {receiver}, not a G'-neighbor of "
                f"{inst.sender}"
            )
        if rtime < inst.bcast_time - TIME_EPS:
            report.violations.append(
                f"inst {inst.iid}: rcv at {receiver} at {rtime} precedes "
                f"bcast at {inst.bcast_time}"
            )
        if inst.ack_time is not None and rtime > inst.ack_time + TIME_EPS:
            report.violations.append(
                f"inst {inst.iid}: rcv at {receiver} at {rtime} after ack "
                f"at {inst.ack_time}"
            )
        if inst.abort_time is not None and rtime > inst.abort_time + eps_abort + TIME_EPS:
            report.violations.append(
                f"inst {inst.iid}: rcv at {receiver} at {rtime} more than "
                f"eps_abort after abort at {inst.abort_time}"
            )


def _check_ack_correctness(
    inst: MessageInstance, dual: DualGraph, report: AxiomReport
) -> None:
    if inst.ack_time is not None and inst.abort_time is not None:
        report.violations.append(f"inst {inst.iid}: both ack and abort")
    if inst.ack_time is None:
        return
    for neighbor in dual.reliable_neighbors(inst.sender):
        rtime = inst.rcv_times.get(neighbor)
        if rtime is None:
            report.violations.append(
                f"inst {inst.iid}: ack without rcv at G-neighbor {neighbor}"
            )
        elif rtime > inst.ack_time + TIME_EPS:
            report.violations.append(
                f"inst {inst.iid}: ack at {inst.ack_time} precedes rcv at "
                f"G-neighbor {neighbor} ({rtime})"
            )


def _check_termination(
    inst: MessageInstance, allow_pending: bool, report: AxiomReport
) -> None:
    if not inst.terminated and not allow_pending:
        report.violations.append(
            f"inst {inst.iid}: never terminated (no ack or abort)"
        )


def _check_ack_bound(inst: MessageInstance, fack: Time, report: AxiomReport) -> None:
    if inst.ack_time is not None and inst.ack_time - inst.bcast_time > fack + TIME_EPS:
        report.violations.append(
            f"inst {inst.iid}: ack latency "
            f"{inst.ack_time - inst.bcast_time} exceeds Fack={fack}"
        )


# ----------------------------------------------------------------------
# Progress bound
# ----------------------------------------------------------------------
def _check_progress(
    insts: list[MessageInstance],
    dual: DualGraph,
    fprog: Time,
    trace_end: Time,
    report: AxiomReport,
) -> None:
    # Receive events per receiver: (rcv_time, termination_time of instance).
    rcv_by_receiver: dict[NodeId, list[tuple[Time, Time]]] = {}
    for inst in insts:
        term = min(inst.termination_time, trace_end)
        for receiver, rtime in inst.rcv_times.items():
            rcv_by_receiver.setdefault(receiver, []).append((rtime, term))
    # Connected windows per receiver: lifetimes of G-neighbor instances.
    for inst in insts:
        begin = inst.bcast_time
        end = min(inst.termination_time, trace_end)
        if end - begin <= fprog + TIME_EPS:
            continue
        for receiver in dual.reliable_neighbors(inst.sender):
            report.progress_windows_checked += 1
            _check_progress_for_receiver(
                receiver,
                begin,
                end,
                fprog,
                rcv_by_receiver.get(receiver, []),
                report,
                inst.iid,
            )


def _check_progress_for_receiver(
    receiver: NodeId,
    begin: Time,
    end: Time,
    fprog: Time,
    rcv_events: list[tuple[Time, Time]],
    report: AxiomReport,
    witness_iid: int,
) -> None:
    """Check one connected window [begin, end] at one receiver.

    A violation exists iff for some start ``s`` in ``[begin, end − Fprog)``,
    every receive event at the receiver from an instance still contending at
    ``s`` (termination ≥ s) happens strictly later than ``s + Fprog``.  The
    minimum qualifying receive time is a step function of ``s`` that only
    jumps when ``s`` crosses a termination time, so checking ``s = begin``
    and ``s`` just past each termination value inside the window suffices.
    """
    last_start = end - fprog
    candidate_starts = [begin]
    for _, term in rcv_events:
        s = term + _STEP
        if begin < s < last_start:
            candidate_starts.append(s)
    for s in candidate_starts:
        if s >= last_start - TIME_EPS:
            continue
        qualifying = [rtime for rtime, term in rcv_events if term >= s - TIME_EPS]
        earliest = min(qualifying, default=math.inf)
        if earliest > s + fprog + TIME_EPS:
            report.violations.append(
                f"progress violation at receiver {receiver}: window of "
                f"instance {witness_iid} [{begin:.6g}, {end:.6g}], start "
                f"s={s:.6g}: earliest qualifying rcv at {earliest:.6g} > "
                f"s + Fprog = {s + fprog:.6g}"
            )
            return


def assert_axioms(
    instances: Iterable[MessageInstance],
    dual: DualGraph,
    fack: Time,
    fprog: Time,
    **kwargs: object,
) -> AxiomReport:
    """Like :func:`check_axioms` but raises on any violation."""
    report = check_axioms(instances, dual, fack, fprog, **kwargs)  # type: ignore[arg-type]
    report.raise_if_failed()
    return report
