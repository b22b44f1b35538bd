"""Trace-level campaign validation over persisted observation journals.

Scalar checks (:mod:`repro.campaigns.checks`) see one number per point;
the paper's guarantees are statements about *event orderings* — every
acknowledgment lands within ``F_ack`` of its broadcast, aborts account
for their instances, deliveries respect injection order.  Trace checks
assert exactly those properties, post-hoc, against the observation
journals that ``journal=True`` sweeps persist into the result store.

A :class:`~repro.campaigns.spec.CheckSpec` under
``CampaignSpec.trace_checks`` names an entry in :data:`TRACE_CHECKS`:

    fn(spec, observations, **params) -> list[str]

called once per in-scope point with its spec and the journaled stream;
returned strings are failure descriptions (empty = pass).  The registry
is open — downstream campaigns add entries with
:func:`register_trace_check`.

Built-in checks:

========================  =============================================
``ack_latency``           every ``ack`` within ``fack`` of its
                          ``bcast`` (default: the spec's ``model.fack``;
                          override/loosen with ``fack=``/``slack=``)
``abort_accounting``      terminators are accounted for: every
                          ``ack``/``abort`` references a ``bcast``-ed
                          instance, no instance double-terminates
``mac_axioms``            full MAC-axiom re-certification of the
                          journal via :func:`repro.mac.axioms.check_axioms`
``delivery_order``        deliveries are unique per (node, message) and
                          never precede the message's injection
========================  =============================================
"""

from __future__ import annotations

from repro.errors import ExperimentError
from repro.experiments.registries import Registry
from repro.experiments.specs import ExperimentSpec
from repro.experiments.substrates import materialize_topology
from repro.mac.axioms import check_axioms
from repro.runtime.observations import Observation, instance_log

TRACE_CHECKS = Registry("trace check")


def register_trace_check(name: str):
    """Register ``check(spec, observations, **params) -> list[str]``."""
    return TRACE_CHECKS.register(name)


@register_trace_check("ack_latency")
def _ack_latency(
    spec: ExperimentSpec,
    observations: tuple[Observation, ...],
    fack: float | None = None,
    slack: float = 1e-9,
) -> list[str]:
    """Every acknowledged instance was acknowledged within ``fack``."""
    bound = spec.model.fack if fack is None else float(fack)
    bcast_times: dict[int, float] = {}
    failures: list[str] = []
    for obs in observations:
        if obs.kind == "bcast":
            bcast_times[obs.ref] = obs.time
    for obs in observations:
        if obs.kind != "ack":
            continue
        sent = bcast_times.get(obs.ref)
        if sent is None:
            continue  # abort_accounting owns orphan terminators
        latency = obs.time - sent
        if latency > bound + slack:
            failures.append(
                f"instance {obs.ref} ({obs.key!r}): ack latency "
                f"{latency:.6g} exceeds fack {bound:.6g}"
            )
    return failures


@register_trace_check("abort_accounting")
def _abort_accounting(
    spec: ExperimentSpec,
    observations: tuple[Observation, ...],
) -> list[str]:
    """Terminators account exactly for broadcast instances.

    Every ``ack``/``abort`` must reference a ``bcast``-ed instance, and
    an instance terminates at most once (one ``ack`` *or* one ``abort``,
    never both, never duplicated).
    """
    bcast_refs: set[int] = set()
    failures: list[str] = []
    terminators: dict[int, list[str]] = {}
    for obs in observations:
        if obs.kind == "bcast":
            bcast_refs.add(obs.ref)
        elif obs.kind in ("ack", "abort"):
            terminators.setdefault(obs.ref, []).append(obs.kind)
    for ref in sorted(terminators):
        kinds = terminators[ref]
        if ref not in bcast_refs:
            failures.append(
                f"instance {ref}: {'/'.join(kinds)} without a bcast"
            )
        if len(kinds) > 1:
            failures.append(
                f"instance {ref}: terminated {len(kinds)} times "
                f"({', '.join(kinds)})"
            )
    return failures


@register_trace_check("mac_axioms")
def _mac_axioms(
    spec: ExperimentSpec,
    observations: tuple[Observation, ...],
    allow_pending: bool = True,
    check_progress: bool = False,
) -> list[str]:
    """Re-certify the journaled MAC events against the layer axioms.

    Rebuilds the instance log from the stream
    (:func:`~repro.runtime.observations.instance_log`) and runs the full
    :func:`~repro.mac.axioms.check_axioms` certification; a stream the
    log cannot represent (an orphan ``rcv``, an instance-id gap, a
    duplicated ``rcv``) fails with the rebuild's reason.  Defaults are
    journal-appropriate: pending instances are allowed (faulted and
    budget-capped runs truncate legitimately) and the progress bound is
    skipped (it needs fault-plan context a journal of a faulted run does
    not carry); tighten with ``allow_pending=False`` /
    ``check_progress=True`` on clean campaigns.
    """
    try:
        log = instance_log(observations)
    except ExperimentError as exc:
        return [str(exc)]
    if not len(log):
        return ["journal carries no MAC events to certify"]
    dual = materialize_topology(spec)
    report = check_axioms(
        log,
        dual,
        fack=spec.model.fack,
        fprog=spec.model.fprog,
        allow_pending=allow_pending,
        check_progress=check_progress,
    )
    return list(report.violations)


@register_trace_check("delivery_order")
def _delivery_order(
    spec: ExperimentSpec,
    observations: tuple[Observation, ...],
    eps: float = 1e-9,
) -> list[str]:
    """Deliveries are unique per (node, message) and follow injection."""
    arrival_times: dict[str, float] = {}
    failures: list[str] = []
    seen: set[tuple[int | None, str]] = set()
    for obs in observations:
        if obs.kind == "arrival" and obs.key not in arrival_times:
            arrival_times[obs.key] = obs.time
    for obs in observations:
        if obs.kind != "deliver":
            continue
        slot = (obs.node, obs.key)
        if slot in seen:
            failures.append(
                f"node {obs.node} delivered message {obs.key!r} twice"
            )
        seen.add(slot)
        injected = arrival_times.get(obs.key)
        if injected is not None and obs.time < injected - eps:
            failures.append(
                f"node {obs.node} delivered {obs.key!r} at {obs.time:.6g} "
                f"before its injection at {injected:.6g}"
            )
    return failures


def run_trace_check(
    kind: str,
    spec: ExperimentSpec,
    observations: tuple[Observation, ...],
    **params,
) -> list[str]:
    """Run one registered trace check; raises on bad params."""
    check = TRACE_CHECKS.get(kind)
    try:
        return check(spec, observations, **params)
    except TypeError as exc:
        raise ExperimentError(
            f"trace check {kind!r} rejected params {sorted(params)}: {exc}"
        ) from exc
