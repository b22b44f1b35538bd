"""Built-in fault scenarios: recipes that compile to fault plans.

Builder convention (mirrors the other registries): ``build(dual, rng,
**params) -> FaultPlan``.  Every random choice — victims, times, phases —
is drawn here, from the execution's seed-derived ``faults`` stream, in a
fixed iteration order; applying the resulting plan consumes no randomness.

All times are absolute simulated time.  ``horizon`` bounds the generated
timeline (flap waveforms and churn processes stop there); crash windows are
expressed as fractions of it so one scenario scales across experiments of
different lengths.

The scenarios here are deliberately composable knobs, not a taxonomy:

* ``crash_random`` — a fraction of nodes fail at random times (optionally
  recovering), the classic crash-fault model of Zhang & Tseng's
  fault-tolerance treatment of the abstract MAC layer;
* ``crash_targeted`` — the adversary fails the highest-``G'``-degree hubs
  (the nodes most likely to carry MIS/overlay leadership);
* ``flap_periodic`` / ``flap_random`` — grey-zone edges oscillate between
  reliable and merely-unreliable, the time-varying-topology regime of
  Ahmadi & Kuhn's dynamic radio networks;
* ``churn_poisson`` — Poisson node arrivals (with their messages) and
  departures;
* ``none`` — the empty plan (specs default to it).
"""

from __future__ import annotations

import math

from repro.errors import ExperimentError
from repro.experiments.registries import register_fault
from repro.faults.events import Edge, FaultEvent, FaultKind
from repro.faults.plan import FaultPlan
from repro.ids import NodeId
from repro.sim.rng import RandomSource
from repro.topology.dualgraph import DualGraph

#: Default timeline bound; covers the stock CLI/benchmark experiments.
DEFAULT_HORIZON = 100.0


def _check_fraction(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ExperimentError(f"{name} must be in [0, 1], got {value}")


def _grey_edges(dual: DualGraph) -> list[Edge]:
    """The flappable (``G' \\ G``) edges in canonical sorted order."""
    return list(dual.unreliable_extra_edges)


def _exponential(rng: RandomSource, mean: float) -> float:
    """An Exp(1/mean) draw from the plan's stream."""
    return -math.log(1.0 - rng.random()) * mean


@register_fault("none")
def _build_none(dual: DualGraph, rng: RandomSource) -> FaultPlan:
    """The empty plan: a faulted code path with zero faults."""
    return FaultPlan(name="none")


@register_fault("crash_random")
def _build_crash_random(
    dual: DualGraph,
    rng: RandomSource,
    fraction: float = 0.2,
    horizon: float = DEFAULT_HORIZON,
    earliest: float = 0.05,
    latest: float = 0.5,
    recover_after: float = 0.0,
    min_survivors: int = 1,
) -> FaultPlan:
    """Uniformly chosen victims crash at uniform times in a window.

    Args:
        fraction: Target fraction of nodes to crash (clamped so at least
            ``min_survivors`` nodes stay up).
        horizon: Timeline bound.
        earliest / latest: Crash window as fractions of ``horizon``.
        recover_after: If positive, every victim recovers that long after
            its crash (crash-recover model); 0 means fail-stop.
        min_survivors: Lower bound on the number of untouched nodes.
    """
    _check_fraction("fraction", fraction)
    if not 0.0 <= earliest <= latest <= 1.0:
        raise ExperimentError(
            f"need 0 <= earliest <= latest <= 1, got {earliest}, {latest}"
        )
    nodes = dual.nodes
    count = min(int(round(fraction * len(nodes))), max(len(nodes) - min_survivors, 0))
    victims = rng.sample(nodes, count)
    events: list[FaultEvent] = []
    for node in victims:
        at = rng.uniform(earliest * horizon, latest * horizon)
        events.append(FaultEvent(at, FaultKind.CRASH, node=node))
        if recover_after > 0:
            events.append(
                FaultEvent(at + recover_after, FaultKind.RECOVER, node=node)
            )
    return FaultPlan.of(events, name="crash_random")


@register_fault("crash_targeted")
def _build_crash_targeted(
    dual: DualGraph,
    rng: RandomSource,
    count: int = 1,
    at: float = 0.25,
    horizon: float = DEFAULT_HORIZON,
    by: str = "degree",
) -> FaultPlan:
    """Crash the structurally most important nodes at one instant.

    ``by="degree"`` fails the highest-``G'``-degree hubs — the nodes most
    likely to be MIS leaders / overlay relays — which is the adversarial
    counterpart of ``crash_random``.  ``by="id"`` fails the largest ids
    (the FloodMax leaders).
    """
    if count < 0:
        raise ExperimentError(f"count must be >= 0, got {count}")
    if by not in ("degree", "id"):
        raise ExperimentError(f"by must be 'degree' or 'id', got {by!r}")
    count = min(count, dual.n - 1)
    if by == "degree":
        ranked = sorted(
            dual.nodes, key=lambda v: (-len(dual.gprime_neighbors(v)), v)
        )
    else:
        ranked = sorted(dual.nodes, reverse=True)
    events = [
        FaultEvent(at * horizon, FaultKind.CRASH, node=node)
        for node in ranked[:count]
    ]
    return FaultPlan.of(events, name="crash_targeted")


@register_fault("flap_periodic")
def _build_flap_periodic(
    dual: DualGraph,
    rng: RandomSource,
    fraction: float = 0.5,
    period: float = 10.0,
    duty: float = 0.5,
    horizon: float = DEFAULT_HORIZON,
    jitter: bool = True,
) -> FaultPlan:
    """Selected grey-zone edges oscillate reliable/unreliable periodically.

    Each selected edge repeats: up (reliable) for ``duty x period``, then
    down (grey) for the rest of the period.  With ``jitter`` every edge
    gets a random phase so the network never flaps in lock-step.
    """
    _check_fraction("fraction", fraction)
    _check_fraction("duty", duty)
    if period <= 0:
        raise ExperimentError(f"period must be positive, got {period}")
    if duty == 0.0:
        # Never up: the coincident UP/DOWN pairs a zero-length pulse would
        # emit sort DOWN-before-UP and invert the waveform, so emit none.
        return FaultPlan(name="flap_periodic")
    grey = _grey_edges(dual)
    chosen = rng.sample(grey, int(round(fraction * len(grey))))
    events: list[FaultEvent] = []
    for edge in sorted(chosen):
        phase = rng.uniform(0.0, period) if jitter else 0.0
        t = phase
        while t < horizon:
            events.append(FaultEvent(t, FaultKind.LINK_UP, edge=edge))
            down_at = t + duty * period
            if down_at < horizon:
                events.append(FaultEvent(down_at, FaultKind.LINK_DOWN, edge=edge))
            t += period
    return FaultPlan.of(events, name="flap_periodic")


@register_fault("flap_random")
def _build_flap_random(
    dual: DualGraph,
    rng: RandomSource,
    fraction: float = 0.5,
    mean_up: float = 5.0,
    mean_down: float = 5.0,
    horizon: float = DEFAULT_HORIZON,
) -> FaultPlan:
    """Selected grey-zone edges flap with exponential up/down durations."""
    _check_fraction("fraction", fraction)
    if mean_up <= 0 or mean_down <= 0:
        raise ExperimentError(
            f"mean durations must be positive (up={mean_up}, down={mean_down})"
        )
    grey = _grey_edges(dual)
    chosen = rng.sample(grey, int(round(fraction * len(grey))))
    events: list[FaultEvent] = []
    for edge in sorted(chosen):
        t = _exponential(rng, mean_down)
        while t < horizon:
            events.append(FaultEvent(t, FaultKind.LINK_UP, edge=edge))
            t += _exponential(rng, mean_up)
            if t >= horizon:
                break
            events.append(FaultEvent(t, FaultKind.LINK_DOWN, edge=edge))
            t += _exponential(rng, mean_down)
    return FaultPlan.of(events, name="flap_random")


@register_fault("churn_poisson")
def _build_churn_poisson(
    dual: DualGraph,
    rng: RandomSource,
    join_fraction: float = 0.25,
    leave_fraction: float = 0.0,
    mean_gap: float = 5.0,
    start: float = 0.0,
    horizon: float = DEFAULT_HORIZON,
    min_survivors: int = 1,
) -> FaultPlan:
    """Poisson churn: late arrivals (with their messages) and departures.

    A ``join_fraction`` of nodes starts absent and joins at the points of
    a Poisson process (mean inter-arrival ``mean_gap``); a
    ``leave_fraction`` of the remaining nodes departs on an independent
    Poisson process.  Messages assigned to a late node are injected the
    moment it joins.  The timeline respects ``horizon``: every absentee
    joins by then (join points past it are clamped to the horizon, since
    a node that never joins would strand its messages forever), and
    departures drawn past it are dropped.
    """
    _check_fraction("join_fraction", join_fraction)
    _check_fraction("leave_fraction", leave_fraction)
    if mean_gap <= 0:
        raise ExperimentError(f"mean_gap must be positive, got {mean_gap}")
    nodes = dual.nodes
    join_count = min(int(round(join_fraction * len(nodes))), len(nodes) - 1)
    joiners = rng.sample(nodes, join_count)
    if horizon <= start:
        raise ExperimentError(
            f"churn horizon must exceed start ({horizon} <= {start})"
        )
    events: list[FaultEvent] = []
    t = start
    for node in joiners:
        t += _exponential(rng, mean_gap)
        events.append(FaultEvent(min(t, horizon), FaultKind.JOIN, node=node))
    stayers: list[NodeId] = [v for v in nodes if v not in set(joiners)]
    leave_count = min(
        int(round(leave_fraction * len(nodes))),
        max(len(stayers) - min_survivors, 0),
    )
    leavers = rng.sample(stayers, leave_count)
    t = start
    for node in leavers:
        t += _exponential(rng, mean_gap)
        if t < horizon:
            events.append(FaultEvent(t, FaultKind.LEAVE, node=node))
    return FaultPlan.of(events, initially_absent=joiners, name="churn_poisson")
