"""Unit tests for the ``repro.faults`` subsystem.

Covers the event/plan value objects, plan validation, engine state
transitions, the effective dual-graph view, the scenario builders'
determinism and constraints, and the fault registry.
"""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments import FAULTS, FaultSpec, list_faults, register_fault
from repro.faults import (
    EffectiveDualView,
    FaultEngine,
    FaultEvent,
    FaultKind,
    FaultPlan,
    canonical_edge,
    validate_plan,
)
from repro.sim.rng import RandomSource
from repro.topology import DualGraph


def grey_line(n: int = 8) -> DualGraph:
    """A line 0-1-...-n-1 plus grey-zone chords (i, i+2)."""
    chords = [(i, i + 2) for i in range(n - 2)]
    return DualGraph(
        n, [(i, i + 1) for i in range(n - 1)], chords, name="grey-line"
    )


def rng(seed: int = 0) -> RandomSource:
    return RandomSource(seed, "test-faults")


# ----------------------------------------------------------------------
# Events
# ----------------------------------------------------------------------
def test_canonical_edge_orders_endpoints_and_rejects_self_loops():
    assert canonical_edge(5, 2) == (2, 5)
    with pytest.raises(ExperimentError):
        canonical_edge(3, 3)


def test_event_operand_validation():
    with pytest.raises(ExperimentError):
        FaultEvent(1.0, FaultKind.CRASH, edge=(0, 1))
    with pytest.raises(ExperimentError):
        FaultEvent(1.0, FaultKind.LINK_UP, node=0)
    with pytest.raises(ExperimentError):
        FaultEvent(-1.0, FaultKind.CRASH, node=0)
    event = FaultEvent(1.0, FaultKind.LINK_UP, edge=(4, 2))
    assert event.edge == (2, 4)  # canonicalized


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
def test_plan_sorts_events_and_reports_horizon():
    plan = FaultPlan.of(
        [
            FaultEvent(9.0, FaultKind.CRASH, node=1),
            FaultEvent(2.0, FaultKind.CRASH, node=0),
        ]
    )
    assert [e.time for e in plan.events] == [2.0, 9.0]
    assert plan.horizon == 9.0
    assert not plan.is_empty
    assert plan.touched_nodes() == frozenset({0, 1})


def test_validate_plan_rejects_unknown_nodes_and_non_grey_edges():
    dual = grey_line()
    with pytest.raises(ExperimentError, match="unknown node"):
        validate_plan(
            FaultPlan.of([FaultEvent(1.0, FaultKind.CRASH, node=99)]), dual
        )
    # (0, 1) is reliable, not grey: flapping it is rejected.
    with pytest.raises(ExperimentError, match="grey-zone"):
        validate_plan(
            FaultPlan.of([FaultEvent(1.0, FaultKind.LINK_UP, edge=(0, 1))]),
            dual,
        )
    # (0, 2) is a grey chord: fine.
    validate_plan(
        FaultPlan.of([FaultEvent(1.0, FaultKind.LINK_UP, edge=(0, 2))]), dual
    )


def test_validate_plan_rejects_stranded_absentees():
    dual = grey_line()
    with pytest.raises(ExperimentError, match="never join"):
        validate_plan(FaultPlan.of([], initially_absent=[3]), dual)
    validate_plan(
        FaultPlan.of(
            [FaultEvent(4.0, FaultKind.JOIN, node=3)], initially_absent=[3]
        ),
        dual,
    )


# ----------------------------------------------------------------------
# Engine transitions
# ----------------------------------------------------------------------
def test_engine_advances_and_tracks_liveness():
    dual = grey_line()
    plan = FaultPlan.of(
        [
            FaultEvent(5.0, FaultKind.CRASH, node=2),
            FaultEvent(10.0, FaultKind.RECOVER, node=2),
        ]
    )
    engine = FaultEngine(dual, plan)
    assert engine.is_active(2)
    engine.advance_to(5.0)
    assert not engine.is_active(2)
    assert engine.active_nodes() == [0, 1, 3, 4, 5, 6, 7]
    engine.advance_to(10.0)
    assert engine.is_active(2)
    assert engine.counters["crashes"] == 1
    assert engine.counters["recoveries"] == 1


def test_engine_view_filters_dead_nodes_and_promotes_flapped_edges():
    dual = grey_line()
    plan = FaultPlan.of(
        [
            FaultEvent(1.0, FaultKind.CRASH, node=3),
            FaultEvent(1.0, FaultKind.LINK_UP, edge=(0, 2)),
            FaultEvent(7.0, FaultKind.LINK_DOWN, edge=(0, 2)),
        ]
    )
    engine = FaultEngine(dual, plan)
    engine.advance_to(1.0)
    view = engine.view()
    assert 3 not in view.nodes and view.n == 7
    # The dead node disappears from every neighbor set.
    assert 3 not in view.reliable_neighbors(2)
    assert 3 not in view.gprime_neighbors(4)
    # The flapped-up grey chord now counts as reliable.
    assert view.is_reliable_edge(0, 2)
    assert 2 in view.reliable_neighbors(0)
    assert 2 not in view.unreliable_only_neighbors(0)
    # Crashing node 3 cuts the line; the chord (2,4) keeps G' connected
    # but the *reliable* components split.
    assert len(view.components()) == 2
    assert view.component_of(0) == frozenset({0, 1, 2})
    engine.advance_to(7.0)
    after = engine.view()
    assert not after.is_reliable_edge(0, 2)
    assert 2 in after.unreliable_only_neighbors(0)


def test_engine_sim_install_applies_events_in_order():
    from repro.sim import Simulator

    dual = grey_line()
    plan = FaultPlan.of(
        [
            FaultEvent(2.0, FaultKind.CRASH, node=1),
            FaultEvent(4.0, FaultKind.CRASH, node=5),
        ]
    )
    engine = FaultEngine(dual, plan)
    sim = Simulator()
    engine.install(sim)
    seen = []
    sim.schedule_at(3.0, lambda: seen.append(engine.active_nodes()))
    sim.run()
    assert seen == [[0, 2, 3, 4, 5, 6, 7]]  # node 1 down, node 5 not yet
    assert not engine.is_active(5)
    with pytest.raises(ExperimentError, match="already installed"):
        engine.install(sim)


def test_effective_view_direct_construction():
    dual = grey_line()
    view = EffectiveDualView(
        dual, frozenset(dual.nodes), frozenset({(0, 2)})
    )
    assert view.is_reliable_edge(2, 0)
    assert view.max_gprime_degree() == dual.max_gprime_degree()


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def test_scenarios_are_deterministic_per_seed():
    dual = grey_line(12)
    for kind in list_faults():
        build = FAULTS.get(kind)
        assert build(dual, rng(3)) == build(dual, rng(3)), kind
    a = FAULTS.get("crash_random")(dual, rng(1))
    b = FAULTS.get("crash_random")(dual, rng(2))
    assert a != b  # different stream, different plan


def test_crash_random_respects_fraction_window_and_survivors():
    dual = grey_line(10)
    plan = FAULTS.get("crash_random")(
        dual, rng(), fraction=0.4, horizon=50.0, earliest=0.1, latest=0.5
    )
    assert len(plan.node_events()) == 4
    for event in plan.events:
        assert event.kind is FaultKind.CRASH
        assert 5.0 <= event.time <= 25.0
    everyone = FAULTS.get("crash_random")(dual, rng(), fraction=1.0)
    assert len(everyone.node_events()) == 9  # min_survivors=1
    with pytest.raises(ExperimentError):
        FAULTS.get("crash_random")(dual, rng(), fraction=1.5)


def test_crash_random_can_schedule_recoveries():
    dual = grey_line(10)
    plan = FAULTS.get("crash_random")(
        dual, rng(), fraction=0.3, recover_after=5.0
    )
    kinds = [e.kind for e in plan.events]
    assert kinds.count(FaultKind.CRASH) == 3
    assert kinds.count(FaultKind.RECOVER) == 3


def test_crash_targeted_picks_the_highest_gprime_degree_hub():
    from repro.topology import star_network

    dual = star_network(8)  # node 0 is the hub
    plan = FAULTS.get("crash_targeted")(dual, rng(), count=1, at=0.5)
    assert [e.node for e in plan.events] == [0]
    assert plan.events[0].time == pytest.approx(50.0)
    by_id = FAULTS.get("crash_targeted")(dual, rng(), count=2, by="id")
    assert {e.node for e in by_id.events} == {6, 7}
    with pytest.raises(ExperimentError):
        FAULTS.get("crash_targeted")(dual, rng(), by="luck")


def test_flap_periodic_alternates_within_horizon():
    dual = grey_line(10)
    plan = FAULTS.get("flap_periodic")(
        dual, rng(), fraction=1.0, period=10.0, duty=0.4, horizon=40.0
    )
    assert plan.touched_edges() <= {
        canonical_edge(i, i + 2) for i in range(8)
    }
    assert all(e.time < 40.0 for e in plan.events)
    # Per edge the waveform strictly alternates UP, DOWN, UP, ...
    for edge in plan.touched_edges():
        waveform = [e.kind for e in plan.events if e.edge == edge]
        expected = [
            FaultKind.LINK_UP if i % 2 == 0 else FaultKind.LINK_DOWN
            for i in range(len(waveform))
        ]
        assert waveform == expected


def test_flap_random_generates_bounded_alternating_events():
    dual = grey_line(10)
    plan = FAULTS.get("flap_random")(
        dual, rng(), fraction=0.5, mean_up=2.0, mean_down=2.0, horizon=30.0
    )
    assert all(e.time < 30.0 for e in plan.events)
    with pytest.raises(ExperimentError):
        FAULTS.get("flap_random")(dual, rng(), mean_up=0.0)


def test_churn_poisson_absentees_all_join():
    dual = grey_line(12)
    plan = FAULTS.get("churn_poisson")(
        dual, rng(), join_fraction=0.5, leave_fraction=0.25, mean_gap=2.0
    )
    joins = {e.node for e in plan.events if e.kind is FaultKind.JOIN}
    assert joins == set(plan.initially_absent)
    assert len(joins) == 6
    leaves = {e.node for e in plan.events if e.kind is FaultKind.LEAVE}
    assert len(leaves) == 3
    assert joins.isdisjoint(leaves)
    validate_plan(plan, dual)


def test_none_scenario_is_empty():
    plan = FAULTS.get("none")(grey_line(), rng())
    assert plan.is_empty


# ----------------------------------------------------------------------
# Registry + spec integration
# ----------------------------------------------------------------------
def test_fault_registry_lists_builtins_and_rejects_duplicates():
    assert {"none", "crash_random", "crash_targeted", "flap_periodic"} <= set(
        list_faults()
    )
    with pytest.raises(ExperimentError, match="already has an entry"):

        @register_fault("crash_random")
        def _dup(dual, rng):  # pragma: no cover - never invoked
            raise AssertionError


def test_fault_spec_defaults_to_none_and_round_trips():
    spec = FaultSpec("none")
    assert not spec.enabled
    crash = FaultSpec("crash_random", {"fraction": 0.3})
    assert crash.enabled
    assert FaultSpec.from_dict(crash.to_dict()) == crash


def test_flap_periodic_duty_zero_means_never_up():
    dual = grey_line(10)
    plan = FAULTS.get("flap_periodic")(
        dual, rng(), fraction=1.0, period=10.0, duty=0.0, horizon=40.0
    )
    assert plan.is_empty  # never-up edges emit no (inverting) UP/DOWN pairs
    engine = FaultEngine(dual, plan)
    engine.advance_to(35.0)
    assert not engine.is_reliable_edge(0, 2)


def test_point_reliable_query_matches_the_full_view_under_flaps():
    dual = grey_line(10)
    plan = FAULTS.get("flap_random")(
        dual, rng(7), fraction=1.0, mean_up=2.0, mean_down=2.0, horizon=40.0
    )
    engine = FaultEngine(dual, plan)
    for t in (0.0, 5.0, 13.0, 27.0, 40.0):
        engine.advance_to(t)
        view = engine.view()
        for v in dual.nodes:
            assert engine.effective_reliable_neighbors(v) == view.reliable_neighbors(v)
