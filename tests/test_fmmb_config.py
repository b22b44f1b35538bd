"""Tests for FMMB configuration budgets and subroutine mechanics."""

from __future__ import annotations

import pytest

from repro.analysis.bounds import FMMB_C
from repro.core.fmmb.config import FMMBConfig, log2n
from repro.core.fmmb.mis import _Announce, _Elect, build_mis
from repro.errors import ExperimentError
from repro.mac.rounds import Deliveries, Intents, RoundScheduler
from repro.sim.rng import RandomSource
from repro.topology.dualgraph import DualGraph


def test_default_activation_is_theta_inverse_c_squared():
    cfg = FMMBConfig(c=1.6)
    assert cfg.activation() == pytest.approx(min(0.4, 1 / 2.56))
    wide = FMMBConfig(c=4.0)
    assert wide.activation() == pytest.approx(1 / 16.0)


def test_bound_default_c_is_the_config_default():
    # The fmmb_rounds bound reads FMMB's default c from the bounds module,
    # so checks load no algorithm code; the two defaults must agree.
    assert FMMBConfig().c == FMMB_C


def test_explicit_activation_overrides_default():
    cfg = FMMBConfig(activation_probability=0.2)
    assert cfg.activation() == 0.2


def test_config_validation():
    with pytest.raises(ExperimentError):
        FMMBConfig(c=0.5)
    with pytest.raises(ExperimentError):
        FMMBConfig(activation_probability=0.0)
    with pytest.raises(ExperimentError):
        FMMBConfig(activation_probability=1.5)


def test_budgets_grow_with_n():
    cfg = FMMBConfig()
    assert cfg.election_rounds(256) > cfg.election_rounds(16)
    assert cfg.announcement_rounds(256) > cfg.announcement_rounds(16)
    assert cfg.max_mis_phases(256) > cfg.max_mis_phases(16)
    assert cfg.gather_periods(256, 4) > cfg.gather_periods(16, 4)
    assert cfg.spread_periods_per_phase(256) > cfg.spread_periods_per_phase(16)


def test_election_rounds_match_paper_factor():
    cfg = FMMBConfig(election_bits_factor=4)
    assert cfg.election_rounds(16) == 16  # 4 * log2(16)


def test_gather_budget_linear_in_k():
    cfg = FMMBConfig()
    small = cfg.gather_periods(64, 2)
    large = cfg.gather_periods(64, 32)
    assert large > 4 * small


def test_spread_phase_budget_covers_dh_plus_k():
    cfg = FMMBConfig(spread_phase_slack=5)
    assert cfg.spread_phase_budget(10, 4, 64) >= 10 + 4 + 5


def test_budgets_are_positive_for_tiny_n():
    cfg = FMMBConfig()
    assert cfg.election_rounds(1) >= 4
    assert cfg.announcement_rounds(1) >= 4
    assert cfg.gather_periods(1, 1) >= 4
    assert log2n(0) == 1.0


class _ScriptedRoundScheduler(RoundScheduler):
    """Delivers a fixed scripted choice; used to force MIS edge cases."""

    def __init__(self, script):
        self.script = script  # round_index -> {receiver: sender}

    def deliveries(self, round_index: int, intents: Intents, dual: DualGraph) -> Deliveries:
        out: Deliveries = {}
        for receiver, sender in self.script.get(round_index, {}).items():
            if sender in intents:
                out[receiver] = [(sender, intents[sender])]
        return out


def test_mis_silencing_by_unreliable_neighbor_counts():
    """Election: receiving *any* message — even from a G'-only neighbor —
    temporarily deactivates a silent node (paper §4.2)."""
    # 0—1 reliable; 2 is G'-only neighbor of both.
    dual = DualGraph(3, [(0, 1)], [(0, 2), (1, 2)])
    rng = RandomSource(1, "mis-edge")
    result = build_mis(dual, _ScriptedRoundScheduler({}), rng)
    # With no deliveries ever, every silent node stays active; eventually
    # all nodes join (script delivers nothing, so no one is silenced).
    # Independence then fails for 0-1 — which is exactly why delivery
    # matters; here we only assert the subroutine terminates.
    assert result.rounds_used > 0


def test_mis_announcement_from_unreliable_neighbor_is_ignored():
    """Only announcements from *G*-neighbors cover a node (paper §4.2)."""
    from repro.core.fmmb.mis import is_independent, is_maximal
    from repro.mac.rounds import RandomRoundScheduler

    # Long line where G'-only shortcuts exist: coverage must still come
    # from G-neighbors, so maximality holds w.r.t. G.
    line = [(i, i + 1) for i in range(8)]
    dual = DualGraph(9, line, [(0, 8)])  # long unreliable shortcut
    rng = RandomSource(2, "mis-edge2")
    result = build_mis(dual, RandomRoundScheduler(rng.child("r")), rng.child("m"))
    assert is_independent(dual, result.mis)
    assert is_maximal(dual, result.mis)


def test_payload_types_are_distinct():
    elect = _Elect(bits=(1, 0), vid=3)
    announce = _Announce(vid=3)
    assert elect != announce
    assert elect.vid == announce.vid
