"""Tests for the FMMB MIS subroutine (paper §4.2)."""

from __future__ import annotations

import pytest

from repro.core.fmmb.config import FMMBConfig, log2n
from repro.core.fmmb.mis import build_mis, is_independent, is_maximal, require_valid_mis
from repro.errors import AlgorithmError
from repro.mac.rounds import AdversarialRoundScheduler, RandomRoundScheduler
from repro.sim.rng import RandomSource
from repro.topology import (
    grid_network,
    line_network,
    random_geometric_network,
    ring_network,
    star_network,
)


def run_mis(dual, seed=0, config=None, adversarial=False):
    rng = RandomSource(seed, "mis-test")
    sched_cls = AdversarialRoundScheduler if adversarial else RandomRoundScheduler
    scheduler = sched_cls(rng.child("rounds"))
    return build_mis(dual, scheduler, rng.child("algo"), config)


@pytest.mark.parametrize("seed", range(5))
def test_mis_valid_on_line(seed):
    dual = line_network(20)
    result = run_mis(dual, seed)
    assert result.complete
    assert is_independent(dual, result.mis)
    assert is_maximal(dual, result.mis)


@pytest.mark.parametrize("seed", range(3))
def test_mis_valid_on_grid(seed):
    dual = grid_network(5, 5)
    result = run_mis(dual, seed)
    assert is_independent(dual, result.mis)
    assert is_maximal(dual, result.mis)


@pytest.mark.parametrize("seed", range(3))
def test_mis_valid_on_grey_zone_network(seed):
    rng = RandomSource(seed + 100)
    dual = random_geometric_network(
        30, side=3.0, c=1.6, grey_edge_probability=0.4, rng=rng
    )
    result = run_mis(dual, seed)
    assert is_independent(dual, result.mis)
    assert is_maximal(dual, result.mis)


def test_mis_on_star_is_hub_or_all_leaves():
    dual = star_network(8)
    result = run_mis(dual, seed=1)
    assert is_independent(dual, result.mis)
    assert is_maximal(dual, result.mis)
    assert result.mis == frozenset({0}) or result.mis == frozenset(range(1, 8))


def test_mis_on_single_node():
    from repro.topology import DualGraph

    dual = DualGraph(1, [])
    result = run_mis(dual, seed=0)
    assert result.mis == frozenset({0})


def test_mis_on_ring():
    dual = ring_network(11)
    result = run_mis(dual, seed=2)
    assert is_independent(dual, result.mis)
    assert is_maximal(dual, result.mis)
    # An MIS of an 11-ring has between 4 and 5 members.
    assert 4 <= len(result.mis) <= 5


def test_mis_survives_adversarial_round_scheduler():
    dual = line_network(15)
    result = run_mis(dual, seed=3, adversarial=True)
    assert is_independent(dual, result.mis)
    assert is_maximal(dual, result.mis)


def test_mis_rounds_within_paper_budget():
    """Oracle termination must not exceed the O(c⁴ log³ n) budget."""
    cfg = FMMBConfig()
    dual = grid_network(6, 6)
    result = run_mis(dual, seed=4, config=cfg)
    n = dual.n
    per_phase = cfg.election_rounds(n) + cfg.announcement_rounds(n)
    assert result.rounds_used <= cfg.max_mis_phases(n) * per_phase
    assert result.phases_used <= cfg.max_mis_phases(n)


def test_mis_typically_converges_much_faster_than_budget():
    cfg = FMMBConfig()
    dual = grid_network(6, 6)
    result = run_mis(dual, seed=5, config=cfg)
    budget_rounds = cfg.max_mis_phases(dual.n) * (
        cfg.election_rounds(dual.n) + cfg.announcement_rounds(dual.n)
    )
    assert result.rounds_used < budget_rounds / 3


def test_mis_rounds_grow_far_slower_than_n():
    """Lemmas 4.3-4.5: the MIS takes polylog(n) rounds, so growing n
    eightfold on grey-zone networks of constant density grows the mean
    round count by much less than eightfold."""

    def mean_rounds(n, side):
        rounds = []
        for seed in range(3):
            rng = RandomSource(seed, f"mis-growth-{n}")
            dual = random_geometric_network(
                n, side=side, c=1.6, grey_edge_probability=0.4, rng=rng
            )
            result = run_mis(dual, seed)
            assert is_independent(dual, result.mis) and is_maximal(dual, result.mis)
            rounds.append(result.rounds_used)
        return sum(rounds) / len(rounds)

    assert mean_rounds(160, 6.5) < 8 * mean_rounds(20, 2.0)


def test_mis_is_deterministic_given_seed():
    dual = grid_network(4, 4)
    a = run_mis(dual, seed=6)
    b = run_mis(dual, seed=6)
    assert a.mis == b.mis
    assert a.rounds_used == b.rounds_used


def test_fixed_budget_mode_runs_all_phases():
    cfg = FMMBConfig(oracle_termination=False, max_phases_factor=0.1)
    dual = line_network(6)
    result = run_mis(dual, seed=7, config=cfg)
    assert result.phases_used == cfg.max_mis_phases(dual.n)


def test_require_valid_mis_raises_on_bad_sets():
    dual = line_network(4)
    with pytest.raises(AlgorithmError, match="independent"):
        require_valid_mis(dual, frozenset({0, 1}))
    with pytest.raises(AlgorithmError, match="maximal"):
        require_valid_mis(dual, frozenset({0}))
    require_valid_mis(dual, frozenset({0, 2}))  # valid: covers 1 and 3


def test_log2n_clamps_small_n():
    assert log2n(1) == 1.0
    assert log2n(2) == 1.0
    assert log2n(16) == 4.0
