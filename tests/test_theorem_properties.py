"""Theorem-level property tests.

Theorem 3.4 (BMMB solves the MMB problem) has two safety clauses beyond
the liveness the other tests cover: every ``deliver(m)_j`` is unique per
(m, j) and follows an ``arrive(m)_i``; and nothing but injected messages is
ever delivered.  Theorem 4.1's guarantees must survive *any* admissible
round scheduler, not just the friendly one — we check FMMB end-to-end under
the adversarial round scheduler too.
"""

from __future__ import annotations

import pytest

from repro.core.bmmb import BMMBNode
from repro.core.fmmb import run_fmmb
from repro.ids import MessageAssignment
from repro.mac.rounds import AdversarialRoundScheduler
from repro.mac.schedulers import UniformDelayScheduler, WorstCaseAckScheduler
from repro.runtime.runner import run_standard
from repro.sim.rng import RandomSource
from repro.topology import (
    grid_network,
    line_network,
    random_geometric_network,
    with_arbitrary_unreliable,
)
from repro.topology.generators import line_graph

FACK = 20.0
FPROG = 1.0


# ----------------------------------------------------------------------
# Theorem 3.4 safety clauses
# ----------------------------------------------------------------------
def test_delivers_are_unique_and_only_for_injected_messages():
    rng = RandomSource(1)
    dual = with_arbitrary_unreliable(line_graph(10), 8, rng.child("t"))
    assignment = MessageAssignment.one_each([0, 4, 9])
    result = run_standard(
        dual,
        assignment,
        lambda _: BMMBNode(),
        UniformDelayScheduler(rng.child("s"), p_unreliable=1.0),
        FACK,
        FPROG,
    )
    injected = {m.mid for m in assignment.all_messages()}
    delivered_mids = {mid for (_, mid) in result.deliveries}
    assert delivered_mids <= injected
    # Uniqueness is structural (dict keyed by (node, mid)) *and* enforced:
    # the MAC raises on duplicates, so reaching here certifies clause (b).
    assert len(result.deliveries) == len(set(result.deliveries))


def test_every_deliver_follows_the_message_arrival():
    dual = line_network(8)
    assignment = MessageAssignment.single_source(3, 2)
    result = run_standard(
        dual,
        assignment,
        lambda _: BMMBNode(),
        WorstCaseAckScheduler(),
        FACK,
        FPROG,
    )
    for (node, mid), t in result.deliveries.items():
        assert t >= 0.0  # arrivals are at time 0; delivers cannot precede
        # The origin delivers at arrival; everyone else strictly later.
        if node != 3:
            assert t > 0.0


def test_bmmb_never_broadcasts_foreign_payloads():
    rng = RandomSource(2)
    dual = grid_network(3, 3)
    assignment = MessageAssignment.one_each([0, 8])
    result = run_standard(
        dual,
        assignment,
        lambda _: BMMBNode(),
        UniformDelayScheduler(rng),
        FACK,
        FPROG,
    )
    injected = {m.mid for m in assignment.all_messages()}
    for inst in result.instances:
        assert inst.payload.mid in injected


# ----------------------------------------------------------------------
# Theorem 4.1 under hostile round scheduling
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(4))
def test_fmmb_solves_under_adversarial_round_scheduler(seed):
    rng = RandomSource(seed + 500, "adv-net")
    dual = random_geometric_network(
        25, side=2.5, c=1.6, grey_edge_probability=0.4, rng=rng
    )
    assignment = MessageAssignment.one_each(dual.nodes[:3])
    scheduler = AdversarialRoundScheduler(
        RandomSource(seed, "adv-rounds")
    )
    result = run_fmmb(
        dual, assignment, fprog=FPROG, seed=seed, scheduler=scheduler
    )
    assert result.solved
    assert result.mis_valid


def test_fmmb_adversarial_rounds_cost_more_but_stay_bounded():
    from repro.analysis.bounds import fmmb_bound_rounds

    rng = RandomSource(7, "net")
    dual = random_geometric_network(
        30, side=2.5, c=1.6, grey_edge_probability=0.4, rng=rng
    )
    assignment = MessageAssignment.one_each(dual.nodes[:3])
    friendly = run_fmmb(dual, assignment, fprog=FPROG, seed=7)
    hostile = run_fmmb(
        dual,
        assignment,
        fprog=FPROG,
        seed=7,
        scheduler=AdversarialRoundScheduler(RandomSource(7, "rounds")),
    )
    assert friendly.solved and hostile.solved
    budget = fmmb_bound_rounds(dual.diameter(), assignment.k, dual.n, c=1.6)
    assert hostile.total_rounds <= 6 * budget
