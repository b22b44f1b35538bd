"""Full-stack integration tests: the paper's headline comparisons."""

from __future__ import annotations

import pytest

from repro.analysis.bounds import (
    bmmb_arbitrary_bound,
    bmmb_gg_bound,
    bmmb_r_restricted_bound,
    figure2_lower_bound,
)
from repro.core.fmmb import run_fmmb
from repro.ids import MessageAssignment
from repro.mac.axioms import check_axioms
from repro.mac.schedulers import (
    ContentionScheduler,
    GreyZoneAdversary,
    UniformDelayScheduler,
    WorstCaseAckScheduler,
)
from repro.sim.rng import RandomSource
from repro.topology import (
    random_geometric_network,
    with_r_restricted_unreliable,
)
from repro.topology.adversarial import parallel_lines_network
from repro.topology.generators import line_graph

from tests.conftest import FACK, FPROG, run_bmmb, single_source


def test_figure1_row_standard_all_three_cells_ordered():
    """On one line workload, measured times respect the Figure 1 ordering:
    G'=G ≤ r-restricted ≤ arbitrary-G' worst case."""
    rng = RandomSource(100)
    k = 5
    base = line_graph(16)
    gg = run_bmmb(
        with_r_restricted_unreliable(base, 1, 0.0, rng.child("a")),
        single_source(k),
        WorstCaseAckScheduler(),
    )
    r3 = run_bmmb(
        with_r_restricted_unreliable(base, 3, 0.6, rng.child("b")),
        single_source(k),
        WorstCaseAckScheduler(rng.child("s1"), p_unreliable=0.5),
    )
    assert gg.solved and r3.solved
    d = 15
    assert gg.completion_time <= bmmb_gg_bound(d, k, FACK, FPROG) + 1e-9
    assert r3.completion_time <= bmmb_r_restricted_bound(d, k, 3, FACK, FPROG) + 1e-9
    assert r3.completion_time <= bmmb_arbitrary_bound(d, k, FACK) + 1e-9


def test_greyzone_gap_adversary_vs_benign_on_figure2_network():
    """The Θ((D+k)Fack) vs O(DFprog + kFack) gap, measured on one network."""
    net = parallel_lines_network(15)
    rng = RandomSource(101)
    adversarial = run_bmmb(net.dual, net.assignment, GreyZoneAdversary(net))
    benign = run_bmmb(net.dual, net.assignment, UniformDelayScheduler(rng))
    assert adversarial.completion_time >= figure2_lower_bound(15, FACK)
    assert benign.completion_time <= bmmb_arbitrary_bound(14, 2, FACK)
    assert adversarial.completion_time > 10 * benign.completion_time


def test_fmmb_beats_bmmb_when_fack_dominates():
    """The enhanced-model payoff: with Fack/Fprog large, FMMB's Fack-free
    bound wins against BMMB under worst-case acknowledgments."""
    rng = RandomSource(102)
    dual = random_geometric_network(
        30, side=2.5, c=1.6, grey_edge_probability=0.4, rng=rng.child("n")
    )
    k = 6
    sources = dual.nodes[:k]
    assignment = MessageAssignment.one_each(sources)
    fack = 500.0  # huge ack latency: the regime FMMB targets
    bmmb = run_bmmb(dual, assignment, WorstCaseAckScheduler(), fack=fack)
    fmmb = run_fmmb(dual, assignment, fprog=FPROG, seed=102)
    assert bmmb.solved and fmmb.solved
    assert fmmb.completion_time < bmmb.completion_time


def test_bmmb_beats_fmmb_when_fack_is_cheap():
    """And the flip side: when Fack ≈ Fprog, BMMB's simplicity wins."""
    rng = RandomSource(103)
    dual = random_geometric_network(
        30, side=2.5, c=1.6, grey_edge_probability=0.4, rng=rng.child("n")
    )
    assignment = MessageAssignment.one_each(dual.nodes[:4])
    bmmb = run_bmmb(
        dual, assignment, UniformDelayScheduler(rng.child("s")), fack=2.0
    )
    fmmb = run_fmmb(dual, assignment, fprog=FPROG, seed=103)
    assert bmmb.completion_time < fmmb.completion_time


def test_full_stack_axiom_certification_on_grey_zone():
    rng = RandomSource(104)
    dual = random_geometric_network(
        20, side=2.0, c=1.6, grey_edge_probability=0.5, rng=rng.child("n")
    )
    assignment = MessageAssignment.one_each(dual.nodes[:3])
    result = run_bmmb(dual, assignment, ContentionScheduler(rng.child("s")))
    assert result.solved
    report = check_axioms(result.instances, dual, FACK, FPROG)
    assert report.ok, report.violations[:3]


def test_unreliability_structure_not_quantity():
    """The paper's discussion point: many short G' edges barely hurt, while
    the adversary needs only ~2 long edges per hop to force D·Fack."""
    rng = RandomSource(105)
    # Many unreliable edges, all short (r<=4): still fast under worst-case
    # acknowledgments.
    dense_short = with_r_restricted_unreliable(
        line_graph(15), r=4, probability=1.0, rng=rng.child("a")
    )
    k = 2
    short_result = run_bmmb(
        dense_short,
        single_source(k),
        WorstCaseAckScheduler(rng.child("s"), p_unreliable=0.5),
    )
    # Few unreliable edges, but long-range (Figure 2): slow.
    net = parallel_lines_network(15)
    long_result = run_bmmb(net.dual, net.assignment, GreyZoneAdversary(net))
    assert dense_short.unreliable_edge_count > net.dual.unreliable_edge_count
    assert short_result.completion_time < long_result.completion_time


def test_contention_star_footnote2_gap():
    """Fprog ≪ Fack in action: time for the hub to hear *some* message stays
    ~Fprog while the time to drain all acks scales with the star size."""
    rng = RandomSource(106)
    from repro.topology import star_network

    n = 10
    dual = star_network(n)
    assignment = MessageAssignment.one_each(list(range(1, n)))
    fack = 3 * n * FPROG
    result = run_bmmb(dual, assignment, ContentionScheduler(rng), fack=fack)
    assert result.solved
    first_hub_rcv = min(
        rtime
        for inst in result.instances
        for v, rtime in inst.rcv_times.items()
        if v == 0
    )
    last_initial_ack = max(
        inst.ack_time for inst in result.instances if inst.bcast_time == 0.0
    )
    assert first_hub_rcv <= FPROG
    assert last_initial_ack >= 3 * FPROG


@pytest.mark.parametrize("seed", range(3))
def test_end_to_end_reproducibility(seed):
    rng_a = RandomSource(seed, "e2e")
    rng_b = RandomSource(seed, "e2e")
    dual_a = random_geometric_network(15, 2.0, 1.6, 0.4, rng_a.child("n"))
    dual_b = random_geometric_network(15, 2.0, 1.6, 0.4, rng_b.child("n"))
    res_a = run_bmmb(dual_a, single_source(2), UniformDelayScheduler(rng_a.child("s")))
    res_b = run_bmmb(dual_b, single_source(2), UniformDelayScheduler(rng_b.child("s")))
    assert res_a.completion_time == res_b.completion_time
    assert res_a.deliveries == res_b.deliveries
