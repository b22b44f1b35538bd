#!/usr/bin/env python
"""FMMB walkthrough: MIS election, gathering, and overlay spreading.

Runs the enhanced-model Fast Multi-Message Broadcast algorithm stage by
stage on a grey-zone network and prints what each subroutine produced: the
elected MIS, the overlay graph H (MIS pairs within 3 hops), message custody
after gathering, and the spreading phase count.  Ends with the comparison
that motivates the enhanced model: FMMB vs BMMB when acknowledgments are
expensive.

Run:  python examples/fmmb_overlay.py [seed]
"""

from __future__ import annotations

import sys

from repro import (
    BMMBNode,
    MessageAssignment,
    RandomSource,
    WorstCaseAckScheduler,
    fmmb_bound_time,
    random_geometric_network,
    run_fmmb,
    run_standard,
)
from repro.analysis.tables import render_table
from repro.core.fmmb.overlay import build_overlay, overlay_diameter

FPROG = 1.0
FACK = 200.0  # expensive acknowledgments: FMMB's target regime


def main(seed: int = 5) -> None:
    rng = RandomSource(seed, "fmmb-demo")
    net = random_geometric_network(
        50, side=3.5, c=1.6, grey_edge_probability=0.4, rng=rng.child("net")
    )
    k = 5
    assignment = MessageAssignment.one_each(net.nodes[:k])
    print(f"network: n={net.n}, D={net.diameter()}, "
          f"unreliable links={net.unreliable_edge_count}")
    print(f"workload: k={k} messages; model: Fprog={FPROG}, Fack={FACK}\n")

    result = run_fmmb(net, assignment, fprog=FPROG, seed=seed)

    # --- Stage 1: MIS ---------------------------------------------------
    mis = result.mis_result.mis
    overlay = build_overlay(net, mis)
    print(f"stage 1 (MIS, Lemmas 4.3-4.5): |MIS|={len(mis)}, "
          f"valid={result.mis_valid}, "
          f"rounds={result.mis_result.rounds_used} "
          f"({result.mis_result.phases_used} phases)")
    print(f"  members: {sorted(mis)}")
    h_edges = sum(map(len, overlay.values())) // 2
    print(f"  overlay H: {h_edges} edges, "
          f"D_H={overlay_diameter(overlay)} (vs D={net.diameter()})\n")

    # --- Stage 2: gather --------------------------------------------------
    gather = result.gather_result
    custody_rows = [
        {"MIS node": u, "messages held": ", ".join(sorted(owned)) or "-"}
        for u, owned in sorted(gather.owned.items())
        if owned
    ]
    print(f"stage 2 (gather, Lemma 4.6): complete={gather.complete}, "
          f"rounds={gather.rounds_used} ({gather.periods_used} periods)")
    print(render_table(custody_rows, title="message custody after gathering"))
    print()

    # --- Stage 3: spread --------------------------------------------------
    spread = result.spread_result
    print(f"stage 3 (spread, Lemmas 4.7-4.8): complete={spread.complete}, "
          f"rounds={spread.rounds_used} ({spread.phases_used} phases)")

    # --- Totals ------------------------------------------------------------
    budget = fmmb_bound_time(net.diameter(), k, net.n, FPROG, c=1.6)
    print(f"\nFMMB total: {result.total_rounds} rounds = "
          f"{result.total_time:.0f} time units "
          f"(Thm 4.1 budget shape: {budget:.0f})")

    bmmb = run_standard(
        net,
        assignment,
        lambda _: BMMBNode(),
        WorstCaseAckScheduler(),
        FACK,
        FPROG,
        keep_instances=False,
    )
    print(f"BMMB, worst-case acks (standard model): "
          f"{bmmb.completion_time:.0f} time units")
    winner = "FMMB" if result.completion_time < bmmb.completion_time else "BMMB"
    print(f"winner at Fack/Fprog={FACK / FPROG:.0f}: {winner} "
          "(FMMB pays no Fack at all)")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 5)
