"""Unit tests for the MAC axiom checker.

Each test hand-builds an instance log that violates exactly one axiom and
asserts the checker flags it (and nothing else by accident).
"""

from __future__ import annotations

import pytest

from repro.errors import AxiomViolation
from repro.mac.axioms import assert_axioms, check_axioms
from repro.mac.messages import InstanceLog
from repro.topology import DualGraph, line_network

FACK = 10.0
FPROG = 1.0


def line(n=4):
    return line_network(n)


def valid_instance(log, sender=1, bcast=0.0, dual=None):
    """A fully legal instance on the 4-line: deliveries fast, ack in bound."""
    inst = log.new_instance(sender, "m", bcast)
    for v in (sender - 1, sender + 1):
        if dual is None or v in dual.reliable_adjacency:
            inst.rcv_times[v] = bcast + 0.5
    inst.ack_time = bcast + 0.6
    return inst


def test_valid_trace_passes():
    dual = line()
    log = InstanceLog()
    valid_instance(log, dual=dual)
    report = check_axioms(log, dual, FACK, FPROG)
    assert report.ok
    assert report.instances_checked == 1


def test_rcv_at_non_gprime_neighbor_flagged():
    dual = line()
    log = InstanceLog()
    inst = log.new_instance(0, "m", 0.0)
    inst.rcv_times[3] = 0.5  # node 3 is 3 hops away
    inst.rcv_times[1] = 0.5
    inst.ack_time = 0.6
    report = check_axioms(log, dual, FACK, FPROG)
    assert not report.ok
    assert any("not a G'-neighbor" in v for v in report.violations)


def test_rcv_at_sender_flagged():
    dual = line()
    log = InstanceLog()
    inst = log.new_instance(1, "m", 0.0)
    inst.rcv_times.update({0: 0.5, 2: 0.5, 1: 0.5})
    inst.ack_time = 0.6
    report = check_axioms(log, dual, FACK, FPROG)
    assert any("own sender" in v for v in report.violations)


def test_rcv_before_bcast_flagged():
    dual = line()
    log = InstanceLog()
    inst = log.new_instance(1, "m", 2.0)
    inst.rcv_times.update({0: 1.0, 2: 2.5})
    inst.ack_time = 2.6
    report = check_axioms(log, dual, FACK, FPROG)
    assert any("precedes bcast" in v for v in report.violations)


def test_rcv_after_ack_flagged():
    dual = line()
    log = InstanceLog()
    inst = log.new_instance(1, "m", 0.0)
    inst.rcv_times.update({0: 0.5, 2: 3.0})
    inst.ack_time = 2.0
    report = check_axioms(log, dual, FACK, FPROG)
    assert any("after ack" in v for v in report.violations)


def test_rcv_long_after_abort_flagged():
    dual = line()
    log = InstanceLog()
    inst = log.new_instance(1, "m", 0.0)
    inst.rcv_times[0] = 5.0
    inst.abort_time = 1.0
    report = check_axioms(log, dual, FACK, FPROG)
    assert any("eps_abort" in v for v in report.violations)


def test_rcv_just_after_abort_is_legal():
    dual = line()
    log = InstanceLog()
    inst = log.new_instance(1, "m", 0.0)
    inst.rcv_times[0] = 1.0 + 1e-7  # within eps_abort of the abort
    inst.abort_time = 1.0
    report = check_axioms(log, dual, FACK, FPROG)
    assert report.ok


def test_ack_without_g_neighbor_delivery_flagged():
    dual = line()
    log = InstanceLog()
    inst = log.new_instance(1, "m", 0.0)
    inst.rcv_times[0] = 0.5  # neighbor 2 never receives
    inst.ack_time = 0.6
    report = check_axioms(log, dual, FACK, FPROG)
    assert any("without rcv at G-neighbor 2" in v for v in report.violations)


def test_both_ack_and_abort_flagged():
    dual = line()
    log = InstanceLog()
    inst = valid_instance(log, dual=dual)
    inst.abort_time = 0.7
    report = check_axioms(log, dual, FACK, FPROG)
    assert any("both ack and abort" in v for v in report.violations)


def test_unterminated_instance_flagged_unless_allowed():
    dual = line()
    log = InstanceLog()
    inst = log.new_instance(1, "m", 0.0)
    inst.rcv_times.update({0: 0.5, 2: 0.5})
    report = check_axioms(log, dual, FACK, FPROG)
    assert any("never terminated" in v for v in report.violations)
    report2 = check_axioms(log, dual, FACK, FPROG, allow_pending=True)
    assert report2.ok


def test_ack_bound_violation_flagged():
    dual = line()
    log = InstanceLog()
    inst = log.new_instance(1, "m", 0.0)
    inst.rcv_times.update({0: 0.5, 2: 0.5})
    inst.ack_time = FACK + 1.0
    report = check_axioms(log, dual, FACK, FPROG)
    assert any("exceeds Fack" in v for v in report.violations)


def test_progress_violation_detected_for_starved_receiver():
    # Node 1 broadcasts for 5 > Fprog; node 2 receives nothing until 5.0.
    dual = line()
    log = InstanceLog()
    inst = log.new_instance(1, "m", 0.0)
    inst.rcv_times.update({0: 0.5, 2: 5.0})
    inst.ack_time = 5.0
    report = check_axioms(log, dual, FACK, FPROG)
    assert any("progress violation at receiver 2" in v for v in report.violations)


def test_progress_satisfied_by_early_delivery_from_same_instance():
    dual = line()
    log = InstanceLog()
    inst = log.new_instance(1, "m", 0.0)
    inst.rcv_times.update({0: 0.5, 2: 0.5})
    inst.ack_time = 8.0  # long-lived instance, but both received early
    report = check_axioms(log, dual, FACK, FPROG)
    assert report.ok


def test_progress_satisfied_by_contending_other_instance():
    """The Figure 2 loophole: a starved G-delivery is legal when a *different*
    still-pending G'-instance delivered early."""
    dual = DualGraph(
        4, [(0, 1), (2, 3)], [(2, 1)]
    )  # 0-1 reliable line; 2-1 unreliable; 2-3 reliable
    log = InstanceLog()
    starving = log.new_instance(0, "m0", 0.0)  # 0 -> 1 withheld until 8
    starving.rcv_times[1] = 8.0
    starving.ack_time = 8.0
    legalizer = log.new_instance(2, "m1", 0.0)  # delivers to 1 over G' early
    legalizer.rcv_times[1] = 0.3
    legalizer.rcv_times[3] = 0.3  # its own G-neighbor, for ack correctness
    legalizer.ack_time = 8.0
    report = check_axioms(log, dual, FACK, FPROG)
    assert report.ok


def test_progress_violated_once_legalizer_terminates_early():
    """Same as above but the G'-instance acks early: its old rcv no longer
    contends for later windows, so the starvation becomes illegal."""
    dual = DualGraph(4, [(0, 1), (2, 3)], [(2, 1)])
    log = InstanceLog()
    starving = log.new_instance(0, "m0", 0.0)
    starving.rcv_times[1] = 8.0
    starving.ack_time = 8.0
    legalizer = log.new_instance(2, "m1", 0.0)
    legalizer.rcv_times[1] = 0.3
    legalizer.rcv_times[3] = 0.3
    legalizer.ack_time = 0.4  # terminates immediately after delivering
    report = check_axioms(log, dual, FACK, FPROG)
    assert any("progress violation at receiver 1" in v for v in report.violations)


def test_zero_lifetime_instances_impose_no_progress_constraint():
    dual = line()
    log = InstanceLog()
    inst = log.new_instance(1, "m", 3.0)
    inst.rcv_times.update({0: 3.0, 2: 3.0})
    inst.ack_time = 3.0
    report = check_axioms(log, dual, FACK, FPROG)
    assert report.ok
    assert report.progress_windows_checked == 0


def test_check_progress_can_be_disabled():
    dual = line()
    log = InstanceLog()
    inst = log.new_instance(1, "m", 0.0)
    inst.rcv_times.update({0: 0.5, 2: 5.0})
    inst.ack_time = 5.0
    report = check_axioms(log, dual, FACK, FPROG, check_progress=False)
    assert report.ok


def test_assert_axioms_raises_with_summary():
    dual = line()
    log = InstanceLog()
    inst = log.new_instance(1, "m", 0.0)
    inst.rcv_times[0] = 0.5
    inst.ack_time = 0.6
    with pytest.raises(AxiomViolation, match="violations"):
        assert_axioms(log, dual, FACK, FPROG)


def test_report_counts_windows():
    dual = line()
    log = InstanceLog()
    inst = log.new_instance(1, "m", 0.0)
    inst.rcv_times.update({0: 0.5, 2: 0.5})
    inst.ack_time = 8.0
    report = check_axioms(log, dual, FACK, FPROG)
    assert report.progress_windows_checked == 2  # receivers 0 and 2
