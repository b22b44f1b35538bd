"""Tests for rebuilding instance logs from observation streams and the
journal-based trace tooling (``repro trace summary``)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import ExperimentError
from repro.mac.axioms import check_axioms
from repro.mac.messages import InstanceLog
from repro.mac.schedulers import UniformDelayScheduler
from repro.runtime.journal import journal_lines, read_journal, write_journal
from repro.runtime.observations import (
    MAC_KINDS,
    OBSERVATION_KINDS,
    Observation,
    Probe,
    instance_log,
)
from repro.sim.rng import RandomSource
from repro.topology import line_network

from tests.conftest import FACK, FPROG, run_bmmb, single_source


def sample_log():
    log = InstanceLog()
    a = log.new_instance(1, "m0", 0.0)
    a.rcv_times.update({0: 0.4, 2: 0.6})
    a.ack_time = 0.7
    b = log.new_instance(2, "m1", 0.5)
    b.rcv_times.update({1: 0.9})
    b.abort_time = 1.0
    return log


def stream_of(instances) -> tuple[Observation, ...]:
    probe = Probe()
    probe.observe_instances(instances)
    return probe.events()


def fields(log) -> list[tuple]:
    """Every field ``instance_log`` restores, per instance (payload as tag)."""
    return [
        (
            inst.iid,
            inst.sender,
            str(getattr(inst.payload, "mid", inst.payload)),
            inst.bcast_time,
            dict(inst.rcv_times),
            inst.ack_time,
            inst.abort_time,
        )
        for inst in log
    ]


def summary_row(capsys, path) -> dict[str, str]:
    """The single data row ``repro trace summary`` prints for ``path``."""
    assert main(["trace", "summary", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    header, row = lines[1], lines[-1]
    return dict(
        zip(
            (cell.strip() for cell in header.split(" | ")),
            (cell.strip() for cell in row.split(" | ")),
        )
    )


# ----------------------------------------------------------------------
# Stream order
# ----------------------------------------------------------------------
def test_stream_orders_chronologically_with_kind_ties():
    events = stream_of(sample_log())
    times = [e.time for e in events]
    assert times == sorted(times)
    assert (events[0].time, events[0].kind) == (0.0, "bcast")
    assert "abort" in {e.kind for e in events}


def test_stream_orders_bcast_before_same_time_rcv():
    log = InstanceLog()
    inst = log.new_instance(0, "m", 2.0)
    inst.rcv_times[1] = 2.0
    inst.ack_time = 2.0
    assert [e.kind for e in stream_of(log)] == ["bcast", "rcv", "ack"]


# ----------------------------------------------------------------------
# Equivalence: the raw instance log and a run's journaled MAC events
# ----------------------------------------------------------------------
def test_flatten_matches_from_observations_field_for_field():
    """Flattening a run's raw instance log into a stream gives exactly the
    MAC observations the run emitted, every field included."""
    from repro.experiments import run, smoke_spec

    result = run(smoke_spec("standard"))
    from_stream = tuple(o for o in result.observations if o.kind in MAC_KINDS)
    from_instances = stream_of(result.raw.instances)
    assert from_stream
    assert from_stream == from_instances


# ----------------------------------------------------------------------
# Journal round trips through instance_log
# ----------------------------------------------------------------------
def test_trace_round_trip(tmp_path):
    path = tmp_path / "trace.obs.jsonl.gz"
    assert write_journal(path, stream_of(sample_log())) == 7
    loaded = instance_log(read_journal(path).observations)
    assert len(loaded) == 2
    assert loaded[0].rcv_times == {0: 0.4, 2: 0.6}
    assert loaded[0].ack_time == 0.7
    assert loaded[1].abort_time == 1.0
    assert loaded[1].payload == "m1"


def test_round_tripped_trace_still_passes_axiom_checker(tmp_path):
    rng = RandomSource(5)
    dual = line_network(8)
    result = run_bmmb(dual, single_source(3), UniformDelayScheduler(rng))
    path = tmp_path / "run.obs.jsonl.gz"
    write_journal(path, stream_of(result.instances))
    reloaded = instance_log(read_journal(path).observations)
    report = check_axioms(reloaded, dual, FACK, FPROG)
    assert report.ok, report.violations[:3]


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(next(journal_lines((), None)) + "\n{not json}\n")
    with pytest.raises(ExperimentError, match="bad journal line"):
        read_journal(path)


def test_empty_trace_file_loads_empty_log(tmp_path):
    path = tmp_path / "empty.obs.jsonl.gz"
    write_journal(path, ())
    assert len(instance_log(read_journal(path).observations)) == 0


def test_to_instance_log_rejects_synthesized_traces():
    def obs(kind, ref, node=0, time=0.0):
        return Observation(time=time, kind=kind, node=node, key="m", ref=ref)

    bcast = obs("bcast", 0)
    cases = {
        "contiguous": [obs("bcast", 1)],
        "0 bcast": [obs("rcv", 0, node=1)],
        "2 bcast": [bcast, obs("bcast", 0, node=1)],
        "without a node": [obs("bcast", 0, node=None)],
        "second rcv at node 1": [bcast, obs("rcv", 0, 1), obs("rcv", 0, 1, 0.5)],
        "second ack": [bcast, obs("ack", 0), obs("ack", 0, time=1.0)],
        "second abort": [bcast, obs("abort", 0), obs("abort", 0, time=1.0)],
    }
    for reason, stream in cases.items():
        with pytest.raises(ExperimentError, match=reason):
            instance_log(stream)
    # One ack and one abort is representable; abort_accounting flags it.
    both = instance_log([bcast, obs("ack", 0), obs("abort", 0)])
    assert (both[0].ack_time, both[0].abort_time) == (0.0, 0.0)


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
_times = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


@st.composite
def instance_logs(draw) -> InstanceLog:
    log = InstanceLog()
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        bcast = draw(_times)
        inst = log.new_instance(
            draw(st.integers(0, 9)), draw(st.sampled_from(["m0", "m1", 7])), bcast
        )
        for receiver in draw(st.sets(st.integers(0, 9), max_size=5)):
            inst.rcv_times[receiver] = bcast + draw(_times)
        terminator = draw(st.sampled_from(["ack", "abort", "both", None]))
        if terminator in ("ack", "both"):
            inst.ack_time = bcast + draw(_times)
        if terminator in ("abort", "both"):
            inst.abort_time = bcast + draw(_times)
    return log


@settings(max_examples=150, deadline=None)
@given(instance_logs())
def test_instance_log_inverts_observe_instances(log):
    assert fields(instance_log(stream_of(log))) == fields(log)


_observations = st.builds(
    Observation,
    time=st.floats(allow_nan=True, allow_infinity=True),
    kind=st.sampled_from(OBSERVATION_KINDS),
    node=st.none() | st.integers(-2, 5),
    key=st.sampled_from(["", "m0", "m1"]),
    ref=st.integers(-2, 5),
    value=st.just(1.0),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_observations, max_size=12))
def test_instance_log_rebuilds_or_fails_typed(stream):
    try:
        log = instance_log(stream)
    except ExperimentError:
        return
    assert isinstance(log, InstanceLog)
    mac_refs = {o.ref for o in stream if o.kind in MAC_KINDS}
    assert len(log) == len(mac_refs)


# ----------------------------------------------------------------------
# repro trace summary
# ----------------------------------------------------------------------
def test_summarize_trace(tmp_path, capsys):
    path = tmp_path / "sample.jsonl"
    path.write_text("\n".join(journal_lines(stream_of(sample_log()))) + "\n")
    row = summary_row(capsys, path)
    assert row["instances"] == "2"
    assert row["aborted"] == "1"
    assert row["span"] == "1"
    assert row["mean ack latency"] == "0.7"


def test_summarize_empty_trace_rejected(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["trace", "summary", str(empty)]) == 2
    assert "empty journal" in capsys.readouterr().err
    # A journal without MAC events summarizes, minus the MAC columns.
    bare = tmp_path / "bare.jsonl"
    bare.write_text(next(journal_lines(())) + "\n")
    assert "instances" not in summary_row(capsys, bare)


def test_summarize_trace_equivalence_on_a_real_run(tmp_path, capsys):
    from repro.experiments import run, smoke_spec

    result = run(smoke_spec("standard"))
    path = tmp_path / "run.obs.jsonl.gz"
    write_journal(path, result.observations)
    row = summary_row(capsys, path)
    instances = list(result.raw.instances)
    times = [
        t
        for inst in instances
        for t in (
            inst.bcast_time,
            *inst.rcv_times.values(),
            inst.ack_time,
            inst.abort_time,
        )
        if t is not None
    ]
    latencies = [
        inst.ack_time - inst.bcast_time
        for inst in instances
        if inst.ack_time is not None
    ]
    assert int(row["instances"]) == len(instances)
    assert int(row["aborted"]) == sum(i.abort_time is not None for i in instances)
    assert float(row["span"]) == pytest.approx(max(times) - min(times), abs=5e-4)
    assert float(row["mean ack latency"]) == pytest.approx(
        sum(latencies) / len(latencies), abs=5e-4
    )
