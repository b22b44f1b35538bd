"""Tests for persistent observation journals (repro.runtime.journal)."""

from __future__ import annotations

import gzip
import hashlib
import json

import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    AlgorithmSpec,
    ExperimentSpec,
    ModelSpec,
    SchedulerSpec,
    TopologySpec,
    WorkloadSpec,
    run,
)
from repro.runtime.journal import (
    JOURNAL_FORMAT,
    JOURNAL_KIND,
    dump_journal,
    iter_journal,
    journal_lines,
    loads_journal,
    read_journal,
    write_journal,
)
from repro.runtime.observations import Observation
from repro.sim.rng import RandomSource


def _spec(seed=3, **overrides):
    fields = dict(
        name="test-journal",
        topology=TopologySpec(
            "random_geometric",
            {"n": 10, "side": 2.0, "c": 1.6, "grey_edge_probability": 0.4},
        ),
        algorithm=AlgorithmSpec("bmmb"),
        scheduler=SchedulerSpec("uniform"),
        workload=WorkloadSpec("one_each", {"k": 2}),
        model=ModelSpec(),
        seed=seed,
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


def _stream():
    return (
        Observation(time=0.0, kind="bcast", node=0, key="m0", ref=0),
        Observation(time=0.5, kind="rcv", node=1, key="m0", ref=0),
        Observation(
            time=1.0, kind="deliver", node=1, key="m0", ref=-1, value=1.0
        ),
        Observation(time=1.0, kind="ack", node=0, key="m0", ref=0),
    )


# ----------------------------------------------------------------------
# Format
# ----------------------------------------------------------------------
def test_round_trip_preserves_stream_and_meta(tmp_path):
    path = tmp_path / "run.obs.jsonl.gz"
    count = write_journal(path, _stream(), meta={"spec_key": "abc"})
    assert count == 4
    journal = read_journal(path)
    assert journal.format == JOURNAL_FORMAT
    assert journal.meta == {"spec_key": "abc"}
    assert journal.observations == _stream()
    assert tuple(iter_journal(path)) == _stream()


def test_dump_is_byte_deterministic_and_order_canonical():
    stream = _stream()
    shuffled = (stream[2], stream[0], stream[3], stream[1])
    assert dump_journal(stream) == dump_journal(shuffled)
    assert dump_journal(stream) == dump_journal(stream)


def test_profile_records_excluded_by_default():
    stream = _stream() + (
        Observation(time=1.0, kind="profile", key="wall_s", ref=-1, value=2.5),
    )
    journal = loads_journal(
        gzip.decompress(dump_journal(stream)).decode("utf-8")
    )
    assert all(obs.kind != "profile" for obs in journal.observations)
    kept = loads_journal(
        gzip.decompress(dump_journal(stream, include_profile=True)).decode(
            "utf-8"
        )
    )
    assert any(obs.kind == "profile" for obs in kept.observations)


def test_non_finite_values_survive_strict_json():
    stream = (
        Observation(
            time=0.0, kind="round", key="r", ref=-1, value=float("inf")
        ),
    )
    text = gzip.decompress(dump_journal(stream)).decode("utf-8")
    for line in text.splitlines():
        json.loads(line)  # strict JSON: would reject bare Infinity
    loaded = loads_journal(text)
    assert loaded.observations[0].value == float("inf")


def test_plain_jsonl_journal_loads(tmp_path):
    header = {
        "format": JOURNAL_FORMAT,
        "kind": JOURNAL_KIND,
        "count": 1,
        "meta": {},
    }
    path = tmp_path / "hand.jsonl"
    path.write_text(
        json.dumps(header)
        + "\n"
        + json.dumps([0.0, "bcast", 0, "m0", 0, 1.0])
        + "\n"
    )
    journal = read_journal(path)
    assert len(journal) == 1
    assert journal.observations[0].kind == "bcast"


def test_malformed_journals_are_rejected(tmp_path):
    bad_kind = json.dumps({"format": 1, "kind": "nope", "count": 0, "meta": {}})
    with pytest.raises(ExperimentError, match="not an observation journal"):
        loads_journal(bad_kind)
    bad_count = json.dumps(
        {"format": 1, "kind": JOURNAL_KIND, "count": 5, "meta": {}}
    )
    with pytest.raises(ExperimentError, match="declares 5"):
        loads_journal(bad_count)
    with pytest.raises(ExperimentError, match="6-element"):
        loads_journal(
            json.dumps(
                {"format": 1, "kind": JOURNAL_KIND, "count": 1, "meta": {}}
            )
            + '\n["short"]'
        )
    with pytest.raises(ExperimentError, match="empty journal"):
        loads_journal("")
    truncated = tmp_path / "trunc.obs.jsonl.gz"
    truncated.write_bytes(dump_journal(_stream())[:20])
    with pytest.raises(ExperimentError, match="corrupt journal frame"):
        read_journal(truncated)


def _one_row_journal(row: str, **header_fields) -> str:
    header = {"format": 1, "kind": JOURNAL_KIND, "count": 1, "meta": {}}
    header.update(header_fields)
    return json.dumps(header) + "\n" + row + "\n"


@pytest.mark.parametrize(
    "text, lineno",
    [
        (_one_row_journal('["abc","bcast",0,"m",0,1.0]'), 2),
        (_one_row_journal('[0.0,"bcast",{},"m",0,1.0]'), 2),
        (_one_row_journal('[0.0,"bcast",0,"m","x",1.0]'), 2),
        (_one_row_journal('[0.0,"bcast",0,"m",0,null]'), 2),
        (_one_row_journal('[0.0,"bcast",0,"m",Infinity,1.0]'), 2),
        (_one_row_journal('[0.0,"nope",0,"m",0,1.0]'), 2),
        (_one_row_journal('[0.0,"bcast",0,"m",0,1.0]', format="x"), 1),
        (_one_row_journal('[0.0,"bcast",0,"m",0,1.0]', count=[1]), 1),
        (_one_row_journal('[0.0,"bcast",0,"m",0,1.0]', count=float("inf")), 1),
        (_one_row_journal('[0.0,"bcast",0,"m",0,1.0] [1]'), 2),
        (_one_row_journal("[" * 100_000), 2),
    ],
    ids=[
        "str-time",
        "dict-node",
        "str-ref",
        "null-value",
        "infinite-ref",
        "unknown-kind",
        "str-format",
        "list-count",
        "infinite-count",
        "trailing-data",
        "deep-nesting",
    ],
)
def test_malformed_rows_raise_the_typed_error(text, lineno):
    with pytest.raises(ExperimentError, match=f"^bad.jsonl:{lineno}: "):
        loads_journal(text, where="bad.jsonl")


def test_bad_row_is_located_after_good_rows():
    good = json.dumps([0.0, "bcast", 0, "m0", 0, 1.0])
    text = _one_row_journal(good, count=3).rstrip("\n")
    with pytest.raises(ExperimentError, match="^j:4: bad journal line"):
        loads_journal(text + "\n" + good + "\n[0.0,", where="j")
    with pytest.raises(ExperimentError, match="^j:3: .*unknown observation kind"):
        loads_journal(text + '\n[0.0,"nope",0,"m",0,1.0]\n' + good, where="j")


def test_dump_journal_bytes_are_pinned():
    """The exact bytes of a fixed stream, as the format has always written them.

    The stream covers every encoding edge: non-finite times and values,
    ``-0.0``, an int time and value, node-less markers, profile records,
    non-ASCII text in keys and meta, and unsorted meta keys.  Any change
    to these digests breaks byte identity with every journal on disk.
    """
    inf, nan = float("inf"), float("nan")
    stream = (
        Observation(time=4.0, kind="profile", key="wall_s", ref=-1, value=2.5),
        Observation(time=4.0, kind="profile", key="heap_blocks_delta", value=nan),
        Observation(time=inf, kind="abort", node=2, key="m1", ref=1, value=nan),
        Observation(time=3, kind="slot", key="slots", value=-inf),
        Observation(time=2.0, kind="round", key="rounds", value=inf),
        Observation(time=2.0, kind="ack", node=0, key="m0", ref=0),
        Observation(time=1.5, kind="deliver", node=1, key="m0", value=2),
        Observation(time=0.1 + 0.2, kind="rcv", node=1, key="m0", ref=0, value=-0.0),
        Observation(time=0.1, kind="link_down", key="1-2", value=1e-300),
        Observation(time=0.0, kind="bcast", node=0, key="m0", ref=0),
        Observation(time=0.0, kind="arrival", node=0, key='mé"0', value=0.0),
    )
    meta = {"spec_key": "ab" * 32, "z": [1, 2.5, None], "a": {"é": "ü"}}
    digests = {
        False: "7cd5d9c6b4b0bec3ca89dcf795b9010129b80d0d2e5c62e0b81d6e1da3439ceb",
        True: "c029e889291e20d6371abb23ce404bc0989586427dbc41992bbeb99d67badca0",
    }
    for include_profile, digest in digests.items():
        data = dump_journal(stream, meta=meta, include_profile=include_profile)
        assert hashlib.sha256(data).hexdigest() == digest, include_profile


def test_write_journal_returns_the_kept_count(tmp_path):
    stream = _stream() + (
        Observation(time=1.0, kind="profile", key="wall_s", ref=-1, value=2.5),
    )
    path = tmp_path / "j.obs.jsonl.gz"
    assert write_journal(path, stream) == 4
    assert path.read_bytes() == dump_journal(stream)
    assert write_journal(path, stream, include_profile=True) == 5


def test_unsupported_format_version_rejected():
    header = json.dumps(
        {"format": 99, "kind": JOURNAL_KIND, "count": 0, "meta": {}}
    )
    with pytest.raises(ExperimentError, match="format 99"):
        loads_journal(header)


def test_journal_lines_header_first_sorted_keys():
    lines = list(journal_lines(_stream(), meta={"b": 1, "a": 2}))
    header = json.loads(lines[0])
    assert header["count"] == len(lines) - 1
    assert lines[0].index('"a"') < lines[0].index('"b"')


# ----------------------------------------------------------------------
# run(spec, journal=...)
# ----------------------------------------------------------------------
def test_run_writes_a_loadable_journal_with_the_spec(tmp_path):
    spec = _spec()
    path = tmp_path / "run.obs.jsonl.gz"
    result = run(spec, keep_raw=False, journal=path)
    assert result.observations == ()  # journal mode does not leak the stream
    journal = read_journal(path)
    assert len(journal) > 0
    assert ExperimentSpec.from_dict(journal.meta["spec"]) == spec


def test_run_journal_matches_keep_raw_stream(tmp_path):
    spec = _spec()
    path = tmp_path / "run.obs.jsonl.gz"
    run(spec, keep_raw=False, journal=path)
    raw = run(spec, keep_raw=True)
    expected = tuple(
        obs for obs in raw.observations if obs.kind != "profile"
    )
    assert read_journal(path).observations == expected
    # Re-journaling the same spec+seed reproduces the exact bytes.
    again = tmp_path / "again.obs.jsonl.gz"
    run(spec, keep_raw=False, journal=again)
    assert path.read_bytes() == again.read_bytes()


def test_run_rejects_journal_with_windowed_probe(tmp_path):
    spec = _spec(
        workload=WorkloadSpec(
            "open_arrivals", {"process": "poisson", "rate": 0.02, "count": 5}
        )
    )
    with pytest.raises(ExperimentError, match="journal"):
        run(spec, window=10.0, journal=tmp_path / "x.gz")


# ----------------------------------------------------------------------
# Profiling observations
# ----------------------------------------------------------------------
def test_keep_raw_runs_carry_profile_gauges_at_stream_end():
    result = run(_spec(), keep_raw=True)
    profile = {
        obs.key: obs.value
        for obs in result.observations
        if obs.kind == "profile"
    }
    for gauge in (
        "wall_setup_s",
        "wall_execute_s",
        "events_per_s",
        "heap_blocks_delta",
        "rng_draws",
    ):
        assert gauge in profile, gauge
    assert profile["wall_execute_s"] >= 0.0
    # Hot paths bind ``raw`` RNG methods, which the wrapper-level draw
    # tally deliberately skips — so 0 is a legitimate reading here.
    assert profile["rng_draws"] >= 0.0
    times = [obs.time for obs in result.observations]
    assert times == sorted(times)


def test_profile_gauges_stay_out_of_metrics():
    spec = _spec()
    raw = run(spec, keep_raw=True)
    summary = run(spec, keep_raw=False)
    assert raw.metrics == summary.metrics
    assert not any(key.startswith("wall_") for key in raw.metrics)


# ----------------------------------------------------------------------
# RNG draw accounting
# ----------------------------------------------------------------------
def test_random_source_counts_draws_across_children():
    root = RandomSource(7)
    child = root.child("a")
    before = root.draws
    child.random()
    root.randint(0, 5)
    child.child("b").random()
    assert root.draws == before + 3
    assert child.draws == root.draws  # one shared counter per tree
