"""Tests for persistent observation journals (repro.runtime.journal)."""

from __future__ import annotations

import gzip
import hashlib
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExperimentError
from repro.experiments import (
    AlgorithmSpec,
    ExperimentSpec,
    ModelSpec,
    RunOptions,
    SchedulerSpec,
    TopologySpec,
    WorkloadSpec,
    run,
)
from repro.runtime.journal import (
    JOURNAL_FORMAT,
    JOURNAL_KIND,
    dump_journal,
    Journal,
    journal_lines,
    loads_journal,
    read_journal,
    unframe_journal,
    write_journal,
)
from repro.runtime.observations import OBSERVATION_KINDS, Observation
from repro.sim.rng import RandomSource

#: A journal of ``_spec()``'s run, written at the earlier gzip level 9
#: with the store's ``{"spec", "spec_key"}`` meta.
LEVEL9_JOURNAL = Path(__file__).parent / "golden" / "journal_level9.obs.jsonl.gz"


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
# The observation record
# ----------------------------------------------------------------------
_FIELDS = (0.5, "rcv", 1, "m0", 0, 1.0)


def test_record_builds_positionally_and_by_keyword():
    by_position = Observation(*_FIELDS)
    by_keyword = Observation(
        time=0.5, kind="rcv", node=1, key="m0", ref=0, value=1.0
    )
    assert by_position == by_keyword
    assert tuple(by_position) == _FIELDS
    assert Observation._fields == ("time", "kind", "node", "key", "ref", "value")
    assert Observation(2.0, "round") == (2.0, "round", None, "", -1, 1.0)
    assert Observation._make(_FIELDS) == by_position
    assert by_position._replace(node=2).node == 2
    assert by_position._asdict() == dict(zip(Observation._fields, _FIELDS))


def test_record_repr_is_pinned():
    assert repr(Observation(*_FIELDS)) == (
        "Observation(time=0.5, kind='rcv', node=1, key='m0', ref=0, value=1.0)"
    )
    assert repr(Observation(2.0, "round", value=3.0)) == (
        "Observation(time=2.0, kind='round', node=None, key='', ref=-1, "
        "value=3.0)"
    )


def test_every_way_of_building_a_record_rejects_an_unknown_kind():
    good = Observation(*_FIELDS)
    builders = (
        lambda: Observation(0.5, "nope"),
        lambda: Observation(time=0.5, kind="nope"),
        lambda: good._replace(kind="nope"),
        lambda: Observation._make((0.5, "nope", 1, "m0", 0, 1.0)),
    )
    messages = set()
    for build in builders:
        with pytest.raises(ExperimentError, match="unknown observation") as excinfo:
            build()
        messages.add(str(excinfo.value))
    assert len(messages) == 1
    (message,) = messages
    with pytest.raises(ExperimentError) as excinfo:
        loads_journal(_one_row_journal('[0.5,"nope",1,"m0",0,1.0]'), where="j")
    assert str(excinfo.value) == f"j:2: bad observation row: {message}"


def test_record_is_immutable():
    obs = Observation(*_FIELDS)
    for field in Observation._fields:
        with pytest.raises(AttributeError):
            setattr(obs, field, 0)
    with pytest.raises(AttributeError):
        obs.extra = 1


def test_record_eq_and_hash_are_its_fields():
    """Equal fields make equal records with the hash of the field tuple,
    as the earlier frozen-dataclass record had."""
    obs = Observation(*_FIELDS)
    twin = Observation(*_FIELDS)
    assert obs == twin and not obs != twin
    assert hash(obs) == hash(twin) == hash(_FIELDS)
    assert obs != obs._replace(value=2.0)
    assert hash(Observation(1.0, "round")) == hash(
        (1.0, "round", None, "", -1, 1.0)
    )
    assert len({obs, twin, obs._replace(ref=1)}) == 2


def test_record_pickles_and_unpickling_checks_the_kind():
    import pickle

    for obs in _stream():
        copy = pickle.loads(pickle.dumps(obs))
        assert copy == obs and type(copy) is Observation
    rogue = pickle.dumps(Observation(*_FIELDS)).replace(b"rcv", b"xyz")
    with pytest.raises(ExperimentError, match="unknown observation kind 'xyz'"):
        pickle.loads(rogue)


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


def test_decoding_leaves_the_garbage_collector_as_it_found_it():
    import gc

    good = dump_journal(_stream())
    bad = _one_row_journal('[0.0,"nope",0,"m",0,1.0]')
    assert gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert loads_journal(unframe_journal(good, "j")).observations == _stream()
            assert gc.isenabled() is enabled
            with pytest.raises(ExperimentError):
                loads_journal(bad)
            assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_dump_journal_bytes_are_pinned():
    """The exact bytes of a fixed stream, as the format writes them at
    gzip level 6.

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
        False: "997115f04079c655803998f4c7f519f986db43e8a35fc75a4f4bfa3ddc3721be",
        True: "8d8fe7826655299ee033b6f3baf025c3e9c76234f3ad04da0120fba65283cfd6",
    }
    for include_profile, digest in digests.items():
        data = dump_journal(stream, meta=meta, include_profile=include_profile)
        assert hashlib.sha256(data).hexdigest() == digest, include_profile


def test_level9_journal_still_loads_to_the_same_stream(tmp_path):
    """Journals written before the level moved to 6 read as before."""
    from repro.campaigns.store import ResultStore, encode_journal, spec_key

    raw = LEVEL9_JOURNAL.read_bytes()
    spec = _spec()
    fresh = encode_journal(spec, run(spec).observations)
    assert raw != fresh
    assert gzip.decompress(raw) == gzip.decompress(fresh)
    stream = tuple(o for o in run(spec).observations if o.kind != "profile")
    journal = read_journal(LEVEL9_JOURNAL)
    assert journal.observations == stream
    assert journal.meta == {"spec": spec.to_dict(), "spec_key": spec_key(spec)}
    store = ResultStore(str(tmp_path / "store"))
    store.put_journal_bytes(spec_key(spec), raw)
    assert store.get_journal(spec) == journal


# The row encoder the format was defined by, kept here as the oracle for
# the journal writer's own row path.
_oracle_encode = json.JSONEncoder(separators=(",", ":")).encode


def _oracle_float(value):
    if math.isfinite(value):
        return float(value)
    if math.isnan(value):
        return "nan"
    return "inf" if value > 0 else "-inf"


def _oracle_row(obs: Observation) -> str:
    return _oracle_encode(
        [
            _oracle_float(obs.time),
            obs.kind,
            obs.node,
            obs.key,
            obs.ref,
            _oracle_float(obs.value),
        ]
    )


# Ints as times and values stay within float range: beyond it the
# oracle itself cannot encode them.
_numbers = st.floats() | st.sampled_from([0.0, -0.0]) | st.integers(
    -(10**300), 10**300
)
_observations = st.builds(
    Observation,
    time=_numbers,
    kind=st.sampled_from(OBSERVATION_KINDS),
    node=st.none() | st.integers() | st.booleans(),
    key=st.text(),
    ref=st.integers() | st.booleans(),
    value=_numbers,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_observations, max_size=6))
def test_rows_are_byte_equal_to_the_json_encoder(stream):
    """Non-finite values, ``-0.0``, int times and values, ``None`` and
    bool nodes, large ints and non-ASCII keys all encode as the compact
    JSON encoder writes them."""
    lines = list(journal_lines(stream, include_profile=True))
    expected = [_oracle_row(obs) for obs in sorted(stream, key=Observation.sort_key)]
    assert lines[1:] == expected


def test_write_journal_returns_the_kept_count(tmp_path):
    stream = _stream() + (
        Observation(time=1.0, kind="profile", key="wall_s", ref=-1, value=2.5),
    )
    path = tmp_path / "j.obs.jsonl.gz"
    assert write_journal(path, stream) == 4
    assert path.read_bytes() == dump_journal(stream)
    assert write_journal(path, stream, include_profile=True) == 5


# ----------------------------------------------------------------------
# Bit rot: a damaged gzip frame fails typed on every read path
# ----------------------------------------------------------------------
def _real_journal() -> bytes:
    return dump_journal(run(_spec()).observations)


def _bit_rot(data: bytes) -> bytes:
    """Bytes 20-27 (inside the deflate stream) overwritten with 0xff."""
    rotted = bytearray(data)
    rotted[20:28] = b"\xff" * 8
    return bytes(rotted)


def test_bit_rotted_journal_file_fails_typed(tmp_path):
    path = tmp_path / "rot.obs.jsonl.gz"
    path.write_bytes(_bit_rot(_real_journal()))
    with pytest.raises(ExperimentError, match="rot.obs.jsonl.gz: corrupt journal"):
        read_journal(path)


def test_bit_rotted_store_journal_reads_as_corrupt(tmp_path):
    from repro.campaigns.store import ResultStore, spec_key
    from repro.store.tools import verify_store

    spec = _spec()
    store = ResultStore(str(tmp_path / "store"))
    store.put_journal(spec, run(spec).observations)
    key = spec_key(spec)
    store.backend.put("journal", key, _bit_rot(store.backend.get("journal", key)))
    fresh = ResultStore(store.root)
    assert fresh.get_journal(spec) is None
    assert fresh.stats.corrupt == 1
    report = verify_store(fresh.backend)
    assert [p.reason.partition(":")[0] for p in report.problems] == [
        "journal does not decode"
    ]
    assert "corrupt journal frame" in report.problems[0].reason


# ----------------------------------------------------------------------
# Fuzzing: untrusted bytes decode to a Journal or fail typed
# ----------------------------------------------------------------------
_REAL_JOURNAL = dump_journal(_stream(), meta={"spec_key": "abc"})


def _decode(raw: bytes) -> None:
    try:
        journal = loads_journal(unframe_journal(raw, "fuzz"), where="fuzz")
    except ExperimentError:
        return
    assert isinstance(journal, Journal)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, len(_REAL_JOURNAL) - 1), st.integers(0, 255)
        ),
        min_size=1,
        max_size=8,
    ),
    st.integers(0, len(_REAL_JOURNAL)),
)
def test_mutated_and_truncated_journal_bytes_fail_typed(edits, cut):
    raw = bytearray(_REAL_JOURNAL)
    for offset, value in edits:
        raw[offset] = value
    _decode(bytes(raw))
    _decode(bytes(raw[:cut]))


_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=7)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from(["format", "kind", "count", "meta"]),
        _json_values | st.just(JOURNAL_KIND) | st.just(JOURNAL_FORMAT),
    ),
    st.lists(
        _json_values
        | st.tuples(
            _json_values,
            st.sampled_from(["bcast", "rcv", "nope"]),
            _json_values,
            _json_values,
            _json_values,
            _json_values,
        ).map(list),
        max_size=4,
    ),
    st.booleans(),
)
def test_random_header_and_row_values_fail_typed(header, rows, framed):
    text = "\n".join(json.dumps(item) for item in [header, *rows]) + "\n"
    raw = text.encode("utf-8")
    _decode(gzip.compress(raw) if framed else raw)


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
    result = run(spec, RunOptions(keep_raw=False, journal=path))
    assert result.observations == ()  # journal mode does not leak the stream
    journal = read_journal(path)
    assert len(journal) > 0
    assert ExperimentSpec.from_dict(journal.meta["spec"]) == spec


def test_run_journal_matches_keep_raw_stream(tmp_path):
    spec = _spec()
    path = tmp_path / "run.obs.jsonl.gz"
    run(spec, RunOptions(keep_raw=False, journal=path))
    raw = run(spec)
    expected = tuple(
        obs for obs in raw.observations if obs.kind != "profile"
    )
    assert read_journal(path).observations == expected
    # Re-journaling the same spec+seed reproduces the exact bytes.
    again = tmp_path / "again.obs.jsonl.gz"
    run(spec, RunOptions(keep_raw=False, journal=again))
    assert path.read_bytes() == again.read_bytes()


def test_run_rejects_journal_with_windowed_probe(tmp_path):
    spec = _spec(
        workload=WorkloadSpec(
            "open_arrivals", {"process": "poisson", "rate": 0.02, "count": 5}
        )
    )
    with pytest.raises(ExperimentError, match="journal"):
        run(spec, RunOptions(window=10.0, journal=tmp_path / "x.gz"))


# ----------------------------------------------------------------------
# Profiling observations
# ----------------------------------------------------------------------
def test_keep_raw_runs_carry_profile_gauges_at_stream_end():
    result = run(_spec())
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
    raw = run(spec)
    summary = run(spec, RunOptions.summary())
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
