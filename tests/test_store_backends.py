"""Tests for ``repro.store``: backends, server, tools, diff, all_figures.

Fault-path tests use hand-built HTTP handlers (wrong digest, truncated
body, dead port) so every branch of the client's failure discipline —
integrity errors never retried, transient errors retried on the bounded
deterministic schedule — is pinned by an observable behaviour, not a
mock.  Byte-identity tests compare raw entry bytes across backends: the
contract is that a store written over HTTP equals the store a local run
writes, byte for byte.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import tempfile
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaigns import (
    CampaignSpec,
    CheckSpec,
    FabricConfig,
    ResultStore,
    SweepDirective,
    backoff_delay,
    build_campaign,
    diff_campaign,
    expand_points,
    parse_chaos,
    run_campaign,
    spec_key,
)
from repro.campaigns import store as campaign_store
from repro.runtime import journal as journal_module
from repro.runtime.journal import dump_journal
from repro.campaigns.store import STORE_FORMAT, _payload_digest
from repro.errors import ExperimentError
from repro.experiments import (
    ExperimentResult,
    ExperimentSpec,
    ModelSpec,
    RunOptions,
    SchedulerSpec,
    TopologySpec,
    WorkloadSpec,
    run,
)
from repro.store import (
    HttpBackend,
    LocalBackend,
    StoreIntegrityError,
    StoreUnavailableError,
    deterministic_backoff,
    entry_relpath,
    gc_store,
    make_server,
    open_backend,
    parse_entry_filename,
    sync_stores,
    valid_key,
    verify_store,
)
from repro.store.http import DIGEST_HEADER

KEY_A = hashlib.sha256(b"entry-a").hexdigest()
KEY_B = hashlib.sha256(b"entry-b").hexdigest()


def tiny_campaign() -> CampaignSpec:
    base = ExperimentSpec(
        name="tiny",
        topology=TopologySpec("line", {"n": 5}),
        scheduler=SchedulerSpec("worstcase"),
        workload=WorkloadSpec("single_source", {"node": 0, "count": 1}),
        model=ModelSpec(fack=20.0, fprog=1.0),
        seed=3,
    )
    return CampaignSpec(
        name="tiny",
        title="Tiny store-backend campaign",
        sweeps=(
            SweepDirective(
                name="lines", base=base, axes={"topology.n": [5, 7]}
            ),
        ),
        checks=(CheckSpec(kind="solved"),),
    )


def _one_result():
    return run(
        tiny_campaign().sweeps[0].expand()[0], RunOptions(keep_raw=False)
    )


@pytest.fixture
def http_store(tmp_path):
    """A live in-process ``repro store serve`` on an ephemeral port."""
    root = tmp_path / "served"
    server = make_server(str(root), port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        yield url, str(root)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


# ----------------------------------------------------------------------
# Backend resolution and the local layout contract
# ----------------------------------------------------------------------
def test_open_backend_resolves_schemes(tmp_path):
    assert isinstance(open_backend(str(tmp_path)), LocalBackend)
    assert isinstance(open_backend(f"file://{tmp_path}"), LocalBackend)
    assert open_backend(f"file://{tmp_path}").root == str(tmp_path)
    http = open_backend("http://example.invalid:8750")
    assert isinstance(http, HttpBackend)
    https = open_backend("https://example.invalid/store")
    assert https.scheme == "https"


def test_open_backend_rejects_unknown_scheme_naming_the_known_ones():
    with pytest.raises(ExperimentError) as excinfo:
        open_backend("s3://bucket/prefix")
    message = str(excinfo.value)
    assert "s3://" in message
    assert "registered backends" in message
    assert "http://" in message


def test_valid_key_is_strict_sha256_hex():
    assert valid_key(KEY_A)
    assert not valid_key(KEY_A.upper())
    assert not valid_key(KEY_A[:-1])
    assert not valid_key(KEY_A + "0")
    assert not valid_key("../" + KEY_A[3:])


def test_entry_relpath_and_filename_round_trip():
    assert entry_relpath("summary", KEY_A) == f"{KEY_A[:2]}/{KEY_A}.json"
    assert (
        entry_relpath("journal", KEY_A) == f"{KEY_A[:2]}/{KEY_A}.obs.jsonl.gz"
    )
    assert parse_entry_filename(f"{KEY_A}.json") == ("summary", KEY_A)
    assert parse_entry_filename(f"{KEY_A}.obs.jsonl.gz") == ("journal", KEY_A)
    assert parse_entry_filename("notes.txt") is None
    with pytest.raises(ExperimentError):
        entry_relpath("bogus", KEY_A)


def test_local_backend_keeps_the_historical_layout(tmp_path):
    backend = LocalBackend(str(tmp_path / "store"))
    backend.put("summary", KEY_A, b"hello")
    entry = tmp_path / "store" / KEY_A[:2] / f"{KEY_A}.json"
    assert entry.read_bytes() == b"hello"
    assert backend.get("summary", KEY_A) == b"hello"
    assert backend.head("summary", KEY_A)
    assert not backend.head("journal", KEY_A)
    assert backend.get("summary", KEY_B) is None


def test_local_list_entries_ignores_strays(tmp_path):
    backend = LocalBackend(str(tmp_path))
    backend.put("summary", KEY_A, b"a")
    backend.put("journal", KEY_A, b"j")
    backend.put("summary", KEY_B, b"b")
    (tmp_path / "README.txt").write_text("not an entry")
    misplaced = tmp_path / "zz"
    misplaced.mkdir()
    (misplaced / f"{KEY_A}.json").write_bytes(b"wrong fan-out dir")
    listed = list(backend.list_entries())
    expected = sorted(
        [("summary", KEY_A), ("journal", KEY_A), ("summary", KEY_B)],
        key=lambda pair: (pair[1], pair[0]),
    )
    assert listed == expected


# ----------------------------------------------------------------------
# HTTP backend against the reference server
# ----------------------------------------------------------------------
def test_http_roundtrip_matches_served_directory(http_store, tmp_path):
    url, root = http_store
    remote = HttpBackend(url)
    assert remote.exists()
    assert remote.get("summary", KEY_A) is None
    remote.put("summary", KEY_A, b"payload-bytes")
    remote.put("journal", KEY_A, b"journal-bytes")
    # The served directory is a plain local store holding the same bytes.
    assert LocalBackend(root).get("summary", KEY_A) == b"payload-bytes"
    assert remote.get("summary", KEY_A) == b"payload-bytes"
    assert remote.head("journal", KEY_A)
    assert not remote.head("summary", KEY_B)
    assert sorted(remote.list_entries()) == sorted(
        LocalBackend(root).list_entries()
    )
    assert remote.delete("journal", KEY_A)
    assert not remote.delete("journal", KEY_A)


def test_http_url_options_parse_and_unknowns_are_rejected(tmp_path):
    backend = HttpBackend.from_url(
        f"http://h:1?cache={tmp_path}&retries=2&backoff=0.5&timeout=3"
    )
    assert backend.base_url == "http://h:1"
    assert backend.retries == 2
    assert backend.backoff == 0.5
    assert backend.timeout == 3.0
    assert isinstance(backend.cache, LocalBackend)
    assert backend.cache.root == str(tmp_path)
    with pytest.raises(ExperimentError, match="unknown store URL option"):
        HttpBackend.from_url("http://h:1?cahce=typo")
    with pytest.raises(ExperimentError, match="bad store URL option"):
        HttpBackend.from_url("http://h:1?retries=many")


def test_http_write_through_cache_survives_server_loss(tmp_path):
    root = tmp_path / "served"
    server = make_server(str(root), port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        backend = HttpBackend.from_url(
            f"{url}?cache={tmp_path / 'cache'}&retries=0&backoff=0"
        )
        backend.put("summary", KEY_A, b"cached-bytes")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)
    # Server gone: cached reads still work; uncached keys fail loudly.
    assert backend.get("summary", KEY_A) == b"cached-bytes"
    assert backend.head("summary", KEY_A)
    with pytest.raises(StoreUnavailableError):
        backend.get("summary", KEY_B)


# ----------------------------------------------------------------------
# Fault paths: integrity vs transient
# ----------------------------------------------------------------------
class _FaultyHandler(BaseHTTPRequestHandler):
    """GET handler with injectable faults; counts attempts."""

    protocol_version = "HTTP/1.1"
    mode = "wrong-digest"
    attempts = 0

    def log_message(self, format, *args):  # noqa: A002
        pass

    def do_GET(self):  # noqa: N802
        type(self).attempts += 1
        body = b"these are the stored bytes"
        if self.mode == "wrong-digest":
            self.send_response(200)
            self.send_header(DIGEST_HEADER, "0" * 64)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif self.mode == "truncated":
            self.send_response(200)
            self.send_header("Content-Length", str(len(body) + 50))
            self.end_headers()
            self.wfile.write(body)
            self.close_connection = True
        else:  # pragma: no cover - guard against typo'd modes
            raise AssertionError(self.mode)


@pytest.fixture
def faulty_server():
    class Handler(_FaultyHandler):
        pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}", Handler
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


def test_checksum_mismatch_is_integrity_error_and_never_retried(
    faulty_server,
):
    url, handler = faulty_server
    handler.mode = "wrong-digest"
    backend = HttpBackend(url, retries=3, backoff=0.0)
    with pytest.raises(StoreIntegrityError, match="checksum mismatch"):
        backend.get("summary", KEY_A)
    # Retrying a corrupt read would re-download the same bad bytes.
    assert handler.attempts == 1


def test_truncated_body_retries_then_raises_unavailable(faulty_server):
    url, handler = faulty_server
    handler.mode = "truncated"
    backend = HttpBackend(url, retries=2, backoff=0.0)
    with pytest.raises(StoreUnavailableError, match="3 attempts"):
        backend.get("summary", KEY_A)
    assert handler.attempts == 3


def test_dead_server_raises_unavailable_and_exists_is_false():
    import socket

    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    backend = HttpBackend(f"http://127.0.0.1:{port}", retries=1, backoff=0.0)
    with pytest.raises(StoreUnavailableError):
        backend.get("summary", KEY_A)
    assert not backend.exists()


def test_deterministic_backoff_schedule():
    assert deterministic_backoff("k", 0, 1.0) == 0.0
    assert deterministic_backoff("k", 1, 0.0) == 0.0
    first = deterministic_backoff("k", 1, 1.0)
    assert first == deterministic_backoff("k", 1, 1.0)
    assert 0.5 <= first <= 1.5
    second = deterministic_backoff("k", 2, 1.0)
    assert 1.0 <= second <= 3.0
    assert deterministic_backoff("other", 1, 1.0) != first
    # The campaign fabric shares the exact schedule (public alias).
    assert backoff_delay is deterministic_backoff


# ----------------------------------------------------------------------
# ResultStore over backends: byte identity and healing
# ----------------------------------------------------------------------
def test_result_store_bytes_identical_across_backends(http_store, tmp_path):
    url, root = http_store
    result = _one_result()
    local = ResultStore(str(tmp_path / "local"))
    remote = ResultStore(url)
    local.put(result)
    remote.put(result)
    key, encoded = local.encode(result)
    assert LocalBackend(str(tmp_path / "local")).get("summary", key) == encoded
    assert LocalBackend(root).get("summary", key) == encoded
    assert remote.get(result.spec) == local.get(result.spec)
    # Journals ride the same contract; presence probes use HEAD only.
    assert not remote.has_journal(result.spec)
    remote.put_journal(result.spec, result.observations)
    assert remote.has_journal(result.spec)
    assert remote.get_journal(result.spec) is not None


def test_corrupt_http_entry_reads_as_miss_and_heals(http_store):
    from repro.campaigns.chaos import corrupt_store_entry

    url, _root = http_store
    store = ResultStore(url)
    result = _one_result()
    store.put(result)
    key, encoded = store.encode(result)
    corrupt_store_entry(store, key, seed=1)
    assert store.backend.get("summary", key) != encoded
    assert store.get(result.spec) is None
    assert store.stats.corrupt == 1
    store.put(result)  # the re-run's rewrite heals the entry
    assert store.backend.get("summary", key) == encoded
    assert store.get(result.spec) == (result, None)


class _FlakyBackend(LocalBackend):
    """A local backend whose first summary write fails transiently."""

    failures_left = 1

    def put(self, kind: str, key: str, data: bytes) -> str:
        if kind == "summary" and type(self).failures_left > 0:
            type(self).failures_left -= 1
            raise StoreUnavailableError("injected: store briefly down")
        return super().put(kind, key, data)


def test_supervisor_requeues_point_when_checkpoint_fails(tmp_path):
    class Backend(_FlakyBackend):
        failures_left = 1

    store = ResultStore(Backend(str(tmp_path / "store")))
    outcome = run_campaign(
        tiny_campaign(),
        store,
        fabric=FabricConfig(workers=1, backoff_base=0.0),
    )
    assert outcome.complete
    assert outcome.health.counters.get("transient_errors", 0) >= 1
    # Both points landed despite the dropped checkpoint.
    for point in expand_points(tiny_campaign()):
        assert store.get(point.spec) is not None


def test_chaos_store_corrupt_through_http_converges(http_store, tmp_path):
    url, root = http_store
    campaign = tiny_campaign()
    fabric = FabricConfig(workers=1, backoff_base=0.0)
    reference = ResultStore(str(tmp_path / "ref"))
    assert run_campaign(campaign, reference, fabric=fabric).complete
    chaotic = dataclasses.replace(
        campaign, chaos=(parse_chaos("store_corrupt:fraction=1.0"),)
    )
    remote = ResultStore(url)
    outcome = run_campaign(chaotic, remote, fabric=fabric)
    assert outcome.complete
    assert outcome.health.counters.get("corrupt_rewrites", 0) >= 1
    ref_backend = LocalBackend(str(tmp_path / "ref"))
    served = LocalBackend(root)
    entries = list(ref_backend.list_entries())
    assert entries and list(served.list_entries()) == entries
    for kind, key in entries:
        assert served.get(kind, key) == ref_backend.get(kind, key)


# ----------------------------------------------------------------------
# campaign diff
# ----------------------------------------------------------------------
def _run_into(tmp_path, name) -> ResultStore:
    store = ResultStore(str(tmp_path / name))
    assert run_campaign(tiny_campaign(), store).complete
    return store


def test_diff_identical_stores_reports_zero_drift(tmp_path):
    store_a = _run_into(tmp_path, "a")
    store_b = _run_into(tmp_path, "b")
    report = diff_campaign(tiny_campaign(), store_a, store_b)
    assert report.ok
    assert report.counts["identical"] == len(report.points) == 2
    assert "zero drift" in report.describe()


def test_diff_buckets_tampered_missing_and_corrupt(tmp_path):
    store_a = _run_into(tmp_path, "a")
    store_b = _run_into(tmp_path, "b")
    points = expand_points(tiny_campaign())
    # Point 0: a decodable entry with a different outcome -> metric_delta.
    result = run(points[0].spec, RunOptions(keep_raw=False))
    tampered = dataclasses.replace(
        result, broadcast_count=result.broadcast_count + 7
    )
    key0, data0 = store_b.encode(tampered)
    store_b.backend.put("summary", key0, data0)
    # Point 1: absent on one side -> missing_b.
    key1 = spec_key(points[1].spec)
    store_b.backend.delete("summary", key1)
    report = diff_campaign(tiny_campaign(), store_a, store_b)
    assert not report.ok
    by_key = {p.key: p for p in report.points}
    assert by_key[key0].status == "metric_delta"
    assert "broadcast_count" in by_key[key0].detail
    assert by_key[key1].status == "missing_b"
    assert "DRIFT" in report.describe()
    # Corrupt the tampered entry: now one side fails document verify.
    store_b.backend.put("summary", key0, b"{ not json")
    report = diff_campaign(tiny_campaign(), store_a, store_b)
    statuses = {p.key: p.status for p in report.points}
    assert statuses[key0] == "undecodable"


def test_diff_entry_without_facts_reads_identical(tmp_path):
    """A store written before entries recorded facts is no drift against
    one written after: the results decode equal, only the facts differ."""
    store_a = _run_into(tmp_path, "a")
    store_b = _run_into(tmp_path, "b")
    for point in expand_points(tiny_campaign()):
        result, facts = store_b.get(point.spec)
        assert facts is not None
        key = spec_key(point.spec)
        store_b.put(result)  # the old layout: no facts beside the result
        assert store_b.backend.get("summary", key) != store_a.backend.get(
            "summary", key
        )
    report = diff_campaign(tiny_campaign(), store_a, store_b)
    assert report.ok
    assert [p.status for p in report.points] == ["identical", "identical"]
    assert diff_campaign(tiny_campaign(), store_b, store_a).ok


def test_diff_entry_without_facts_still_sees_other_byte_drift(tmp_path):
    """Only the facts may be missing for such a pair to read identical: a
    count written as 7.0 instead of 7 decodes equal but is still drift."""
    store_a = _run_into(tmp_path, "a")
    store_b = _run_into(tmp_path, "b")
    point = expand_points(tiny_campaign())[0]
    key = spec_key(point.spec)
    result, facts = store_b.get(point.spec)
    store_a.put(result)  # side A: the old layout, no facts
    payload = json.loads(store_b.backend.get("summary", key))["payload"]
    count = payload["result"]["broadcast_count"]
    payload["result"]["broadcast_count"] = float(count)
    store_b.backend.put(
        "summary", key, _digest_valid_entry(key, payload["result"], facts=facts)
    )
    assert store_b.get(point.spec) == (result, facts)
    report = diff_campaign(tiny_campaign(), store_a, store_b)
    drifted = {p.key: p for p in report.points}[key]
    assert drifted.status == "metric_delta"
    assert drifted.detail == "results decode equal but entry bytes differ"


def _journaled_tiny() -> CampaignSpec:
    tiny = tiny_campaign()
    sweeps = tuple(dataclasses.replace(d, journal=True) for d in tiny.sweeps)
    return dataclasses.replace(tiny, sweeps=sweeps)


def test_diff_reads_a_recompressed_journal_as_identical(tmp_path, monkeypatch):
    """A store whose journals were written at gzip level 9 and one written
    at level 6 hold different bytes but the same journals."""
    campaign = _journaled_tiny()
    store_b = ResultStore(str(tmp_path / "b"))
    assert run_campaign(campaign, store_b).complete
    monkeypatch.setattr(journal_module, "_GZIP_LEVEL", 9)
    store_a = ResultStore(str(tmp_path / "a"))
    assert run_campaign(campaign, store_a).complete
    for point in expand_points(campaign):
        key = spec_key(point.spec)
        assert store_a.backend.get("journal", key) != store_b.backend.get(
            "journal", key
        )
    report = diff_campaign(campaign, store_a, store_b)
    assert report.ok
    assert [p.status for p in report.points] == ["identical", "identical"]


def test_diff_reports_a_changed_journal_row_as_journal_delta(tmp_path):
    campaign = _journaled_tiny()
    store_a = ResultStore(str(tmp_path / "a"))
    store_b = ResultStore(str(tmp_path / "b"))
    assert run_campaign(campaign, store_a).complete
    assert run_campaign(campaign, store_b).complete
    point = expand_points(campaign)[0]
    key = spec_key(point.spec)
    journal = store_b.get_journal(point.spec)
    first = journal.observations[0]
    changed = (first._replace(time=first.time + 0.5),)
    store_b.backend.put(
        "journal",
        key,
        dump_journal(changed + journal.observations[1:], meta=journal.meta),
    )
    report = diff_campaign(campaign, store_a, store_b)
    drifted = {p.key: p for p in report.points}[key]
    assert drifted.status == "journal_delta"
    assert drifted.detail == "journal header or stream differs"
    assert report.counts["identical"] == 1


def test_diff_reports_differing_facts_as_metric_delta(tmp_path):
    store_a = _run_into(tmp_path, "a")
    store_b = _run_into(tmp_path, "b")
    point = expand_points(tiny_campaign())[0]
    result, facts = store_b.get(point.spec)
    wrong = {**facts, "diameter": facts["diameter"] + 1}
    store_b.put(result, wrong)
    report = diff_campaign(tiny_campaign(), store_a, store_b)
    by_key = {p.key: p for p in report.points}
    drifted = by_key[spec_key(point.spec)]
    assert drifted.status == "metric_delta"
    assert drifted.detail == (
        f"facts.diameter: {facts['diameter']} -> {facts['diameter'] + 1}"
    )
    assert report.counts["identical"] == 1


# ----------------------------------------------------------------------
# store tools: sync, verify, gc
# ----------------------------------------------------------------------
def test_sync_copies_missing_and_overwrites_divergent(tmp_path):
    source = LocalBackend(str(tmp_path / "src"))
    destination = LocalBackend(str(tmp_path / "dst"))
    source.put("summary", KEY_A, b"alpha")
    source.put("summary", KEY_B, b"beta")
    destination.put("summary", KEY_B, b"stale")
    report = sync_stores(source, destination)
    assert (report.copied, report.overwritten, report.skipped) == (1, 1, 0)
    assert destination.get("summary", KEY_A) == b"alpha"
    assert destination.get("summary", KEY_B) == b"beta"
    again = sync_stores(source, destination)
    assert (again.copied, again.overwritten, again.skipped) == (0, 0, 2)


def test_verify_store_flags_corruption_and_optionally_deletes(tmp_path):
    store = _run_into(tmp_path, "v")
    backend = store.backend
    report = verify_store(backend)
    assert report.checked == report.ok == 2 and not report.problems
    (kind, key) = next(iter(backend.list_entries()))
    raw = bytearray(backend.get(kind, key))
    raw[len(raw) // 2] ^= 0xFF
    backend.put(kind, key, bytes(raw))
    report = verify_store(backend)
    assert report.ok == 1
    assert [(p.kind, p.key) for p in report.problems] == [(kind, key)]
    healed = verify_store(backend, delete=True)
    assert healed.deleted == 1
    assert backend.get(kind, key) is None


@functools.lru_cache(maxsize=1)
def _result_dict() -> dict:
    return _one_result().to_dict()


def _paths(node, prefix=()):
    """Every key path into a nested dict, the root included."""
    yield prefix
    if isinstance(node, dict):
        for name, child in node.items():
            yield from _paths(child, prefix + (name,))


_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_DELETE = object()


def _mutated(result: dict, path: tuple, value) -> dict:
    mutated = json.loads(json.dumps(result))
    if not path:
        return value
    parent = mutated
    for name in path[:-1]:
        parent = parent[name]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return mutated


def _digest_valid_entry(key: str, result_payload, **extra) -> bytes:
    """Summary entry bytes whose checksum and key hold, whatever the result
    (and whatever ``extra`` payload members, such as ``facts``)."""
    payload = {"key": key, "result": result_payload, **extra}
    document = {
        "format": STORE_FORMAT,
        "sha256": _payload_digest(payload),
        "payload": payload,
    }
    return json.dumps(document).encode("utf-8")


def _expected_to_verify(result_payload, key: str) -> bool:
    try:
        return spec_key(ExperimentResult.from_dict(result_payload).spec) == key
    except Exception:
        return False


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_digest_valid_entry_with_mutated_result_reads_as_corrupt(data):
    """A checksum proves the bytes, not their shape: a digest-valid entry
    whose ``result`` payload was mutated is a miss for ``get`` and a
    problem for ``verify_store`` unless it still decodes to the point's
    spec -- and neither ever raises."""
    original = _result_dict()
    path = data.draw(st.sampled_from(list(_paths(original))), label="path")
    choices = _JSON_VALUES if not path else st.just(_DELETE) | _JSON_VALUES
    value = data.draw(choices, label="value")
    spec = ExperimentSpec.from_dict(original["spec"])
    key = spec_key(spec)
    mutated = _mutated(original, path, value)
    valid = _expected_to_verify(mutated, key)
    with tempfile.TemporaryDirectory() as root:
        store = ResultStore(root)
        store.backend.put("summary", key, _digest_valid_entry(key, mutated))
        got = store.get(spec)
        assert (got is not None) == valid
        assert store.stats.corrupt == (0 if valid else 1)
        report = verify_store(store.backend)
        assert report.checked == 1
        assert [p.key for p in report.problems] == ([] if valid else [key])


def _facts_valid(facts) -> bool:
    return (
        isinstance(facts, dict)
        and list(facts) == ["diameter"]
        and all(type(value) is int and value >= 0 for value in facts.values())
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_digest_valid_entry_with_mutated_facts_reads_as_corrupt(data):
    """``facts`` is absent or exactly ``{"diameter"}``, a non-negative
    int; any other digest-valid ``facts`` is a miss for ``get``, counts
    as corrupt, and is a problem for ``verify_store`` -- and neither
    raises."""
    result = _result_dict()
    spec = ExperimentSpec.from_dict(result["spec"])
    key = spec_key(spec)
    payload = {"key": key, "result": result, "facts": {"diameter": 4}}
    paths = [("facts",) + path for path in _paths(payload["facts"])]
    path = data.draw(st.sampled_from(paths), label="path")
    value = data.draw(
        st.just(_DELETE) | st.booleans() | st.integers() | _JSON_VALUES,
        label="value",
    )
    mutated = _mutated(payload, path, value)
    facts_absent = "facts" not in mutated
    valid = facts_absent or _facts_valid(mutated["facts"])
    extra = {} if facts_absent else {"facts": mutated["facts"]}
    with tempfile.TemporaryDirectory() as root:
        store = ResultStore(root)
        store.backend.put("summary", key, _digest_valid_entry(key, result, **extra))
        got = store.get(spec)
        if valid:
            assert got is not None
            assert got[1] == (None if facts_absent else mutated["facts"])
        else:
            assert got is None
        assert store.stats.corrupt == (0 if valid else 1)
        report = verify_store(store.backend)
        assert report.checked == 1
        assert [p.key for p in report.problems] == ([] if valid else [key])


@pytest.mark.parametrize(
    "facts",
    [
        {"diameter": True},
        {"diameter": -1},
        {"diameter": 4.0},
        {"diameter": "4"},
        {},
        {"n": 5, "diameter": 4},
        [4],
        None,
    ],
)
def test_entry_with_malformed_facts_reads_as_corrupt(tmp_path, facts):
    result = _result_dict()
    spec = ExperimentSpec.from_dict(result["spec"])
    key = spec_key(spec)
    store = ResultStore(str(tmp_path / "m"))
    store.backend.put("summary", key, _digest_valid_entry(key, result, facts=facts))
    assert store.get(spec) is None
    assert store.stats.corrupt == 1
    (problem,) = verify_store(store.backend).problems
    assert problem.reason.startswith("facts")


def test_entry_whose_spec_hashes_to_another_key_reads_as_corrupt(tmp_path):
    """A param stored as ``true`` where the key hashed ``1`` rebuilds a
    spec that compares equal to the requested one, but it is not this
    key's entry: ``get`` and ``verify_store`` both reject it."""
    original = _result_dict()
    spec = ExperimentSpec.from_dict(original["spec"])
    key = spec_key(spec)
    path = ("spec", "workload", "params", "count")
    assert original["spec"]["workload"]["params"]["count"] == 1
    mutated = _mutated(original, path, True)
    assert ExperimentSpec.from_dict(mutated["spec"]) == spec
    store = ResultStore(str(tmp_path / "m"))
    store.backend.put("summary", key, _digest_valid_entry(key, mutated))
    assert store.get(spec) is None
    assert store.stats.corrupt == 1
    (problem,) = verify_store(store.backend).problems
    assert problem.reason == "spec does not hash to entry key"


def test_entry_whose_spec_does_not_encode_reads_as_corrupt(tmp_path, monkeypatch):
    """``model.params`` given as pairs (which would rebuild into a dict
    with a ``None`` key that JSON cannot sort) is rejected by the spec
    layer; a spec that still fails to encode meets the store's own guard.
    Either way: a problem for verify, not a crash."""
    original = _result_dict()
    spec = ExperimentSpec.from_dict(original["spec"])
    key = spec_key(spec)
    mutated = _mutated(original, ("spec", "model", "params"), [[None, 1], ["a", 2]])
    store = ResultStore(str(tmp_path / "m"))
    store.backend.put("summary", key, _digest_valid_entry(key, mutated))
    assert store.get(spec) is None
    assert store.stats.corrupt == 1
    (problem,) = verify_store(store.backend).problems
    assert problem.reason == (
        "result does not decode: ExperimentError: params must be a mapping, "
        "got list"
    )

    def unencodable(spec):
        raise TypeError("'<' not supported between instances")

    guarded = ResultStore(str(tmp_path / "g"))
    guarded.backend.put("summary", key, _digest_valid_entry(key, original))
    monkeypatch.setattr(campaign_store, "spec_key", unencodable)
    (problem,) = verify_store(guarded.backend).problems
    assert problem.reason.startswith("spec does not encode: TypeError")


@pytest.mark.parametrize(
    "path", [("spec",), ("spec", "model")], ids=["spec", "spec.model"]
)
def test_entry_whose_spec_part_is_a_list_reads_as_corrupt(tmp_path, path):
    original = _result_dict()
    spec = ExperimentSpec.from_dict(original["spec"])
    key = spec_key(spec)
    mutated = _mutated(original, path, [1, 2])
    store = ResultStore(str(tmp_path / "m"))
    store.backend.put("summary", key, _digest_valid_entry(key, mutated))
    assert store.get(spec) is None
    assert store.stats.corrupt == 1
    (problem,) = verify_store(store.backend).problems
    assert problem.reason.startswith("result does not decode: AttributeError")


@pytest.mark.parametrize(
    "data, reason",
    [(b"null", "not a JSON object"), (b"[" * 100_000, "not JSON")],
    ids=["null", "deeply-nested"],
)
def test_summary_that_is_no_json_object_reads_as_corrupt(tmp_path, data, reason):
    spec = ExperimentSpec.from_dict(_result_dict()["spec"])
    store = ResultStore(str(tmp_path / "n"))
    store.backend.put("summary", spec_key(spec), data)
    assert store.get(spec) is None
    assert store.stats.corrupt == 1
    (problem,) = verify_store(store.backend).problems
    assert problem.reason.startswith(reason)


def test_gc_keeps_campaign_keys_and_respects_dry_run(tmp_path):
    store = _run_into(tmp_path, "g")
    backend = store.backend
    backend.put("summary", KEY_A, b"orphan")
    keep = {spec_key(p.spec) for p in expand_points(tiny_campaign())}
    dry = gc_store(backend, keep, dry_run=True)
    assert dry.dry_run and dry.kept == 2 and dry.removed == 1
    assert backend.get("summary", KEY_A) == b"orphan"
    applied = gc_store(backend, keep, dry_run=False)
    assert applied.removed == 1
    assert backend.get("summary", KEY_A) is None
    assert verify_store(backend).ok == 2


# ----------------------------------------------------------------------
# all_figures meta-campaign
# ----------------------------------------------------------------------
def test_all_figures_reuses_member_campaign_spec_keys():
    meta = build_campaign("all_figures", n_max=16, seeds=1)
    meta_keys = {spec_key(p.spec) for p in expand_points(meta)}
    for name in ("figure1", "smoke"):
        campaign = build_campaign(name, n_max=16)
        member_keys = {spec_key(p.spec) for p in expand_points(campaign)}
        assert member_keys <= meta_keys


def test_all_figures_include_filters_and_validates():
    meta = build_campaign("all_figures", n_max=16, include="figure1,smoke")
    sweeps = {d.name.split(":", 1)[0] for d in meta.sweeps}
    assert sweeps == {"figure1", "smoke"}
    figure1 = build_campaign("figure1", n_max=16)
    smoke = build_campaign("smoke")
    expected = {
        spec_key(p.spec)
        for c in (figure1, smoke)
        for p in expand_points(c)
    }
    assert {spec_key(p.spec) for p in expand_points(meta)} == expected
    with pytest.raises(ExperimentError, match="unknown campaign"):
        build_campaign("all_figures", include="figure1,bogus")


def test_all_figures_namespaces_sweeps_figures_and_checks():
    meta = build_campaign("all_figures", n_max=16, seeds=1)
    assert all(":" in d.name for d in meta.sweeps)
    assert all("__" in f.name for f in meta.figures)
    assert meta.checks  # every member campaign's checks ride along
    # Round-trips like any other campaign spec.
    assert CampaignSpec.from_json(meta.to_json()) == meta
