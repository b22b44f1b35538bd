"""Fuzz the ``repro store serve`` handlers with malformed requests.

Every request here is wrong in at least one way: a malformed entry path
or digest, a missing or unparsable ``Content-Length``, a body shorter
than declared (with the client's write side closed, or left open and
stalled), a declared body over the size limit, or a body whose
``X-Repro-SHA256`` does not match.  Each must get a 4xx reply within a
client timeout, no handler may raise (socketserver would print the
traceback on stderr), and the server must still serve a stored entry
afterwards.  Requests are written on raw sockets, since ``http.client``
refuses to send most of them.
"""

from __future__ import annotations

import hashlib
import http.client
import socket
import sys
import threading

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.store import make_server, valid_key
from repro.store.backend import KINDS
from repro.store.http import DIGEST_HEADER
from repro.store.server import MAX_BODY_BYTES

CANARY_KEY = hashlib.sha256(b"canary").hexdigest()
CANARY = b"canary entry bytes"
META_PATHS = ("/v1/ping", "/v1/list")
#: How long the server waits on a stalled body in these tests.
SERVER_TIMEOUT_S = 0.2
#: How long a test request may wait for its reply.
CLIENT_TIMEOUT_S = 10.0

_HEX = "0123456789abcdef"
# Request-line safe: no whitespace or control characters, some non-ASCII.
_PATH_CHARS = st.characters(
    min_codepoint=0x21, max_codepoint=0x2FF, exclude_characters="\x7f"
)
_KEYS = st.text(_HEX, min_size=64, max_size=64).filter(lambda k: k != CANARY_KEY)
_BAD_KEYS = st.one_of(
    st.text(_PATH_CHARS, max_size=80),
    st.text(_HEX.upper(), min_size=64, max_size=64),
    st.text(_HEX, min_size=63, max_size=63),
    st.text(_HEX, min_size=65, max_size=65),
    st.sampled_from(["..", "%2e%2e", "../../etc/passwd", CANARY_KEY.upper()]),
).filter(lambda k: not valid_key(k))
_BAD_KINDS = st.text(_PATH_CHARS, max_size=12).filter(lambda k: k not in KINDS)


@st.composite
def _entry_paths(draw):
    """``(path, well_formed)``: an entry path, possibly malformed."""
    kind = draw(st.sampled_from(KINDS))
    key = draw(_KEYS)
    shape = draw(
        st.sampled_from(
            ["ok", "bad-key", "bad-kind", "extra", "no-v1", "v2", "text"]
        )
    )
    if shape == "ok":
        return f"/v1/{kind}/{key}", True
    if shape == "bad-key":
        return f"/v1/{kind}/{draw(_BAD_KEYS)}", False
    if shape == "bad-kind":
        return f"/v1/{draw(_BAD_KINDS)}/{key}", False
    if shape == "extra":
        return f"/v1/{kind}/{key}/{draw(st.text(_PATH_CHARS, max_size=8))}", False
    if shape == "no-v1":
        return f"/{kind}/{key}", False
    if shape == "v2":
        return f"/v2/{kind}/{key}", False
    path = "/" + draw(st.text(_PATH_CHARS, max_size=40))
    return path, False


_DEFECTS = (
    "none",
    "no-length",
    "bad-length",
    "short",
    "short-stalled",
    "oversized",
    "digest",
)
_BAD_LENGTHS = st.one_of(
    st.sampled_from(["", "abc", "1e3", "0x10", "-1", "+-3", "9" * 5000]),
    st.integers(max_value=-1).map(str),
)


@st.composite
def _malformed_requests(draw):
    """``(method, raw request bytes, half_close)``; never a valid write."""
    method = draw(st.sampled_from(["GET", "HEAD", "PUT", "DELETE"]))
    path, well_formed = draw(
        _entry_paths().filter(lambda p: p[0].split("?", 1)[0] not in META_PATHS)
    )
    defects = _DEFECTS[1:] if method == "PUT" and well_formed else _DEFECTS
    defect = draw(st.sampled_from(defects))
    body = draw(st.binary(max_size=64))
    headers = [("Host", "store")]
    half_close = False
    if defect == "none":
        body = b""
    elif defect == "no-length":
        half_close = True
    elif defect == "bad-length":
        headers.append(("Content-Length", draw(_BAD_LENGTHS)))
        half_close = True
    elif defect in ("short", "short-stalled"):
        missing = draw(st.integers(min_value=1, max_value=1000))
        headers.append(("Content-Length", str(len(body) + missing)))
        half_close = defect == "short"
    elif defect == "oversized":
        excess = draw(st.integers(min_value=1, max_value=10**30))
        headers.append(("Content-Length", str(MAX_BODY_BYTES + excess)))
        half_close = True
    else:  # digest
        declared = draw(
            st.one_of(st.text(_HEX, min_size=64, max_size=64), st.text(_PATH_CHARS))
        )
        if declared == hashlib.sha256(body).hexdigest():
            declared = "0" * 64 if declared != "0" * 64 else "1" * 64
        headers.append(("Content-Length", str(len(body))))
        headers.append((DIGEST_HEADER, declared))
    head = f"{method} {path} HTTP/1.1\r\n"
    head += "".join(f"{name}: {value}\r\n" for name, value in headers)
    return method, head.encode("utf-8") + b"\r\n" + body, half_close


def _exchange(port: int, method: str, raw: bytes, half_close: bool) -> int:
    """Send ``raw`` and return the reply's status code."""
    with socket.create_connection(("127.0.0.1", port), CLIENT_TIMEOUT_S) as sock:
        sock.sendall(raw)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        reply = http.client.HTTPResponse(sock, method=method)
        reply.begin()
        status = reply.status
        reply.close()
        return status


def _get_canary(port: int) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=CLIENT_TIMEOUT_S)
    try:
        conn.request("GET", f"/v1/summary/{CANARY_KEY}")
        reply = conn.getresponse()
        return reply.status, reply.read()
    finally:
        conn.close()


class _Served:
    """One in-process server; handler exceptions are recorded."""

    def __init__(self, root: str):
        self.server = make_server(root, port=0)
        self.server.RequestHandlerClass.timeout = SERVER_TIMEOUT_S
        self.server.daemon_threads = False  # server_close joins handlers
        self.errors: list[str] = []
        report = self.server.handle_error

        def handle_error(request, client_address):
            self.errors.append(repr(sys.exc_info()[1]))
            report(request, client_address)

        self.server.handle_error = handle_error
        self.port = self.server.server_address[1]
        self.thread = threading.Thread(
            target=self.server.serve_forever, args=(0.01,), daemon=True
        )
        self.thread.start()

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5.0)


def test_store_serve_answers_malformed_requests_with_4xx(tmp_path, capfd):
    root = str(tmp_path / "served")

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    @given(request=_malformed_requests())
    def check(request):
        method, raw, half_close = request
        served = _Served(root)
        served.server.RequestHandlerClass.backend.put("summary", CANARY_KEY, CANARY)
        try:
            status = _exchange(served.port, method, raw, half_close)
            assert 400 <= status < 500, (status, raw[:200])
            assert _get_canary(served.port) == (200, CANARY)
        finally:
            served.close()
        assert served.errors == [], raw[:200]

    check()
    assert "Traceback" not in capfd.readouterr().err


# ----------------------------------------------------------------------
# Regression cases for what the fuzzer found
# ----------------------------------------------------------------------
def _read_to_eof(sock: socket.socket) -> bytes:
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def test_stalled_put_body_is_answered_408_not_waited_on_forever(tmp_path):
    # The handler used to have no socket timeout: a PUT whose body
    # stopped short on an open connection held its thread forever.
    from repro.store.server import REQUEST_TIMEOUT_S, StoreRequestHandler

    assert StoreRequestHandler.timeout == REQUEST_TIMEOUT_S
    served = _Served(str(tmp_path))
    try:
        raw = (
            f"PUT /v1/summary/{CANARY_KEY} HTTP/1.1\r\nHost: store\r\n"
            "Content-Length: 100\r\n\r\npartial"
        ).encode("ascii")
        assert _exchange(served.port, "PUT", raw, half_close=False) == 408
    finally:
        served.close()
    assert served.errors == []


def test_head_error_reply_carries_no_body(tmp_path):
    served = _Served(str(tmp_path))
    try:
        with socket.create_connection(("127.0.0.1", served.port), 5.0) as sock:
            sock.sendall(
                f"HEAD /v1/summary/{CANARY_KEY} HTTP/1.1\r\nHost: s\r\n\r\n".encode()
            )
            reply = _read_to_eof(sock)
    finally:
        served.close()
    head, _, rest = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 404")
    assert rest == b""


def test_rejected_put_body_is_never_parsed_as_a_request(tmp_path):
    # A rejected PUT leaves its body unread; on a kept-alive connection
    # those bytes used to be served as a second, smuggled request.
    served = _Served(str(tmp_path))
    served.server.RequestHandlerClass.backend.put("summary", CANARY_KEY, CANARY)
    smuggled = f"GET /v1/summary/{CANARY_KEY} HTTP/1.1\r\nHost: s\r\n\r\n"
    try:
        with socket.create_connection(("127.0.0.1", served.port), 5.0) as sock:
            sock.sendall(
                (
                    "PUT /v1/bogus HTTP/1.1\r\nHost: s\r\n"
                    f"Content-Length: {len(smuggled)}\r\n\r\n{smuggled}"
                ).encode()
            )
            reply = _read_to_eof(sock)
    finally:
        served.close()
    assert reply.startswith(b"HTTP/1.1 404")
    assert reply.count(b"HTTP/1.1 ") == 1
    assert CANARY not in reply
