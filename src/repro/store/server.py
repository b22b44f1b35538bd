"""Stdlib-only reference store server (``repro store serve``).

A thin HTTP face over :class:`~repro.store.local.LocalBackend`: the
on-disk layout it serves is exactly a local store directory, so the
served root can be opened with ``--store <dir>`` on the host, rsync'd,
or diffed against any other store.  Writes go through the same atomic
tmp+rename path as the local backend, serialized by a single writer
lock, so concurrent workers PUTting the same content-addressed entry
race harmlessly — last rename wins and both wrote identical bytes.

Endpoints (see :mod:`repro.store.http` for the client contract):

* ``GET/HEAD/PUT/DELETE /v1/<kind>/<key>``
* ``GET /v1/list`` — JSON inventory with per-entry size and digest.
* ``GET /v1/ping`` — liveness probe.

A PUT carrying an ``X-Repro-SHA256`` header is verified against the
received body and rejected with 400 on mismatch, so bytes mangled in
transit never land in the store.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.store.backend import KINDS, valid_key
from repro.store.http import DIGEST_HEADER
from repro.store.local import LocalBackend

#: Reject absurd bodies outright (a store entry is KB, not GB).
MAX_BODY_BYTES = 256 * 1024 * 1024
#: Seconds a connection may stall before the server gives up on it: a PUT
#: whose body stops short is answered 408, an idle connection is closed.
REQUEST_TIMEOUT_S = 30.0


def _parse_entry_url(path: str) -> tuple[str, str] | None:
    """Exactly ``/v1/<kind>/<key>`` → ``(kind, key)``, else ``None``, so
    each entry answers to one URL (no extra or trailing slashes)."""
    parts = path.split("/")
    if len(parts) != 4 or parts[:2] != ["", "v1"]:
        return None
    kind, key = parts[2], parts[3]
    if kind not in KINDS or not valid_key(key):
        return None
    return kind, key


class StoreRequestHandler(BaseHTTPRequestHandler):
    """One request against the served LocalBackend."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-store/1"
    timeout = REQUEST_TIMEOUT_S

    # Set by make_server:
    backend: LocalBackend
    write_lock: threading.Lock
    quiet: bool = True

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.quiet:
            super().log_message(format, *args)

    # ------------------------------------------------------------------
    # Reply helpers
    # ------------------------------------------------------------------
    def _reply(
        self,
        status: int,
        body: bytes = b"",
        headers: dict[str, str] | None = None,
    ) -> None:
        self.send_response(status)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if body and self.command != "HEAD":
            self.wfile.write(body)

    def _reply_error(self, status: int, message: str) -> None:
        # A rejected request may leave body bytes unread; they must never
        # be parsed as the next request, so the connection ends here.
        self.close_connection = True
        self._reply(
            status,
            (message + "\n").encode("utf-8"),
            headers={"Content-Type": "text/plain; charset=utf-8"},
        )

    # ------------------------------------------------------------------
    # Methods
    # ------------------------------------------------------------------
    def _serve_entry(self) -> None:
        parsed = _parse_entry_url(self.path)
        if parsed is None:
            self._handle_meta()
            return
        kind, key = parsed
        data = self.backend.get(kind, key)
        if data is None:
            self._reply_error(404, f"no {kind} entry {key}")
            return
        self._reply(
            200,
            data,
            headers={
                "Content-Type": "application/octet-stream",
                DIGEST_HEADER: hashlib.sha256(data).hexdigest(),
            },
        )

    def _handle_meta(self) -> None:
        path = self.path.split("?", 1)[0]
        if path == "/v1/ping":
            self._reply(200, b"ok\n")
            return
        if path == "/v1/list":
            entries = []
            for kind, key in self.backend.list_entries():
                data = self.backend.get(kind, key)
                if data is None:
                    continue
                entries.append(
                    {
                        "kind": kind,
                        "key": key,
                        "size": len(data),
                        "sha256": hashlib.sha256(data).hexdigest(),
                    }
                )
            body = json.dumps({"entries": entries}, sort_keys=True).encode("utf-8")
            self._reply(
                200,
                body,
                headers={"Content-Type": "application/json"},
            )
            return
        self._reply_error(404, f"unknown path {path}")

    def do_GET(self) -> None:  # noqa: N802
        self._serve_entry()

    def do_HEAD(self) -> None:  # noqa: N802
        self._serve_entry()

    def do_PUT(self) -> None:  # noqa: N802
        parsed = _parse_entry_url(self.path)
        if parsed is None:
            self._reply_error(404, f"unknown path {self.path}")
            return
        kind, key = parsed
        try:
            length = int(self.headers.get("Content-Length", ""))
        except ValueError:
            self._reply_error(411, "Content-Length required")
            return
        if length < 0 or length > MAX_BODY_BYTES:
            self._reply_error(413, f"body of {length} bytes refused")
            return
        try:
            data = self.rfile.read(length)
        except TimeoutError:
            self._reply_error(408, "body not received in time")
            return
        if len(data) != length:
            self._reply_error(400, "short body")
            return
        declared = self.headers.get(DIGEST_HEADER)
        if declared is not None:
            actual = hashlib.sha256(data).hexdigest()
            if actual != declared:
                self._reply_error(
                    400,
                    f"digest mismatch: body is {actual}, header said {declared}",
                )
                return
        with self.write_lock:
            self.backend.put(kind, key, data)
        self._reply(201, b"stored\n")

    def do_DELETE(self) -> None:  # noqa: N802
        parsed = _parse_entry_url(self.path)
        if parsed is None:
            self._reply_error(404, f"unknown path {self.path}")
            return
        kind, key = parsed
        with self.write_lock:
            removed = self.backend.delete(kind, key)
        if removed:
            self._reply(200, b"deleted\n")
        else:
            self._reply_error(404, f"no {kind} entry {key}")


def make_server(
    root: str,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
) -> ThreadingHTTPServer:
    """A ready-to-run store server over directory ``root``.

    ``port=0`` binds an ephemeral port (see ``server.server_address``) —
    the shape tests and in-process fixtures want.  The caller owns the
    server lifecycle (``serve_forever`` / ``shutdown``).
    """
    backend = LocalBackend(root)
    lock = threading.Lock()

    class _Handler(StoreRequestHandler):
        pass

    _Handler.backend = backend
    _Handler.write_lock = lock
    _Handler.quiet = quiet
    server = ThreadingHTTPServer((host, port), _Handler)
    server.daemon_threads = True
    return server


def serve(
    root: str,
    host: str = "127.0.0.1",
    port: int = 8750,
    quiet: bool = False,
) -> None:
    """Run the reference server until interrupted (CLI entry point)."""
    os.makedirs(root, exist_ok=True)
    server = make_server(root, host=host, port=port, quiet=quiet)
    bound_host, bound_port = server.server_address[:2]
    print(f"repro store serve: http://{bound_host}:{bound_port} -> {root}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
