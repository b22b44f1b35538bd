"""Pluggable result-store backends.

The campaign layer's content-addressed store
(:class:`repro.campaigns.store.ResultStore`) speaks to byte storage
through the :class:`~repro.store.backend.StoreBackend` protocol defined
here.  ``local`` is the historical directory layout, byte for byte;
``http`` speaks the minimal content-addressed protocol served by
:mod:`repro.store.server` (``repro store serve``), with checksum
self-verification, deterministic retry, and an optional write-through
local cache.  :func:`open_backend` maps ``--store`` arguments (paths or
``http(s)://`` URLs) onto backends; :mod:`repro.store.tools` holds the
``repro store {sync,verify,gc}`` implementations.
"""

from repro._lazy import lazy_exports

#: Each public name's defining module, imported when the name is first read.
_SOURCES = {
    "repro.store.backend": (
        "KIND_SUFFIXES",
        "KINDS",
        "StoreBackend",
        "StoreError",
        "StoreIntegrityError",
        "StoreUnavailableError",
        "entry_filename",
        "entry_relpath",
        "open_backend",
        "parse_entry_filename",
        "valid_key",
    ),
    "repro.store.http": ("HttpBackend",),
    "repro.store.local": ("LocalBackend",),
    "repro.store.retry": ("deterministic_backoff",),
    "repro.store.server": ("make_server", "serve"),
    "repro.store.tools": (
        "GcReport",
        "StoreVerifyReport",
        "SyncReport",
        "gc_store",
        "sync_stores",
        "verify_store",
    ),
}

__all__ = [
    "KINDS",
    "KIND_SUFFIXES",
    "GcReport",
    "HttpBackend",
    "LocalBackend",
    "StoreBackend",
    "StoreError",
    "StoreIntegrityError",
    "StoreUnavailableError",
    "StoreVerifyReport",
    "SyncReport",
    "deterministic_backoff",
    "entry_filename",
    "entry_relpath",
    "gc_store",
    "make_server",
    "open_backend",
    "parse_entry_filename",
    "serve",
    "sync_stores",
    "valid_key",
    "verify_store",
]

__getattr__, __dir__ = lazy_exports(__name__, _SOURCES, __all__)
