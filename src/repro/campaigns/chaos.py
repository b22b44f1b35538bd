"""Deterministic chaos injection for the campaign fabric.

The supervised executor (:mod:`repro.campaigns.supervision`) tolerates
crash faults the same way the algorithms it measures do — and like those
algorithms, its fault tolerance should be machine-checked, not asserted.
This module injects faults *deterministically*: every decision is a pure
function of ``(chaos seed, fault kind, spec key, attempt)``, hashed the
same way the simulator derives RNG streams, so a chaos run is exactly
reproducible and — because injected faults stop firing after ``times``
attempts per point — provably converges to the same store contents and
merged artifacts as a fault-free run.

Fault kinds:

``worker_kill``
    The worker process exits hard (``os._exit``) before running the
    point, simulating an OOM kill or preemption.  The supervisor sees
    the pipe close, respawns the worker, and requeues the point.
``point_hang``
    The worker sleeps ``seconds`` before running the point, simulating a
    wedged simulation.  Recovered only by the supervisor's per-point
    timeout, which kills the worker and retries the point, so the
    supervisor rejects a hang directive when no timeout is set.
``transient_error``
    The worker reports a synthetic exception for the point, exercising
    the bounded-retry/backoff path.
``store_corrupt``
    The supervisor flips bytes in the store entry it just wrote; the
    self-verifying read detects the damage and the point is re-run.

Chaos is an *execution* directive, not provenance: it is carried on
:class:`~repro.campaigns.spec.CampaignSpec` in a field excluded from
serialization and equality, so store keys, manifests, and reports are
byte-identical with and without it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.errors import ExperimentError

__all__ = [
    "CHAOS_KINDS",
    "ChaosSpec",
    "chaos_fraction_hits",
    "corrupt_store_entry",
    "parse_chaos",
]

CHAOS_KINDS = ("worker_kill", "point_hang", "transient_error", "store_corrupt")

#: Default hang duration — long enough that a hung point can only complete
#: through the supervisor's per-point timeout (kill and retry).
DEFAULT_HANG_SECONDS = 3600.0


@dataclass(frozen=True)
class ChaosSpec:
    """One deterministic fault-injection directive.

    ``fraction`` of points are hit (selected by hash, not sampling), each
    for its first ``times`` attempts only.  ``seed`` namespaces the
    selection so independent chaos runs can hit different subsets.
    """

    kind: str
    fraction: float = 0.5
    times: int = 1
    seed: int = 0
    seconds: float = field(default=DEFAULT_HANG_SECONDS)

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_KINDS:
            known = ", ".join(CHAOS_KINDS)
            raise ExperimentError(f"unknown chaos kind {self.kind!r} (known: {known})")
        if not 0.0 <= self.fraction <= 1.0:
            raise ExperimentError(
                f"chaos fraction must be in [0, 1], got {self.fraction!r}"
            )
        if self.times < 1:
            raise ExperimentError(f"chaos times must be >= 1, got {self.times!r}")
        if self.seconds <= 0:
            raise ExperimentError(f"chaos seconds must be > 0, got {self.seconds!r}")

    def hits(self, spec_key: str, attempt: int) -> bool:
        """True when this directive fires for ``spec_key`` on ``attempt``.

        Attempts are numbered from 0; a directive fires on attempts
        ``0..times-1`` of hit points, so retries always converge once the
        supervisor allows at least ``times`` retries.
        """
        if attempt >= self.times:
            return False
        return chaos_fraction_hits(self.seed, self.kind, spec_key, self.fraction)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "fraction": self.fraction,
            "times": self.times,
            "seed": self.seed,
            "seconds": self.seconds,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosSpec":
        return cls(**data)


def chaos_fraction_hits(seed: int, kind: str, spec_key: str, fraction: float) -> bool:
    """Deterministic per-point selection: hash to [0, 1) and threshold.

    Mirrors the simulator's reserved-stream discipline (sha256 over a
    ``/``-joined path) so chaos decisions are independent of every other
    random draw in the system.
    """
    digest = hashlib.sha256(f"chaos/{seed}/{kind}/{spec_key}".encode()).digest()
    u = int.from_bytes(digest[:8], "big") / 2**64
    return u < fraction


def max_chaos_times(chaos: tuple[ChaosSpec, ...]) -> int:
    """Largest ``times`` across the directives (0 when none).

    Every kind costs one retry per hit attempt: a kill, an error and a
    corrupt checkpoint each requeue the point, and a hang is ended by the
    per-point timeout, which kills the worker and requeues it too.
    """
    return max((c.times for c in chaos), default=0)


def corrupt_store_entry(store, key: str, seed: int) -> None:
    """Deterministically damage the summary entry for ``key``.

    Reads the entry back *through the store's backend*, flips a
    hash-chosen byte, and writes it back the same way — so against an
    HTTP store the corruption round-trips the wire exactly like a real
    write (the transport digest covers the corrupt bytes, so only the
    store's own document-level verify-read can catch it).  Used by the
    supervisor after a checkpoint write when a ``store_corrupt``
    directive fires.
    """
    backend = store.backend
    raw = backend.get("summary", key)
    if not raw:
        return
    data = bytearray(raw)
    digest = hashlib.sha256(f"chaos-corrupt/{seed}/{key}".encode()).digest()
    offset = int.from_bytes(digest[:8], "big") % len(data)
    data[offset] ^= 0xFF
    backend.put("summary", key, bytes(data))


def parse_chaos(text: str) -> ChaosSpec:
    """Parse a CLI chaos directive: ``kind[:param=value,...]``.

    Examples::

        worker_kill
        worker_kill:fraction=0.5,times=2
        point_hang:fraction=0.25,seconds=30,seed=7
    """
    kind, _, params_text = text.partition(":")
    kind = kind.strip()
    params: dict[str, float | int] = {}
    if params_text:
        for item in params_text.split(","):
            name, sep, value = item.partition("=")
            name = name.strip()
            if not sep or not name:
                raise ExperimentError(
                    f"bad chaos parameter {item!r} in {text!r}"
                    " (expected kind:param=value,...)"
                )
            try:
                if name in ("times", "seed"):
                    params[name] = int(value)
                elif name in ("fraction", "seconds"):
                    params[name] = float(value)
                else:
                    known = "fraction, times, seed, seconds"
                    raise ExperimentError(
                        f"unknown chaos parameter {name!r} in {text!r}"
                        f" (known: {known})"
                    )
            except ValueError:
                raise ExperimentError(
                    f"bad chaos value {value!r} for {name!r} in {text!r}"
                ) from None
    return ChaosSpec(kind=kind, **params)
