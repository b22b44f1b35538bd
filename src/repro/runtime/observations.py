"""The typed observation stream every execution substrate emits through.

An execution, whatever engine ran it, is observable as one flat stream of
:class:`Observation` records — MAC events (``bcast`` / ``rcv`` / ``ack`` /
``abort``), MMB outputs (``deliver``), environment inputs (``arrival``),
substrate clock markers (``round`` / ``slot``), and fault transitions
(``crash`` / ``recover`` / ``join`` / ``leave`` / ``link_up`` /
``link_down``), and run-level profiling markers (``profile``, emitted by
the runner with wall-time / throughput / heap gauges as ``key``/``value``
pairs).  The :class:`Probe` collects the stream plus the scalar
gauges that become :attr:`ExperimentResult.metrics
<repro.experiments.ExperimentResult.metrics>`, replacing the per-substrate
ad-hoc metrics assembly with one documented surface.

Consumers:

* :class:`~repro.experiments.ExperimentResult` carries the stream in its
  ``observations`` field (``keep_raw=True`` runs only) and its ``metrics``
  are exactly the probe's gauges;
* :func:`instance_log` rebuilds the MAC instance log from the MAC-event
  subset, so a journaled run is re-certified by the axiom checker
  (:mod:`repro.campaigns.trace_checks`) and summarized by
  ``repro trace summary``;
* campaign checks read the gauges by name (``metric:<gauge>`` series).

High-frequency clocks are summarized, not enumerated: the ``round`` and
``slot`` kinds appear once per execution as an aggregate marker whose
``value`` is the count (a 200k-slot radio run must not materialize 200k
records).  Every other kind is one record per event.

The probe never perturbs execution: substrates emit observations *after*
the engine has run (derived from instance logs, delivery tables, and fault
plans), so enabling observation capture cannot change a single RNG draw.

Long-horizon service runs use the *windowed* mode
(``Probe(window=..., max_windows=...)``): each emitted event is folded
into a fixed-width time-window aggregate instead of being retained, and
at most ``max_windows`` aggregates are kept (oldest evicted first), so
observation memory is O(window count), not O(horizon).  Exact per-kind
totals survive eviction; the raw stream does not — windowed probes
report ``events() == ()`` and summarize through :meth:`Probe.windows`
and the ``obs_*`` gauges merged into :meth:`Probe.metrics`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from repro.errors import ExperimentError
from repro.ids import NodeId, Time

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.engine import FaultEngine
    from repro.mac.messages import InstanceLog, MessageInstance

#: Every observation kind a substrate may emit, in canonical tie-break
#: order (events at equal times sort by this order, then key, then node).
OBSERVATION_KINDS: tuple[str, ...] = (
    "arrival",
    "bcast",
    "rcv",
    "deliver",
    "ack",
    "abort",
    "round",
    "slot",
    "crash",
    "recover",
    "join",
    "leave",
    "link_up",
    "link_down",
    "profile",
)

_KIND_ORDER = {kind: index for index, kind in enumerate(OBSERVATION_KINDS)}

#: The MAC-event kinds :meth:`Probe.observe_instances` emits: one
#: ``bcast`` per instance, its ``rcv`` events, and its terminator.
MAC_KINDS: tuple[str, ...] = ("bcast", "rcv", "ack", "abort")


def _unknown_kind(kind: object) -> ExperimentError:
    return ExperimentError(
        f"unknown observation kind {kind!r}; one of "
        f"{', '.join(OBSERVATION_KINDS)}"
    )


class _ObservationFields(NamedTuple):
    time: Time
    kind: str
    node: NodeId | None = None
    key: str = ""
    ref: int = -1
    value: float = 1.0


_new_tuple = tuple.__new__


class Observation(_ObservationFields):
    """One typed event of an execution, substrate-independent.

    An immutable named tuple of six fields, so building one costs a tuple
    allocation plus the kind check: journals decode tens of thousands of
    records per read.  Every way of making a record — the constructor,
    :meth:`_make`, :meth:`_replace` and unpickling — rejects an unknown
    kind with :class:`~repro.errors.ExperimentError`.

    Attributes:
        time: Event time in the substrate's time unit (simulated time, or
            slots × slot duration on the slotted substrates).
        kind: One of :data:`OBSERVATION_KINDS`.
        node: The acting node (receiver for ``rcv``/``deliver``, sender
            otherwise); ``None`` for node-less markers like ``round``.
        key: A stable label — message id for ``deliver``/``arrival``,
            payload tag for MAC events, ``"u-v"`` for link transitions.
        ref: Message-instance id for MAC events (``-1`` otherwise), so
            :func:`instance_log` rebuilds the instance log losslessly.
        value: Magnitude; ``1.0`` for point events, the aggregate count
            for ``round``/``slot`` markers.
    """

    __slots__ = ()

    def __new__(
        cls,
        time: Time,
        kind: str,
        node: NodeId | None = None,
        key: str = "",
        ref: int = -1,
        value: float = 1.0,
    ) -> "Observation":
        if kind not in _KIND_ORDER:
            raise _unknown_kind(kind)
        return _new_tuple(cls, (time, kind, node, key, ref, value))

    @classmethod
    def _make(cls, iterable: Iterable) -> "Observation":
        """A record from six field values (kind-checked, unlike the
        plain named tuple's ``_make``); :meth:`_replace` builds through
        it too."""
        return cls(*iterable)

    def sort_key(self) -> tuple:
        time, kind, node, key, ref, _ = self
        return (time, _KIND_ORDER[kind], ref, -1 if node is None else node, key)


def _payload_tag(payload: object) -> str:
    """A stable string label for an instance payload."""
    mid = getattr(payload, "mid", None)
    if mid is not None:
        return str(mid)
    return str(payload)


def instance_log(observations: Iterable[Observation]) -> "InstanceLog":
    """Rebuild the MAC instance log a stream's MAC events came from.

    The inverse of :meth:`Probe.observe_instances`: only the
    :data:`MAC_KINDS` are read, in :meth:`Observation.sort_key` order,
    and payloads come back as their ``key`` tag (the axiom checker treats
    payloads opaquely).  Any stream a substrate emitted rebuilds; one
    the log cannot represent raises
    :class:`~repro.errors.ExperimentError` — instance ids that are not
    contiguous from 0, an instance without exactly one ``bcast``, a MAC
    event without a node, or a second ``rcv`` at one node (or a second
    ``ack`` or ``abort``) for one instance.
    """
    from repro.mac.messages import InstanceLog

    by_ref: dict[int, list[Observation]] = {}
    for obs in sorted(
        (obs for obs in observations if obs.kind in MAC_KINDS),
        key=Observation.sort_key,
    ):
        if obs.node is None:
            raise ExperimentError(
                f"instance {obs.ref}: {obs.kind} event without a node"
            )
        by_ref.setdefault(obs.ref, []).append(obs)
    log = InstanceLog()
    for expected, ref in enumerate(sorted(by_ref)):
        if ref != expected:
            raise ExperimentError(
                f"trace has non-contiguous instance ids (expected "
                f"{expected}, found {ref})"
            )
        events = by_ref[ref]
        bcasts = [obs for obs in events if obs.kind == "bcast"]
        if len(bcasts) != 1:
            raise ExperimentError(
                f"instance {ref} has {len(bcasts)} bcast events (need 1)"
            )
        inst = log.new_instance(bcasts[0].node, bcasts[0].key, bcasts[0].time)
        for obs in events:
            if obs.kind == "rcv":
                if obs.node in inst.rcv_times:
                    raise ExperimentError(
                        f"instance {ref} has a second rcv at node {obs.node}"
                    )
                inst.rcv_times[obs.node] = obs.time
            elif obs.kind == "ack":
                if inst.ack_time is not None:
                    raise ExperimentError(f"instance {ref} has a second ack")
                inst.ack_time = obs.time
            elif obs.kind == "abort":
                if inst.abort_time is not None:
                    raise ExperimentError(f"instance {ref} has a second abort")
                inst.abort_time = obs.time
    return log


@dataclass(frozen=True)
class WindowAggregate:
    """One time window's folded observation totals (windowed probes).

    Attributes:
        index: Window index (``int(time // window)``).
        start: Window start time (``index * window``).
        end: Window end time (exclusive).
        events: Total observation ``value`` folded into the window.
        counts: Per-kind ``value`` totals within the window.
    """

    index: int
    start: Time
    end: Time
    events: float
    counts: dict[str, float]


class _WindowBucket:
    """Mutable accumulator behind one :class:`WindowAggregate`."""

    __slots__ = ("events", "counts")

    def __init__(self) -> None:
        self.events = 0.0
        self.counts: dict[str, float] = {}

    def fold(self, kind: str, value: float) -> None:
        self.events += value
        self.counts[kind] = self.counts.get(kind, 0.0) + value


class Probe:
    """Collects one execution's observation stream and scalar gauges.

    Substrates create one probe per execution, derive observations from
    the engine's native records once it has run, and register their
    summary scalars as *gauges* — :meth:`metrics` returns exactly the
    gauge dict, which becomes ``ExperimentResult.metrics`` unchanged.

    With ``window`` set the probe runs *windowed*: emits fold into
    per-window aggregates (no raw :class:`Observation` retained) and at
    most ``max_windows`` aggregates are kept, evicting the oldest window
    first.  Eviction loses that window's breakdown but not the exact
    per-kind totals, which are tracked separately.

    Args:
        window: Window width in substrate time units; ``None`` (default)
            retains the full raw stream.
        max_windows: Bound on retained window aggregates; requires
            ``window``; ``None`` keeps every window.
    """

    def __init__(
        self, window: float | None = None, max_windows: int | None = None
    ) -> None:
        if window is not None and window <= 0:
            raise ExperimentError(
                f"observation window must be positive, got {window}"
            )
        if max_windows is not None:
            if window is None:
                raise ExperimentError(
                    "max_windows requires a window width"
                )
            if int(max_windows) < 1:
                raise ExperimentError(
                    f"max_windows must be >= 1, got {max_windows}"
                )
        self.window = float(window) if window is not None else None
        self.max_windows = int(max_windows) if max_windows is not None else None
        self._events: list[Observation] = []
        self._gauges: dict[str, float] = {}
        self._series: dict[str, tuple[tuple[float, float], ...]] = {}
        self._buckets: dict[int, _WindowBucket] = {}
        self._kind_totals: dict[str, float] = {}
        self._folded = 0.0
        self._evicted = 0
        self._peak_retained = 0

    @property
    def windowed(self) -> bool:
        """Whether this probe folds events instead of retaining them."""
        return self.window is not None

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def emit(
        self,
        kind: str,
        time: Time,
        node: NodeId | None = None,
        key: str = "",
        ref: int = -1,
        value: float = 1.0,
    ) -> None:
        """Record one observation (kind-checked); windowed probes fold it
        into the window aggregate instead of retaining it."""
        if self.window is None:
            self._events.append(Observation(time, kind, node, key, ref, value))
            return
        if kind not in _KIND_ORDER:
            raise _unknown_kind(kind)
        index = int(time // self.window)
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = self._buckets[index] = _WindowBucket()
            if (
                self.max_windows is not None
                and len(self._buckets) > self.max_windows
            ):
                # Emission is post-run and not chronological, so evict the
                # oldest window rather than assuming a moving frontier.
                del self._buckets[min(self._buckets)]
                self._evicted += 1
            self._peak_retained = max(self._peak_retained, len(self._buckets))
        bucket.fold(kind, value)
        self._kind_totals[kind] = self._kind_totals.get(kind, 0.0) + value
        self._folded += value

    def gauge(self, name: str, value: float) -> None:
        """Register one scalar metric (last write wins)."""
        self._gauges[name] = float(value)

    def gauges(self, values: dict[str, float]) -> None:
        """Register several scalar metrics at once."""
        for name, value in values.items():
            self.gauge(name, value)

    def set_series(
        self, name: str, points: Iterable[tuple[float, float]]
    ) -> None:
        """Register one named (x, y) series (last write wins).

        Series are the non-scalar companion to gauges — per-window
        latency/throughput curves and similar shapes that a single float
        cannot carry.  They surface as ``ExperimentResult.series`` and as
        ``series:<name>`` figure inputs in campaigns; they are *not*
        merged into :meth:`metrics`.
        """
        self._series[name] = tuple(
            (float(x), float(y)) for x, y in points
        )

    def series(self) -> dict[str, tuple[tuple[float, float], ...]]:
        """Every registered series, keyed by name."""
        return dict(self._series)

    # ------------------------------------------------------------------
    # Derivation helpers (post-run, never during execution)
    # ------------------------------------------------------------------
    def observe_instances(self, instances: Iterable["MessageInstance"]) -> None:
        """Emit ``bcast``/``rcv``/``ack``/``abort`` from a MAC instance log."""
        for inst in instances:
            tag = _payload_tag(inst.payload)
            self.emit("bcast", inst.bcast_time, inst.sender, tag, inst.iid)
            for receiver, rtime in inst.rcv_times.items():
                self.emit("rcv", rtime, receiver, tag, inst.iid)
            if inst.ack_time is not None:
                self.emit("ack", inst.ack_time, inst.sender, tag, inst.iid)
            if inst.abort_time is not None:
                self.emit("abort", inst.abort_time, inst.sender, tag, inst.iid)

    def observe_deliveries(
        self, times: dict[tuple[NodeId, str], Time]
    ) -> None:
        """Emit one ``deliver`` per MMB delivery table entry."""
        for (node, mid), time in times.items():
            self.emit("deliver", time, node, mid)

    def observe_arrivals(
        self, arrivals: Iterable[tuple[NodeId, str, Time]]
    ) -> None:
        """Emit one ``arrival`` per environment input (node, mid, time)."""
        for node, mid, time in arrivals:
            self.emit("arrival", time, node, mid)

    def observe_fault_plan(self, engine: "FaultEngine") -> None:
        """Emit the fault timeline (crash/join/leave/link transitions)."""
        for event in engine.plan.events:
            if event.node is not None:
                self.emit(event.kind.value, event.time, event.node)
            else:
                u, v = event.edge
                self.emit(event.kind.value, event.time, None, f"{u}-{v}")

    def observe_clock(self, kind: str, count: int, end_time: Time) -> None:
        """Emit the aggregate ``round``/``slot`` marker for an execution."""
        if kind not in ("round", "slot"):
            raise ExperimentError(
                f"clock marker must be 'round' or 'slot', got {kind!r}"
            )
        self.emit(kind, end_time, None, value=float(count))

    # ------------------------------------------------------------------
    # Consumption
    # ------------------------------------------------------------------
    def events(self) -> tuple[Observation, ...]:
        """The stream in chronological order (stable tie-break).

        Windowed probes retain no raw stream and return ``()``.
        """
        if self.window is not None:
            return ()
        return tuple(sorted(self._events, key=Observation.sort_key))

    def count(self, kind: str) -> float:
        """Total ``value`` of one kind (event count for point events).

        Exact in both modes — windowed totals survive window eviction.
        """
        if self.window is not None:
            return self._kind_totals.get(kind, 0.0)
        return sum(o.value for o in self._events if o.kind == kind)

    def counts(self) -> dict[str, float]:
        """Per-kind totals for every kind present in the stream."""
        if self.window is not None:
            return dict(self._kind_totals)
        totals: dict[str, float] = {}
        for obs in self._events:
            totals[obs.kind] = totals.get(obs.kind, 0.0) + obs.value
        return totals

    def windows(self) -> tuple[WindowAggregate, ...]:
        """Retained window aggregates in time order (windowed mode only)."""
        if self.window is None:
            raise ExperimentError(
                "windows() requires a windowed probe (pass window=...)"
            )
        return tuple(
            WindowAggregate(
                index=index,
                start=index * self.window,
                end=(index + 1) * self.window,
                events=bucket.events,
                counts=dict(bucket.counts),
            )
            for index, bucket in sorted(self._buckets.items())
        )

    def metrics(self) -> dict[str, float]:
        """The gauge dict — becomes ``ExperimentResult.metrics`` verbatim.

        Windowed probes additionally report the bounded-memory account:
        ``obs_window`` (width), ``obs_windows_retained``,
        ``obs_retained_peak``, ``obs_window_evictions``, and
        ``obs_events_folded``.
        """
        out = dict(self._gauges)
        if self.window is not None:
            out["obs_window"] = self.window
            out["obs_windows_retained"] = float(len(self._buckets))
            out["obs_retained_peak"] = float(self._peak_retained)
            out["obs_window_evictions"] = float(self._evicted)
            out["obs_events_folded"] = self._folded
        return out

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Observation]:
        return iter(self.events())
