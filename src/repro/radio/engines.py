"""Reception engines: how one radio slot's receptions are computed.

The slot *semantics* live in :mod:`repro.radio.slotted` (binary collision)
and :mod:`repro.radio.sinr` (SINR threshold).  A *reception engine* is an
interchangeable implementation strategy for those semantics:

* ``reference`` — pure python, always available.  The collision pass is
  driven by the slot's transmitters (each pushes itself to its listening
  G'-neighbors), so a slot costs O(Σ transmitter degree), not a walk over
  every node; the SINR pass decodes listener by listener.  The golden
  fixtures gate it byte-for-byte.
* ``vectorized`` — numpy-batched: one array pass per slot (CSR adjacency +
  bucketed collision counts for the collision radio; a chunked
  listener × sender gain matrix with a single interference
  ``P·d^-alpha`` sweep for SINR).  Requires numpy (the ``fast`` extra);
  produces **identical receptions and identical RNG stream consumption**
  as ``reference`` on the same seed — the cross-engine equality matrix in
  ``tests/test_engines.py`` gates this on every radio-family substrate ×
  fault scenario.

Engines live in the :data:`RECEPTION_ENGINES` registry (mirroring the
substrate registry pattern) and are selected per run via
``ModelSpec.engine``: ``reference`` (default), ``vectorized``, or ``auto``
(vectorized when numpy is importable, reference otherwise).  numpy is
strictly optional — pure-python installs keep working on the default.

An engine exposes two *pass builders*, one per reception model.  A pass is
built once per network (precomputing index maps, CSR adjacency, position
arrays) and then called once per slot with the slot's transmissions,
returning ``(receptions, collisions)``; the network object keeps
transmitter validation, ``SlotStats`` accounting, and the slot counter.

Determinism notes for the vectorized lane:

* **Slotted coin draws.**  The reference draws one fading coin per
  (listener, transmitting grey neighbor) pair, listeners ascending and
  neighbors sorted, only for pairs whose edge is not effectively reliable.
  The vectorized pass selects exactly those pairs (in the same flat CSR
  order) with a mask and draws exactly that many coins from the same
  stream — draw-for-draw identical.
* **SINR float identity.**  The interference total is accumulated
  left-to-right over sorted senders via ``np.cumsum`` (sequential, like
  the reference's ``+=`` loop, unlike ``np.sum``'s pairwise reduction);
  distances use ``sqrt``/``pow`` which match CPython's ``** 0.5`` /
  ``** -alpha`` on correctly-rounded libms.  The equality matrix is the
  gate: any platform where these diverge fails loudly there.
* **Faults.**  Node-liveness and effective-reliability masks are cached
  and rebuilt only when ``fault_engine.epoch`` changes, using only the
  engine's public point queries — fault transitions are rare, so the per
  slot cost stays array-shaped.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from repro.errors import ExperimentError
from repro.ids import NodeId

#: :data:`_np` before :func:`_numpy` has tried to import numpy.
_UNTRIED: Any = object()
#: The numpy module, or ``None`` when it is not importable (numpy is the
#: optional "fast" extra; everything here degrades to the reference engine
#: without it).  Tests set it to ``None`` to run as if numpy were absent.
_np: Any = _UNTRIED

#: The engine name specs default to (and the only one with no deps).
DEFAULT_ENGINE = "reference"
#: Pseudo-name resolving to ``vectorized`` when numpy imports, else
#: ``reference``.
AUTO_ENGINE = "auto"

#: ``reference`` SINR precomputes the full pairwise gain table up to this
#: many nodes (the historical behavior); above it, per-listener rows are
#: computed on the fly from the same scalar expressions — identical
#: floats, O(senders) memory — so 10⁴–10⁵-node runs don't build an n²
#: python dict.
SINR_TABLE_MAX_NODES = 512

#: Listener × sender cells per chunk in the vectorized SINR pass; bounds
#: the per-slot float temporaries to tens of MB regardless of n.
_SINR_CHUNK_CELLS = 4_000_000

#: One slot's work: transmissions -> (receptions, collision count).
SlotPass = Callable[[dict], tuple[dict, int]]


class EngineRegistry:
    """A named map from string keys to reception engines.

    Mirrors :class:`repro.experiments.registries.Registry` (same surface,
    same error shapes) but is defined locally: that module imports
    :mod:`repro.radio` at load time, so importing it from here would be a
    circular import.
    """

    def __init__(self, label: str):
        self.label = label
        self._entries: dict[str, Any] = {}

    def register(self, name: str) -> Callable[[Any], Any]:
        """Decorator: register the decorated object under ``name``."""
        if not name:
            raise ExperimentError(f"{self.label} registry key must be non-empty")

        def _decorator(obj: Any) -> Any:
            if name in self._entries:
                raise ExperimentError(
                    f"{self.label} registry already has an entry {name!r}"
                )
            self._entries[name] = obj
            return obj

        return _decorator

    def get(self, name: str) -> Any:
        """The entry for ``name``; raises with the known keys otherwise."""
        try:
            return self._entries[name]
        except KeyError:
            known = ", ".join(self.names()) or "<empty>"
            raise ExperimentError(
                f"unknown {self.label} {name!r}; registered: {known}"
            ) from None

    def names(self) -> list[str]:
        """All registered keys, sorted."""
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries)


#: The reception-engine registry: string key -> engine instance.
RECEPTION_ENGINES = EngineRegistry("reception engine")


def _numpy() -> Any:
    """The numpy module, or ``None`` without it.

    Imported on first use, not with this module, so runs that never touch
    the vectorized engine never load numpy; the outcome is cached in
    :data:`_np`.
    """
    global _np
    if _np is _UNTRIED:
        try:
            import numpy
        except ImportError:
            numpy = None
        _np = numpy
    return _np


def numpy_available() -> bool:
    """Whether numpy imports (the ``vectorized`` engine's requirement)."""
    return _numpy() is not None


def engine_names(include_auto: bool = True) -> list[str]:
    """Selectable engine names (``auto`` first, then registered keys)."""
    names = RECEPTION_ENGINES.names()
    return ([AUTO_ENGINE] + names) if include_auto else names


def resolve_engine(name: str) -> "ReceptionEngine":
    """The engine instance for ``name``, with availability enforced.

    ``auto`` silently resolves to ``vectorized`` when numpy is importable
    and to ``reference`` otherwise.  Asking for an unavailable engine by
    its explicit name raises :class:`~repro.errors.ExperimentError` naming
    the install extra, so a spec that *requires* the fast lane fails
    loudly instead of silently running 100× slower.
    """
    if name == AUTO_ENGINE:
        name = "vectorized" if numpy_available() else DEFAULT_ENGINE
    engine = RECEPTION_ENGINES.get(name)
    if not engine.available():
        raise ExperimentError(
            f"reception engine {name!r} requires {engine.requires}, which is "
            f"not importable; install the 'fast' extra "
            f"(pip install 'repro[fast]') or select engine='reference' "
            f"(or 'auto' to fall back automatically)"
        )
    return engine


# ----------------------------------------------------------------------
# Reference passes (pure python)
# ----------------------------------------------------------------------
def _slotted_reference_pass(network) -> SlotPass:
    """The collision pass in pure python, driven by the slot's transmitters.

    Each transmitter pushes itself onto the hear-list of every listening
    G'-neighbor, senders ascending; then each listener that heard anyone,
    ascending, draws one fading coin per grey sender on its list in list
    order.  That is listeners ascending, senders ascending — the coin
    order every engine keeps — at a cost of O(Σ transmitter degree)
    instead of a walk over every node and its neighbor list.
    """
    dual = network.dual
    gprime_sorted = dual.gprime_neighbors_sorted
    reliable_adj = dual.reliable_adjacency

    def run(transmissions: dict) -> tuple[dict, int]:
        engine = network.fault_engine
        random_f = network._rng.raw.random  # bernoulli(p) == random_f() < p
        p_live = network.p_unreliable_live
        heard: dict[NodeId, list[NodeId]] = {}
        for u in sorted(transmissions):
            for v in gprime_sorted(u):
                if v in transmissions:
                    continue  # transmitters cannot listen
                senders = heard.get(v)
                if senders is None:
                    heard[v] = [u]
                else:
                    senders.append(u)
        receptions: dict[NodeId, tuple[NodeId, Any]] = {}
        collisions = 0
        for v in sorted(heard):
            if engine is not None and not engine.is_active(v):
                continue  # dead nodes hear nothing
            reliable_set = reliable_adj[v]
            live = 0
            sender = None
            for u in heard[v]:
                if engine is not None:
                    reliable = engine.is_reliable_edge(u, v)
                else:
                    reliable = u in reliable_set
                if reliable or random_f() < p_live:
                    live += 1
                    sender = u
            if live == 1:
                receptions[v] = (sender, transmissions[sender])
            elif live > 1:
                collisions += 1
        return receptions, collisions

    return run


def _sinr_gain_table(network) -> dict[NodeId, dict[NodeId, float]]:
    """The full pairwise received-power table ``P·d^-alpha`` (symmetric)."""
    from repro.radio.sinr import MIN_DISTANCE

    positions = network.dual.positions
    power = network.power
    alpha = network.alpha
    gain: dict[NodeId, dict[NodeId, float]] = {}
    nodes = network.dual.nodes_sorted
    for u in nodes:
        ux, uy = positions[u]
        row: dict[NodeId, float] = {}
        for v in nodes:
            if u == v:
                continue
            vx, vy = positions[v]
            dist = max(((ux - vx) ** 2 + (uy - vy) ** 2) ** 0.5, MIN_DISTANCE)
            row[v] = power * dist**-alpha
        gain[u] = row
    return gain


def _sinr_reference_pass(network) -> SlotPass:
    """The per-node SINR decode loop exactly as ``SINRRadioNetwork`` ran
    it: sequential interference sum over sorted senders, strict-greater
    best-signal tie-break (earliest sorted sender wins ties).

    Up to :data:`SINR_TABLE_MAX_NODES` nodes the full gain table is
    precomputed (the historical behavior); above that, per-listener rows
    over the slot's senders are computed on demand from the *same scalar
    expressions*, so receptions are identical while memory stays
    O(senders) instead of O(n²).
    """
    from repro.radio.sinr import MIN_DISTANCE

    dual = network.dual
    positions = dual.positions
    power = network.power
    alpha = network.alpha
    beta = network.beta
    noise = network.noise
    table = _sinr_gain_table(network) if dual.n <= SINR_TABLE_MAX_NODES else None

    def run(transmissions: dict) -> tuple[dict, int]:
        engine = network.fault_engine
        senders = sorted(transmissions)
        receptions: dict[NodeId, tuple[NodeId, Any]] = {}
        collisions = 0
        for v in dual.nodes_sorted:
            if v in transmissions:
                continue  # transmitters cannot listen
            if engine is not None and not engine.is_active(v):
                continue  # dead nodes hear nothing
            if table is not None:
                row = table[v]
            else:
                vx, vy = positions[v]
                row = {}
                for u in senders:
                    ux, uy = positions[u]
                    dist = max(
                        ((vx - ux) ** 2 + (vy - uy) ** 2) ** 0.5, MIN_DISTANCE
                    )
                    row[u] = power * dist**-alpha
            total = 0.0
            for u in senders:
                total += row[u]
            if total <= 0.0:
                continue
            neighbors = dual.gprime_neighbors(v)
            best: NodeId | None = None
            best_gain = 0.0
            for u in senders:
                if u not in neighbors:
                    continue  # reception is local broadcast over G'
                signal = row[u]
                if signal < beta * (noise + total - signal):
                    continue
                if best is None or signal > best_gain:
                    best = u
                    best_gain = signal
            if best is not None:
                receptions[v] = (best, transmissions[best])
            elif any(u in neighbors for u in senders):
                collisions += 1  # audible traffic, nothing decodable
        return receptions, collisions

    return run


# ----------------------------------------------------------------------
# Vectorized passes (numpy)
# ----------------------------------------------------------------------
class _FaultMasks:
    """Epoch-cached liveness/reliability masks for one fault engine.

    Rebuilt (via the engine's *public* point queries only) when
    ``engine.epoch`` changes; every other slot is an O(1) cache hit.
    """

    def __init__(self, nodes, edge_pairs):
        self._nodes = nodes
        self._edge_pairs = edge_pairs  # (u, v) node-id pairs, grey edges
        self._epoch: int | None = None
        self.active = None
        self.promoted = None

    def refresh(self, engine) -> None:
        if self._epoch == engine.epoch:
            return
        np = _numpy()
        self.active = np.fromiter(
            (engine.is_active(v) for v in self._nodes),
            dtype=bool,
            count=len(self._nodes),
        )
        self.promoted = np.fromiter(
            (engine.is_reliable_edge(u, v) for u, v in self._edge_pairs),
            dtype=bool,
            count=len(self._edge_pairs),
        )
        self._epoch = engine.epoch


def _slotted_vectorized_pass(network) -> SlotPass:
    """One array pass per slot over a flat CSR of the G' adjacency.

    The CSR is laid out in the reference loop's exact iteration order
    (listeners ascending, neighbors sorted), so ``np.flatnonzero`` over
    the coin-needing edges enumerates pairs in reference draw order — the
    coins come from the same stream, in the same order, in the same
    count.
    """
    np = _numpy()
    dual = network.dual
    nodes = dual.nodes_sorted
    n = len(nodes)
    index_of = {v: i for i, v in enumerate(nodes)}
    edge_v_list: list[int] = []
    edge_u_list: list[int] = []
    reliable_list: list[bool] = []
    for i, v in enumerate(nodes):
        reliable_set = dual.reliable_neighbors(v)
        for u in dual.gprime_neighbors_sorted(v):
            edge_v_list.append(i)
            edge_u_list.append(index_of[u])
            reliable_list.append(u in reliable_set)
    edge_v = np.asarray(edge_v_list, dtype=np.int64)
    edge_u = np.asarray(edge_u_list, dtype=np.int64)
    base_reliable = np.asarray(reliable_list, dtype=bool)
    grey_edges = np.flatnonzero(~base_reliable)
    grey_pairs = [
        (nodes[edge_u[e]], nodes[edge_v[e]]) for e in grey_edges.tolist()
    ]
    masks = _FaultMasks(nodes, grey_pairs)
    node_ids = np.asarray(nodes)

    def run(transmissions: dict) -> tuple[dict, int]:
        engine = network.fault_engine
        random_f = network._rng.raw.random
        p_live = network.p_unreliable_live
        tx = np.zeros(n, dtype=bool)
        for sender in transmissions:
            tx[index_of[sender]] = True
        reliable = base_reliable
        if engine is None:
            listening = ~tx
        else:
            masks.refresh(engine)
            listening = masks.active & ~tx
            if masks.promoted.any():
                reliable = base_reliable.copy()
                reliable[grey_edges] = masks.promoted
        considered = listening[edge_v] & tx[edge_u]
        live = considered & reliable
        coin_edges = np.flatnonzero(considered & ~reliable)
        draws = coin_edges.size
        if draws:
            coins = np.fromiter(
                (random_f() for _ in range(draws)),
                dtype=np.float64,
                count=draws,
            )
            live[coin_edges[coins < p_live]] = True
        live_dst = edge_v[live]
        counts = np.bincount(live_dst, minlength=n)
        receivers = np.flatnonzero(counts == 1)
        collisions = int(np.count_nonzero(counts > 1))
        receptions: dict[NodeId, tuple[NodeId, Any]] = {}
        if receivers.size:
            # With exactly one live sender per receiver, the weighted
            # bincount *is* that sender's index.
            sender_at = np.bincount(
                live_dst, weights=edge_u[live], minlength=n
            )
            for i in receivers.tolist():
                sender = node_ids[int(sender_at[i])].item()
                receptions[node_ids[i].item()] = (
                    sender,
                    transmissions[sender],
                )
        return receptions, collisions

    return run


def _sinr_vectorized_pass(network) -> SlotPass:
    """Chunked listener × sender gain sweep for the SINR decode.

    Per slot: one distance/power broadcast per listener chunk, a
    ``cumsum`` interference total (sequential left-to-right, matching the
    reference accumulation order bit-for-bit), a masked first-argmax for
    the decode (argmax's first-occurrence rule reproduces the reference's
    strict-greater tie-break), and a bool audibility reduction for the
    collision count.  Memory is O(chunk × senders), never O(n²).
    """
    from repro.radio.sinr import MIN_DISTANCE

    np = _numpy()
    dual = network.dual
    nodes = dual.nodes_sorted
    n = len(nodes)
    index_of = {v: i for i, v in enumerate(nodes)}
    pos = np.asarray([dual.positions[v] for v in nodes], dtype=np.float64)
    # Flat listener-major adjacency (CSR-style): edge_listener[k] hears
    # edge_node[k].  Listener-major build order keeps edge_listener
    # non-decreasing, which the per-chunk searchsorted fill relies on.
    _listener_parts: list[Any] = []
    _node_parts: list[Any] = []
    for i, v in enumerate(nodes):
        row = np.asarray(
            [index_of[u] for u in dual.gprime_neighbors_sorted(v)],
            dtype=np.int64,
        )
        if row.size:
            _listener_parts.append(np.full(row.size, i, dtype=np.int64))
            _node_parts.append(row)
    if _listener_parts:
        edge_listener = np.concatenate(_listener_parts)
        edge_node = np.concatenate(_node_parts)
    else:  # pragma: no cover - degenerate edgeless network
        edge_listener = np.empty(0, dtype=np.int64)
        edge_node = np.empty(0, dtype=np.int64)
    del _listener_parts, _node_parts
    masks = _FaultMasks(nodes, [])
    node_ids = np.asarray(nodes)
    power = network.power
    alpha = network.alpha
    beta = network.beta
    noise = network.noise

    def run(transmissions: dict) -> tuple[dict, int]:
        engine = network.fault_engine
        senders = sorted(transmissions)
        count = len(senders)
        receptions: dict[NodeId, tuple[NodeId, Any]] = {}
        if not count:
            return receptions, 0
        sender_idx = np.asarray(
            [index_of[u] for u in senders], dtype=np.int64
        )
        sender_pos = pos[sender_idx]
        tx = np.zeros(n, dtype=bool)
        tx[sender_idx] = True
        if engine is None:
            listening = ~tx
        else:
            masks.refresh(engine)
            listening = masks.active & ~tx
        # (listener, sender-column) pairs of every G'-audible transmission
        # this slot, kept as two flat arrays sorted by listener — the
        # chunk loop slices them with searchsorted, so per-slot memory is
        # O(chunk × senders + E), never O(n × senders).
        sender_col = np.full(n, -1, dtype=np.int64)
        sender_col[sender_idx] = np.arange(count, dtype=np.int64)
        cols_all = sender_col[edge_node]
        keep = (cols_all >= 0) & listening[edge_listener]
        pair_l = edge_listener[keep]
        pair_c = cols_all[keep]
        listeners = np.flatnonzero(listening)
        chunk = max(1, _SINR_CHUNK_CELLS // count)
        collisions = 0
        for start in range(0, listeners.size, chunk):
            rows = listeners[start : start + chunk]
            dx = pos[rows, 0:1] - sender_pos[:, 0][None, :]
            dy = pos[rows, 1:2] - sender_pos[:, 1][None, :]
            dist = np.sqrt(dx * dx + dy * dy)
            np.maximum(dist, MIN_DISTANCE, out=dist)
            gain = power * dist**-alpha
            # Sequential left-to-right sum (cumsum), NOT np.sum's pairwise
            # reduction: bit-identical to the reference's += loop.
            total = np.cumsum(gain, axis=1)[:, -1]
            near = np.zeros((rows.size, count), dtype=bool)
            lo = np.searchsorted(pair_l, rows[0])
            hi = np.searchsorted(pair_l, rows[-1], side="right")
            if hi > lo:
                near[
                    np.searchsorted(rows, pair_l[lo:hi]), pair_c[lo:hi]
                ] = True
            decodable = near & (gain >= beta * (noise + total[:, None] - gain))
            candidate = np.where(decodable, gain, -1.0)
            best_j = np.argmax(candidate, axis=1)
            arange = np.arange(rows.size)
            decoded = decodable[arange, best_j] & (total > 0.0)
            audible = near.any(axis=1) & (total > 0.0)
            collisions += int(np.count_nonzero(audible & ~decoded))
            for r in np.flatnonzero(decoded).tolist():
                sender = senders[int(best_j[r])]
                receptions[node_ids[rows[r]].item()] = (
                    sender,
                    transmissions[sender],
                )
        return receptions, collisions

    return run


# ----------------------------------------------------------------------
# The engines
# ----------------------------------------------------------------------
class ReceptionEngine:
    """Base class: a named implementation strategy for slot reception."""

    #: Registry key.
    name: str = ""
    #: One-line description (shown by ``python -m repro registry``).
    description: str = ""
    #: Human-readable requirement (``""`` when always available).
    requires: str = ""

    def available(self) -> bool:
        """Whether the engine can run in this interpreter."""
        return True

    def slotted_pass(self, network) -> SlotPass:
        """A per-slot pass for a :class:`SlottedRadioNetwork`."""
        raise NotImplementedError

    def sinr_pass(self, network) -> SlotPass:
        """A per-slot pass for a :class:`SINRRadioNetwork`."""
        raise NotImplementedError

    def describe(self) -> str:
        return self.description


class ReferenceEngine(ReceptionEngine):
    """Pure-python slot reception — the semantics of record, always available."""

    name = "reference"
    description = (
        "pure python: transmitter-driven collision pass, per-listener SINR "
        "decode (always available; golden-fixture gated)"
    )
    requires = ""

    def slotted_pass(self, network) -> SlotPass:
        return _slotted_reference_pass(network)

    def sinr_pass(self, network) -> SlotPass:
        return _sinr_reference_pass(network)


class VectorizedEngine(ReceptionEngine):
    """numpy-batched slot reception — identical receptions, array speed."""

    name = "vectorized"
    description = (
        "numpy-batched slot reception (requires the 'fast' extra; "
        "identical receptions to reference)"
    )
    requires = "numpy"

    def available(self) -> bool:
        return numpy_available()

    def slotted_pass(self, network) -> SlotPass:
        return _slotted_vectorized_pass(network)

    def sinr_pass(self, network) -> SlotPass:
        return _sinr_vectorized_pass(network)


# The registry holds shared engine *instances* (engines are stateless —
# all per-network state lives in the passes they build).
REFERENCE: ReceptionEngine = RECEPTION_ENGINES.register("reference")(
    ReferenceEngine()
)
VECTORIZED: ReceptionEngine = RECEPTION_ENGINES.register("vectorized")(
    VectorizedEngine()
)
