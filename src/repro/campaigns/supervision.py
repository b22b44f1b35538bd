"""Supervised campaign execution fabric.

The executor used to hand each checkpoint batch to ``run_sweep`` and
trust every worker process to return: one hung point stalled the batch,
one killed worker lost it, and there was no retry, no budget, and no
record of what went wrong.  This module replaces that with a work-queue
supervisor modeled on the fault-tolerance framing of the paper it
reproduces — the fabric tolerates crash faults the way the algorithms it
measures do:

* **Pool of worker processes**, one duplex pipe each (never a shared
  queue: a worker killed mid-``get`` cannot poison anyone else's lock).
  A dead worker is detected by pipe EOF, respawned, and its point
  requeued.
* **Per-point wall-clock timeouts** — a point that exceeds
  ``point_timeout`` gets its worker killed and is requeued.  This is the
  only recovery for a hung point: every point is a deterministic
  function of its spec, so a second copy of a slow point would do the
  same work from a later start and could never finish first.
* **Bounded retries with deterministic exponential backoff** — the
  retry delay is derived from the spec key and attempt number (hashed,
  not sampled from wall clock), so a rerun of the same campaign retries
  on the same schedule.
* **Campaign-level budgets** — ``wall_budget`` (seconds) and
  ``point_budget`` (points executed this invocation) stop dispatching
  when exhausted.  Everything completed is already checkpointed
  (checkpointing is per point, not per batch), the run reports which
  points are missing, and the CLI exits with :data:`RESUMABLE_EXIT` so
  automation knows ``campaign resume`` will finish the job.

The fabric is the package's only process pool: a parallel
:func:`~repro.experiments.sweep.run_sweep` runs its points here too,
without a store and without retries.

Faults are injected deterministically by :mod:`repro.campaigns.chaos`;
because injected faults stop firing after ``times`` attempts and the
supervisor validates ``times <= max_retries`` (and a ``point_timeout``
for hangs), a chaos run converges to byte-identical store contents and
merged artifacts versus a fault-free run — which CI checks.
"""

from __future__ import annotations

import dataclasses
import os
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import Pipe, Process, connection

from repro.campaigns.chaos import (
    ChaosSpec,
    corrupt_store_entry,
    max_chaos_times,
)
from repro.campaigns.store import ResultStore, encode_journal, spec_key
from repro.errors import ExperimentError
from repro.experiments.runner import ExperimentResult, RunOptions
from repro.experiments.specs import ExperimentSpec
from repro.experiments.substrates import Facts, topology_facts
from repro.experiments.sweep import _run_with_options
from repro.store.backend import StoreError
from repro.store.retry import deterministic_backoff

__all__ = [
    "INTERRUPT_EXIT",
    "RESUMABLE_EXIT",
    "FabricConfig",
    "FabricEvent",
    "FabricHealth",
    "FabricOutcome",
    "backoff_delay",
    "run_supervised",
]

#: Exit status for a budget-exhausted campaign run: every completed point
#: is checkpointed and ``campaign resume`` continues — EX_TEMPFAIL in
#: sysexits terms, distinct from hard failure (1) and usage error (2).
RESUMABLE_EXIT = 75

#: Exit status after Ctrl-C: completed points are checkpointed and
#: ``campaign resume`` continues (conventional 128 + SIGINT).
INTERRUPT_EXIT = 130

#: Worker exit code used by chaos ``worker_kill`` (mirrors SIGKILL's
#: conventional 128+9 so logs read like a real OOM kill).
_CHAOS_KILL_EXIT = 137

#: Bound on the retained per-event history (counters are never bounded).
MAX_EVENTS = 200

#: Seconds the supervisor waits for a reply before it checks timeouts and
#: backoff again.  A reply wakes it at once, so this only sets how finely
#: those deadlines are observed.
POLL_INTERVAL = 0.05

#: Counter names in render order.  ``dispatched``/``completed`` describe
#: normal progress; everything after is an anomaly.
_COUNTERS = (
    "dispatched",
    "completed",
    "retried",
    "timeouts",
    "worker_deaths",
    "transient_errors",
    "corrupt_rewrites",
    "gave_up",
)
_ANOMALIES = _COUNTERS[2:]


@dataclass(frozen=True)
class FabricConfig:
    """Supervision policy for one campaign invocation.

    Everything is optional: the defaults supervise without timeouts or
    budgets and retry up to ``max_retries`` times.  Without a
    ``point_timeout`` a hung point is never recovered, since nothing else
    can end it.
    """

    workers: int = 1
    point_timeout: float | None = None
    max_retries: int = 3
    backoff_base: float = 0.05
    wall_budget: float | None = None
    point_budget: int | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ExperimentError(f"fabric workers must be >= 1, got {self.workers}")
        if self.max_retries < 0:
            raise ExperimentError(
                f"fabric max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base < 0:
            raise ExperimentError(
                f"fabric backoff_base must be >= 0, got {self.backoff_base}"
            )
        if self.point_timeout is not None and self.point_timeout <= 0:
            raise ExperimentError(
                f"fabric point_timeout must be > 0, got {self.point_timeout}"
            )
        if self.wall_budget is not None and self.wall_budget < 0:
            raise ExperimentError(
                f"fabric wall_budget must be >= 0, got {self.wall_budget}"
            )
        if self.point_budget is not None and self.point_budget < 0:
            raise ExperimentError(
                f"fabric point_budget must be >= 0, got {self.point_budget}"
            )


@dataclass(frozen=True)
class FabricEvent:
    """One recorded supervisor anomaly (dispatches are only counted)."""

    seq: int
    kind: str
    point: str
    attempt: int
    detail: str = ""

    def describe(self) -> str:
        suffix = f": {self.detail}" if self.detail else ""
        return f"{self.kind} {self.point} attempt {self.attempt}{suffix}"


@dataclass
class FabricHealth:
    """Counters plus a bounded anomaly log for one supervised run."""

    counters: dict[str, int] = field(
        default_factory=lambda: {name: 0 for name in _COUNTERS}
    )
    events: list[FabricEvent] = field(default_factory=list)
    dropped_events: int = 0

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def record(self, kind: str, point: str, attempt: int, detail: str = "") -> None:
        if len(self.events) >= MAX_EVENTS:
            self.dropped_events += 1
            return
        self.events.append(FabricEvent(len(self.events), kind, point, attempt, detail))

    def anomalies(self) -> dict[str, int]:
        """Nonzero anomaly counters (empty for a clean fault-free run)."""
        return {k: self.counters[k] for k in _ANOMALIES if self.counters.get(k)}

    def describe(self) -> str:
        """Compact anomaly summary, e.g. ``retried 2, worker_deaths 1``."""
        anomalies = self.anomalies()
        if not anomalies:
            return "no faults observed"
        return ", ".join(f"{k} {v}" for k, v in anomalies.items())

    def to_dict(self) -> dict:
        return {
            "counters": dict(self.counters),
            "events": [dataclasses.asdict(e) for e in self.events],
            "dropped_events": self.dropped_events,
        }


@dataclass(frozen=True)
class FabricJob:
    """One unit of supervised work: run ``spec``, checkpoint the result.

    ``position`` is the point's index in the caller's deterministic
    order (the executor's ``points`` list, or a sweep's spec list);
    ``label`` names it for health events (``sweep[index]``).
    ``journaled`` selects the observation-keeping worker and a journal
    checkpoint (so it needs a store): the worker encodes the journal
    and ships its bytes, never the stream; ``options`` overrides the
    per-point capture entirely (a
    :class:`~repro.experiments.runner.RunOptions` from the sweep
    directive) — ``None`` derives it from ``journaled``.
    ``record_facts`` asks the worker for the point's
    :func:`~repro.experiments.substrates.topology_facts`, which the
    checkpoint records beside the result.
    """

    position: int
    label: str
    spec: ExperimentSpec
    journaled: bool = False
    options: RunOptions | None = None
    record_facts: bool = False

    def run_options(self) -> RunOptions:
        """The effective capture options shipped to the worker."""
        if self.options is not None:
            return self.options
        return RunOptions.observed() if self.journaled else RunOptions.summary()


@dataclass
class FabricOutcome:
    """What a supervised invocation produced."""

    results: dict[int, ExperimentResult]
    failed: dict[int, str]
    health: FabricHealth
    exhausted: str | None = None
    facts: dict[int, Facts | None] = field(default_factory=dict)


#: Deterministic exponential backoff for retry ``attempt`` (>= 1) — the
#: same schedule the HTTP store backend retries transport errors on
#: (moved to :mod:`repro.store.retry`; re-exported here because it is
#: part of this module's public fabric API).
backoff_delay = deterministic_backoff


def _worker_chaos(chaos: tuple[ChaosSpec, ...], key: str, attempt: int):
    """First worker-side directive firing for (key, attempt), if any."""
    for spec in chaos:
        if spec.kind in ("worker_kill", "point_hang", "transient_error"):
            if spec.hits(key, attempt):
                return spec
    return None


def _fabric_worker(conn, chaos: tuple[ChaosSpec, ...]) -> None:
    """Worker main loop: receive (task_id, spec, attempt, options,
    record_facts, journaled) jobs.

    Replies ``("ok", task_id, (result, facts, journal))`` or
    ``("error", task_id, text)``; ``facts`` is ``None`` unless the job
    asked for them.  A journaled job's ``journal`` is the point's
    :func:`~repro.campaigns.store.encode_journal` bytes and its
    ``result`` carries no observations, so the stream is never pickled
    across the pipe and the supervisor only writes the bytes; otherwise
    ``journal`` is ``None`` and the result is the run's own.  Never
    raises out of a job: a failing point is reported, not fatal.  Chaos
    directives fire *before* the run so an injected fault costs a
    requeue, never a wasted simulation.
    """
    try:
        while True:
            message = conn.recv()
            if message[0] == "exit":
                return
            _, task_id, spec, attempt, options, record_facts, journaled = message
            directive = _worker_chaos(chaos, spec_key(spec), attempt)
            if directive is not None:
                if directive.kind == "worker_kill":
                    conn.close()
                    os._exit(_CHAOS_KILL_EXIT)
                if directive.kind == "transient_error":
                    conn.send(("error", task_id, "injected transient_error (chaos)"))
                    continue
                if directive.kind == "point_hang":
                    time.sleep(directive.seconds)
            try:
                result = _run_with_options(spec, options)
                # Taken after wall_time: the run left the network in this
                # worker's topology memo, so the facts cost one diameter.
                facts = topology_facts(spec) if record_facts else None
                journal = None
                if journaled:
                    journal = encode_journal(spec, result.observations)
                    result = dataclasses.replace(result, observations=())
            except Exception as exc:
                conn.send(("error", task_id, f"{type(exc).__name__}: {exc}"))
                continue
            conn.send(("ok", task_id, (result, facts, journal)))
    except (EOFError, OSError, KeyboardInterrupt):
        return


class _Worker:
    """One supervised worker process and its duplex pipe."""

    __slots__ = ("process", "conn", "inflight")

    def __init__(self, chaos: tuple[ChaosSpec, ...]) -> None:
        parent_conn, child_conn = Pipe()
        self.process = Process(
            target=_fabric_worker, args=(child_conn, chaos), daemon=True
        )
        self.process.start()
        # Close our copy of the child end so a dead worker reads as EOF.
        child_conn.close()
        self.conn = parent_conn
        self.inflight: _InFlight | None = None

    def dispatch(self, task: "_InFlight", job: FabricJob) -> None:
        self.conn.send(
            (
                "run",
                task.task_id,
                job.spec,
                task.attempt,
                job.run_options(),
                job.record_facts,
                job.journaled,
            )
        )
        self.inflight = task

    def shutdown(self, kill: bool = False) -> None:
        if not kill:
            try:
                self.conn.send(("exit",))
            except (OSError, ValueError):
                pass
            self.process.join(timeout=0.2)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=1.0)
        self.conn.close()


@dataclass
class _InFlight:
    task_id: int
    position: int
    attempt: int
    started: float


@dataclass
class _Pending:
    position: int
    attempt: int
    ready_at: float


class _Supervisor:
    """State machine behind :func:`run_supervised` (one invocation)."""

    def __init__(
        self,
        jobs: list[FabricJob],
        store: ResultStore | None,
        config: FabricConfig,
        chaos: tuple[ChaosSpec, ...],
    ) -> None:
        self.jobs = {job.position: job for job in jobs}
        self.keys = {job.position: spec_key(job.spec) for job in jobs}
        self.store = store
        self.config = config
        self.chaos = chaos
        self.health = FabricHealth()
        self.results: dict[int, ExperimentResult] = {}
        self.facts: dict[int, Facts | None] = {}
        self.failed: dict[int, str] = {}
        self.exhausted: str | None = None
        self.pending: deque[_Pending] = deque(
            _Pending(job.position, 0, 0.0) for job in jobs
        )
        self.workers: list[_Worker] = []
        self.task_seq = 0
        self.started = time.monotonic()

    # -- queue/bookkeeping helpers ------------------------------------

    def _label(self, position: int) -> str:
        return self.jobs[position].label

    def _open_points(self) -> int:
        return len(self.jobs) - len(self.results) - len(self.failed)

    def _requeue(self, position: int, attempt: int, kind: str, detail: str) -> None:
        """Retry ``position`` after a fault on ``attempt``, or give up."""
        next_attempt = attempt + 1
        if next_attempt > self.config.max_retries:
            self.failed[position] = detail or kind
            self.health.count("gave_up")
            self.health.record("gave_up", self._label(position), attempt, detail)
            return
        delay = backoff_delay(
            self.keys[position], next_attempt, self.config.backoff_base
        )
        self.pending.append(
            _Pending(position, next_attempt, time.monotonic() + delay)
        )
        self.health.count("retried")
        self.health.record(kind, self._label(position), attempt, detail)

    def _checkpoint(
        self,
        position: int,
        attempt: int,
        result,
        facts: Facts | None,
        journal: bytes | None,
    ) -> bool:
        """Persist one completed point; False means corrupt → re-run.

        Takes the worker's reply payload.  A journaled point's ``journal``
        bytes (encoded in the worker; its ``result`` already carries no
        observations, matching the cache-hit shape) are written first,
        then the summary entry with the worker's facts beside the result.
        A ``store_corrupt`` chaos directive fires *after* the write so
        the self-verifying read is what catches it.
        """
        job = self.jobs[position]
        if journal is not None:
            self.store.put_journal_bytes(self.keys[position], journal)
        if self.store is None:
            self.results[position] = result
            self.facts[position] = facts
            return True
        self.store.put(result, facts)
        key = self.keys[position]
        for spec in self.chaos:
            if spec.kind == "store_corrupt" and spec.hits(key, attempt):
                corrupt_store_entry(self.store, key, spec.seed)
                self.health.count("corrupt_rewrites")
                self.health.record(
                    "store_corrupt", job.label, attempt, "injected entry corruption"
                )
                if self.store.get(result.spec) is None:
                    return False
                break
        self.results[position] = result
        self.facts[position] = facts
        return True

    # -- worker lifecycle ---------------------------------------------

    def _spawn_workers(self) -> None:
        # Workers fork from this process (the default start method on
        # Linux): importing networkx once here, not in every worker, keeps
        # the import out of each point's wall time.
        import networkx  # noqa: F401

        count = min(self.config.workers, max(1, len(self.jobs)))
        self.workers = [_Worker(self.chaos) for _ in range(count)]

    def _replace_worker(self, worker: _Worker) -> None:
        index = self.workers.index(worker)
        worker.shutdown(kill=True)
        self.workers[index] = _Worker(self.chaos)

    def _handle_reply(self, worker: _Worker, message) -> None:
        status, task_id, payload = message
        task = worker.inflight
        worker.inflight = None
        if task is None or task.task_id != task_id:
            return
        if status == "ok":
            try:
                checkpointed = self._checkpoint(task.position, task.attempt, *payload)
            except StoreError as exc:
                # The store backend failed (server down, transport fault).
                # The point itself succeeded, but without a durable
                # checkpoint it never happened — retry on the bounded
                # backoff schedule like any transient fault, so a store
                # that comes back mid-campaign loses nothing.
                self.health.count("transient_errors")
                self._requeue(task.position, task.attempt, "store_error", str(exc))
                return
            if checkpointed:
                self.health.count("completed")
            else:
                self._requeue(
                    task.position,
                    task.attempt,
                    "store_corrupt",
                    "checkpoint failed verification; re-running",
                )
        else:
            self.health.count("transient_errors")
            self._requeue(task.position, task.attempt, "point_error", str(payload))

    def _handle_death(self, worker: _Worker) -> None:
        task = worker.inflight
        self.health.count("worker_deaths")
        label = self._label(task.position) if task else "-"
        attempt = task.attempt if task else 0
        self.health.record("worker_death", label, attempt, "pipe closed; respawned")
        self._replace_worker(worker)
        if task is not None:
            self._requeue(task.position, task.attempt, "worker_death", "worker died")

    def _reap(self) -> None:
        """Collect replies and detect deaths without blocking."""
        busy = [w for w in self.workers if w.inflight is not None]
        if not busy:
            return
        ready = connection.wait([w.conn for w in busy], timeout=POLL_INTERVAL)
        for worker in busy:
            if worker.conn not in ready:
                continue
            try:
                message = worker.conn.recv()
            except (EOFError, OSError):
                self._handle_death(worker)
                continue
            self._handle_reply(worker, message)

    def _check_timeouts(self) -> None:
        timeout = self.config.point_timeout
        if timeout is None:
            return
        now = time.monotonic()
        for worker in self.workers:
            task = worker.inflight
            if task is None or now - task.started <= timeout:
                continue
            self.health.count("timeouts")
            self._requeue(
                task.position,
                task.attempt,
                "timeout",
                f"exceeded {timeout:g}s; worker killed",
            )
            worker.inflight = None
            self._replace_worker(worker)

    # -- dispatch ------------------------------------------------------

    def _dispatch_ready(self) -> None:
        now = time.monotonic()
        idle = [w for w in self.workers if w.inflight is None]
        if not idle:
            return
        deferred: list[_Pending] = []
        while self.pending and idle:
            entry = self.pending.popleft()
            if entry.ready_at > now:
                deferred.append(entry)
                continue
            worker = idle.pop()
            self.task_seq += 1
            task = _InFlight(self.task_seq, entry.position, entry.attempt, now)
            try:
                worker.dispatch(task, self.jobs[entry.position])
            except (OSError, ValueError):
                # The worker died between reap and dispatch; respawn and
                # put the entry back untouched (no attempt consumed).
                self._handle_death(worker)
                deferred.append(entry)
                continue
            self.health.count("dispatched")
        self.pending.extend(deferred)

    def _check_budgets(self) -> bool:
        """True when a budget is exhausted and dispatching must stop."""
        if self.exhausted is not None:
            return True
        config = self.config
        if (
            config.wall_budget is not None
            and time.monotonic() - self.started > config.wall_budget
        ):
            self.exhausted = "wall_budget"
        elif (
            config.point_budget is not None
            and self.health.counters["completed"] >= config.point_budget
            and self._open_points() > 0
        ):
            self.exhausted = "point_budget"
        if self.exhausted is not None:
            self.health.record(
                "budget",
                "-",
                0,
                f"{self.exhausted} exhausted with {self._open_points()} points open",
            )
            return True
        return False

    # -- main loop -----------------------------------------------------

    def run(self) -> FabricOutcome:
        if not self.jobs:
            return FabricOutcome({}, {}, self.health)
        self._spawn_workers()
        try:
            while self._open_points() > 0:
                if self._check_budgets():
                    break
                self._dispatch_ready()
                self._reap()
                self._check_timeouts()
                if not any(w.inflight for w in self.workers) and self.pending:
                    # Everything queued is backing off; sleep to the
                    # earliest ready time instead of spinning.
                    now = time.monotonic()
                    wake = min(entry.ready_at for entry in self.pending)
                    if wake > now:
                        time.sleep(min(wake - now, POLL_INTERVAL))
        finally:
            for worker in self.workers:
                worker.shutdown(kill=worker.inflight is not None)
        return FabricOutcome(
            self.results, self.failed, self.health, self.exhausted, self.facts
        )


def run_supervised(
    jobs: list[FabricJob],
    store: ResultStore | None,
    config: FabricConfig | None = None,
    chaos: tuple[ChaosSpec, ...] = (),
) -> FabricOutcome:
    """Run ``jobs`` under supervision; every completion is checkpointed.

    Raises :class:`ExperimentError` when a chaos directive needs more
    attempts than ``config.max_retries`` allows, or is a ``point_hang``
    without a ``config.point_timeout`` to end it — neither combination
    could converge, and convergence (chaos run == fault-free run) is the
    harness's contract — and when a job is journaled but there is no
    store to hold its journal.
    """
    config = config or FabricConfig()
    jobs = list(jobs)
    if store is None and any(job.journaled for job in jobs):
        raise ExperimentError("journaled fabric jobs need a store")
    if config.point_timeout is None and any(c.kind == "point_hang" for c in chaos):
        raise ExperimentError(
            "chaos point_hang needs a point timeout: only the timeout ends a"
            " hung point; set --timeout"
        )
    needed = max_chaos_times(tuple(chaos))
    if needed > config.max_retries:
        raise ExperimentError(
            f"chaos needs {needed} retries per point but the fabric allows"
            f" {config.max_retries}; raise --retries or lower chaos times"
        )
    return _Supervisor(jobs, store, config, tuple(chaos)).run()
