"""Microbenchmarks: isolate one hot path each.

Each benchmark is a function ``bench(repeats) -> BenchRecord`` registered in
``MICRO_BENCHMARKS`` (ordered).  They exercise only public APIs, so the same
suite runs unchanged against any revision of the package — which is what
makes before/after comparisons meaningful.
"""

from __future__ import annotations

import random

from repro.perf.harness import BenchRecord, measure, timed
from repro.sim.kernel import Simulator

#: Registry of microbenchmarks, in execution order.
MICRO_BENCHMARKS: dict[str, "object"] = {}


def _micro(name: str):
    def _decorator(fn):
        MICRO_BENCHMARKS[name] = fn
        return fn

    return _decorator


# ----------------------------------------------------------------------
# Kernel
# ----------------------------------------------------------------------
@_micro("kernel_churn")
def bench_kernel_churn(repeats: int = 3) -> BenchRecord:
    """Schedule/cancel/drain churn: 120k events, every third cancelled."""
    count = 120_000

    def once():
        rng = random.Random(12345)
        sim = Simulator()
        sink = []

        def schedule_all():
            handles = []
            for i in range(count):
                handles.append(
                    sim.schedule(rng.random() * 100.0, sink.append, i)
                )
            return handles

        t_schedule, handles = timed(schedule_all)
        t_cancel, _ = timed(
            lambda: [h.cancel() for h in handles[::3]]
        )
        t_run, _ = timed(sim.run)
        return (
            float(sim.processed_events),
            {"schedule": t_schedule, "cancel": t_cancel, "run": t_run},
            {"scheduled": float(count), "fired": float(sim.processed_events)},
        )

    return measure("kernel_churn", "micro", once, repeats)


@_micro("kernel_zero_delay")
def bench_kernel_zero_delay(repeats: int = 3) -> BenchRecord:
    """Same-timestamp FIFO cascades: 400 chains of depth 150."""
    chains, depth = 400, 150

    def once():
        sim = Simulator()
        fired = [0]

        def cascade(remaining: int) -> None:
            fired[0] += 1
            if remaining > 0:
                sim.schedule(0.0, cascade, remaining - 1)

        for c in range(chains):
            sim.schedule(float(c), cascade, depth)
        t_run, _ = timed(sim.run)
        return (
            float(sim.processed_events),
            {"run": t_run},
            {"fired": float(fired[0])},
        )

    return measure("kernel_zero_delay", "micro", once, repeats)


@_micro("kernel_schedule_many")
def bench_kernel_schedule_many(repeats: int = 3) -> BenchRecord:
    """Batched fan-out scheduling: 600 batches of 200 events each.

    Uses :meth:`Simulator.schedule_many` when the kernel provides it and
    falls back to per-event ``schedule`` calls otherwise, so the benchmark
    measures exactly the win of the batch API on kernels that have one.
    """
    batches, width = 600, 200

    def once():
        sim = Simulator()
        sink = []
        batch_api = getattr(sim, "schedule_many", None)

        def schedule_all():
            for b in range(batches):
                base = float(b)
                if batch_api is not None:
                    batch_api(
                        [
                            (base + i * 1e-4, sink.append, (i,))
                            for i in range(width)
                        ]
                    )
                else:
                    for i in range(width):
                        sim.schedule_at(base + i * 1e-4, sink.append, i)

        t_schedule, _ = timed(schedule_all)
        t_run, _ = timed(sim.run)
        return (
            float(sim.processed_events),
            {"schedule": t_schedule, "run": t_run},
            {"batched": 1.0 if batch_api is not None else 0.0},
        )

    return measure("kernel_schedule_many", "micro", once, repeats)


# ----------------------------------------------------------------------
# MAC fan-out
# ----------------------------------------------------------------------
@_micro("bcast_fanout")
def bench_bcast_fanout(repeats: int = 3) -> BenchRecord:
    """One broadcast's G'-neighbor fan-out on a star: BMMB, n=192, k=48."""
    from repro.core.bmmb import BMMBNode
    from repro.ids import MessageAssignment
    from repro.mac.schedulers.uniform import UniformDelayScheduler
    from repro.runtime.runner import run_standard
    from repro.sim.rng import RandomSource
    from repro.topology.generators import star_network

    n, k = 192, 48
    dual = star_network(n)
    assignment = MessageAssignment.one_each(list(range(1, k + 1)), "m")

    def once():
        scheduler = UniformDelayScheduler(RandomSource(7, "sched"))
        t_run, result = timed(
            lambda: run_standard(
                dual,
                assignment,
                lambda _n: BMMBNode(),
                scheduler,
                fack=20.0,
                fprog=1.0,
                keep_instances=False,
            )
        )
        return (
            float(result.sim_events),
            {"run": t_run},
            {"solved": float(result.solved), "rcv": float(result.rcv_count)},
        )

    return measure("bcast_fanout", "micro", once, repeats)


@_micro("fault_epoch")
def bench_fault_epoch(repeats: int = 3) -> BenchRecord:
    """Per-delivery fault poll under a flapping plan: BMMB, n=64."""
    from repro.experiments.runner import RunOptions, run as run_spec
    from repro.experiments.specs import (
        AlgorithmSpec,
        ExperimentSpec,
        FaultSpec,
        ModelSpec,
        SchedulerSpec,
        TopologySpec,
        WorkloadSpec,
    )

    spec = ExperimentSpec(
        name="perf-fault-epoch",
        topology=TopologySpec(
            "random_geometric",
            {"n": 64, "side": 4.0, "c": 1.6, "grey_edge_probability": 0.4},
        ),
        algorithm=AlgorithmSpec("bmmb"),
        scheduler=SchedulerSpec("uniform"),
        workload=WorkloadSpec("one_each", {"k": 16}),
        fault=FaultSpec("flap_periodic", {"fraction": 0.3, "period": 3.0}),
        model=ModelSpec(fack=20.0, fprog=1.0),
        seed=21,
    )

    def once():
        t_run, result = timed(lambda: run_spec(spec, RunOptions.summary()))
        return (
            result.metrics.get("sim_events"),
            {"run": t_run},
            {
                "solved": float(result.solved),
                "link_flaps": result.metrics.get("link_flap_events", 0.0),
            },
        )

    return measure("fault_epoch", "micro", once, repeats)


@_micro("sinr_slots")
def bench_sinr_slots(repeats: int = 3) -> BenchRecord:
    """BMMB over the SINR-reception radio: n=24 grey-zone network, k=6.

    Exercises the ``sinr`` substrate end to end — gain-table build, the
    per-slot SINR reception loop, the decay MAC adapter, and the
    empirical-bound extraction — so the newest engine has a regression
    baseline alongside the collision-radio and event-kernel paths.
    """
    from repro.experiments.runner import (
        RunOptions,
        clear_topology_cache,
        run as run_spec,
    )
    from repro.experiments.specs import (
        AlgorithmSpec,
        ExperimentSpec,
        ModelSpec,
        TopologySpec,
        WorkloadSpec,
    )

    spec = ExperimentSpec(
        name="perf-sinr-slots",
        topology=TopologySpec(
            "random_geometric",
            {"n": 24, "side": 2.5, "c": 1.6, "grey_edge_probability": 0.4},
        ),
        algorithm=AlgorithmSpec("bmmb"),
        workload=WorkloadSpec("one_each", {"k": 6}),
        model=ModelSpec(params={"max_slots": 500_000}),
        substrate="sinr",
        seed=13,
    )

    def once():
        clear_topology_cache()  # every repeat pays the cold build
        t_run, result = timed(lambda: run_spec(spec, RunOptions.summary()))
        return (
            result.metrics.get("slots"),
            {"run": t_run},
            {
                "solved": float(result.solved),
                "slots": result.metrics.get("slots", 0.0),
            },
        )

    return measure("sinr_slots", "micro", once, repeats)


@_micro("sinr_slots_vectorized")
def bench_sinr_slots_vectorized(repeats: int = 3) -> BenchRecord:
    """``sinr_slots`` with the numpy-batched reception engine.

    The same spec, seed, and slot trajectory as ``sinr_slots`` (the
    engines decode identically), differing only in
    ``model.engine="vectorized"`` — committing both keeps the engine
    pair's relative cost under regression gating.  Skipped by the CLI
    when numpy is not importable.
    """
    from repro.experiments.runner import (
        RunOptions,
        clear_topology_cache,
        run as run_spec,
    )
    from repro.experiments.specs import (
        AlgorithmSpec,
        ExperimentSpec,
        ModelSpec,
        TopologySpec,
        WorkloadSpec,
    )

    spec = ExperimentSpec(
        name="perf-sinr-slots-vectorized",
        topology=TopologySpec(
            "random_geometric",
            {"n": 24, "side": 2.5, "c": 1.6, "grey_edge_probability": 0.4},
        ),
        algorithm=AlgorithmSpec("bmmb"),
        workload=WorkloadSpec("one_each", {"k": 6}),
        model=ModelSpec(params={"max_slots": 500_000}, engine="vectorized"),
        substrate="sinr",
        seed=13,
    )

    def once():
        clear_topology_cache()  # every repeat pays the cold build
        t_run, result = timed(lambda: run_spec(spec, RunOptions.summary()))
        return (
            result.metrics.get("slots"),
            {"run": t_run},
            {
                "solved": float(result.solved),
                "slots": result.metrics.get("slots", 0.0),
            },
        )

    return measure("sinr_slots_vectorized", "micro", once, repeats)


bench_sinr_slots_vectorized.requires_numpy = True


@_micro("arrival_stream")
def bench_arrival_stream(repeats: int = 3) -> BenchRecord:
    """Open Poisson arrivals under windowed aggregation: n=32, 120 messages.

    Exercises the steady-state traffic path end to end — arrival-process
    sampling, deferred injection on the standard substrate, the windowed
    (bounded-memory) observation probe, and the warmup-trimmed gauge
    extraction — so the long-horizon service mode has a regression
    baseline alongside the one-shot paths.
    """
    from repro.experiments.runner import (
        RunOptions,
        clear_topology_cache,
        run as run_spec,
    )
    from repro.experiments.specs import (
        AlgorithmSpec,
        ExperimentSpec,
        ModelSpec,
        SchedulerSpec,
        TopologySpec,
        WorkloadSpec,
    )

    spec = ExperimentSpec(
        name="perf-arrival-stream",
        topology=TopologySpec(
            "random_geometric",
            {"n": 32, "side": 3.0, "c": 1.6, "grey_edge_probability": 0.4},
        ),
        algorithm=AlgorithmSpec("bmmb"),
        scheduler=SchedulerSpec("uniform"),
        workload=WorkloadSpec(
            "open_arrivals", {"process": "poisson", "rate": 0.05, "count": 120}
        ),
        model=ModelSpec(fack=20.0, fprog=1.0),
        seed=17,
    )

    def once():
        clear_topology_cache()  # every repeat pays the cold build
        t_run, result = timed(
            lambda: run_spec(spec, RunOptions(window=100.0, max_windows=16))
        )
        return (
            result.metrics.get("sim_events"),
            {"run": t_run},
            {
                "solved": float(result.solved),
                "folded": result.metrics.get("obs_events_folded", 0.0),
                "peak_windows": result.metrics.get("obs_retained_peak", 0.0),
            },
        )

    return measure("arrival_stream", "micro", once, repeats)


# ----------------------------------------------------------------------
# Observation journals
# ----------------------------------------------------------------------
@_micro("journal_roundtrip")
def bench_journal_roundtrip(repeats: int = 3) -> BenchRecord:
    """Serialize + parse a 60k-event observation journal.

    Exercises the persistence path campaigns pay per journaled point:
    canonical ordering, strict-JSON row encoding, deterministic gzip
    framing, and the full parse back to :class:`Observation` tuples.
    """
    from repro.runtime.journal import dump_journal, loads_journal
    from repro.runtime.observations import Observation

    count = 60_000
    rng = random.Random(2024)
    kinds = ("bcast", "rcv", "ack", "deliver", "arrival")
    observations = tuple(
        Observation(
            time=rng.random() * 1000.0,
            kind=kinds[i % len(kinds)],
            node=i % 64,
            key=f"m{i % 40}",
            ref=i % 12_000,
            value=1.0,
        )
        for i in range(count)
    )

    def once():
        import gzip

        t_dump, data = timed(
            lambda: dump_journal(observations, meta={"bench": True})
        )
        t_load, journal = timed(
            lambda: loads_journal(gzip.decompress(data).decode("utf-8"))
        )
        assert len(journal) == count
        return (
            float(count),
            {"dump": t_dump, "load": t_load},
            {"bytes": float(len(data)), "events": float(count)},
        )

    return measure("journal_roundtrip", "micro", once, repeats)


# ----------------------------------------------------------------------
# Result store backends
# ----------------------------------------------------------------------
@_micro("store_roundtrip")
def bench_store_roundtrip(repeats: int = 3) -> BenchRecord:
    """Local vs http-loopback store put/get: 48 entries of ~2 KiB each.

    Measures the per-entry cost campaigns pay at every checkpoint for each
    backend: the local backend's atomic tmp+rename writes and raw reads,
    and the http backend's full wire path (request, transport digest
    verification, bounded-retry bookkeeping) against an in-process
    ``repro store serve`` instance.  The http side runs cache-less so the
    benchmark times the network path, not the write-through cache.
    """
    import hashlib
    import shutil
    import tempfile
    import threading

    from repro.store import HttpBackend, LocalBackend, make_server

    count = 48
    rng = random.Random(777)
    entries = tuple(
        (
            hashlib.sha256(f"store-bench/{i}".encode()).hexdigest(),
            bytes(rng.randrange(256) for _ in range(2048)),
        )
        for i in range(count)
    )

    def once():
        local_root = tempfile.mkdtemp(prefix="repro-bench-local-")
        server_root = tempfile.mkdtemp(prefix="repro-bench-server-")
        server = make_server(server_root, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            local = LocalBackend(local_root)
            remote = HttpBackend(
                f"http://127.0.0.1:{server.server_address[1]}"
            )

            def put_all(backend):
                for key, payload in entries:
                    backend.put("summary", key, payload)

            def get_all(backend):
                total = 0
                for key, _ in entries:
                    data = backend.get("summary", key)
                    assert data is not None
                    total += len(data)
                return total

            t_local_put, _ = timed(lambda: put_all(local))
            t_local_get, local_bytes = timed(lambda: get_all(local))
            t_http_put, _ = timed(lambda: put_all(remote))
            t_http_get, http_bytes = timed(lambda: get_all(remote))
            assert local_bytes == http_bytes
            return (
                float(2 * count),
                {
                    "local_put": t_local_put,
                    "local_get": t_local_get,
                    "http_put": t_http_put,
                    "http_get": t_http_get,
                },
                {
                    "entries": float(count),
                    "bytes": float(local_bytes),
                    "http_ratio": (t_http_put + t_http_get)
                    / max(t_local_put + t_local_get, 1e-9),
                },
            )
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)
            shutil.rmtree(local_root, ignore_errors=True)
            shutil.rmtree(server_root, ignore_errors=True)

    return measure("store_roundtrip", "micro", once, repeats)


# ----------------------------------------------------------------------
# Campaign fabric
# ----------------------------------------------------------------------
@_micro("supervisor_overhead")
def bench_supervisor_overhead(repeats: int = 3) -> BenchRecord:
    """Supervised fabric vs in-process execution on the smoke ladder.

    Runs the storeless smoke campaign through the supervised worker pool
    and its point specs through a serial in-process ``run_sweep``, so the
    fabric's fixed costs (worker spawn, pipe dispatch, per-point
    checkpoint bookkeeping) are regression-guarded against the work they
    wrap.
    """
    from repro.campaigns import (
        FabricConfig,
        build_campaign,
        expand_points,
        run_campaign,
    )
    from repro.experiments.sweep import run_sweep

    campaign = build_campaign("smoke", points=4)
    specs = [point.spec for point in expand_points(campaign)]
    fabric = FabricConfig(workers=1, poll_interval=0.005)

    def once():
        t_direct, direct_run = timed(lambda: run_sweep(specs))
        t_supervised, supervised_run = timed(
            lambda: run_campaign(campaign, store=None, fabric=fabric)
        )
        assert len(direct_run) == len(specs) and supervised_run.complete
        return (
            float(supervised_run.ran),
            {"direct": t_direct, "supervised": t_supervised},
            {
                "points": float(supervised_run.ran),
                "overhead_ratio": t_supervised / max(t_direct, 1e-9),
            },
        )

    return measure("supervisor_overhead", "micro", once, repeats)


# ----------------------------------------------------------------------
# Topology queries
# ----------------------------------------------------------------------
@_micro("dualgraph_queries")
def bench_dualgraph_queries(repeats: int = 3) -> BenchRecord:
    """BFS distances, components, diameter, and G^r on an n=256 geometric."""
    from repro.sim.rng import RandomSource
    from repro.topology.geometric import random_geometric_network

    def once():
        t_build, dual = timed(
            lambda: random_geometric_network(
                256,
                side=8.0,
                c=1.6,
                grey_edge_probability=0.4,
                rng=RandomSource(3, "topo"),
            )
        )

        def queries():
            total = 0
            for source in dual.nodes:
                total += len(dual.distances_from(source))
            total += sum(len(c) for c in dual.components())
            total += dual.diameter()
            total += dual.power_graph(2).number_of_edges()
            total += dual.power_graph(2).number_of_edges()  # cached path
            return total

        t_query, total = timed(queries)
        return (
            float(total),
            {"build": t_build, "query": t_query},
            {"n": float(dual.n)},
        )

    return measure("dualgraph_queries", "micro", once, repeats)


def micro_available(name: str) -> bool:
    """Whether a microbenchmark can run here (numpy-gated entries skip)."""
    if not getattr(MICRO_BENCHMARKS[name], "requires_numpy", False):
        return True
    from repro.radio.engines import numpy_available

    return numpy_available()


def run_micro_suite(repeats: int = 3) -> list[BenchRecord]:
    """Execute every runnable microbenchmark; returns the records in order."""
    return [
        bench(repeats)
        for name, bench in MICRO_BENCHMARKS.items()
        if micro_available(name)
    ]
