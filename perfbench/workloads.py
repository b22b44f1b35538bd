"""The benchmark's workloads: campaigns built from registry specs.

Every workload is a :class:`~repro.campaigns.CampaignSpec` whose base
specs carry the benchmark seed; sweeps derive per-point seeds from it
(SINR points sample theirs from :data:`SINR_SEEDS` with it), so one
``--seed`` fixes every input and another seed changes them.

``scale="full"`` is the measured size.  ``scale="tiny"`` keeps each
workload's shape (same sweeps, checks and capture modes) at a size that
runs in a second or two, for the benchmark's own tests.

Within each campaign the most expensive points are listed first.  The
fabric steals work from a point that runs several times longer than the
median once its queue is empty; with the long points dispatched first the
queue still holds cheap points while they run, so no point is duplicated
and the dispatched-work count does not depend on timing.

Each campaign's point mix puts its median point inside one group of
like points (same substrate, size and nearly the same work at every
seed), not on the edge between two groups, so ``point_p50_s`` does not
jump between groups from seed to seed.
"""

from __future__ import annotations

import random

from repro.campaigns import (
    CampaignSpec,
    CheckSpec,
    FigureSpec,
    SeriesSpec,
    SweepDirective,
)
from repro.experiments import (
    AlgorithmSpec,
    ExperimentSpec,
    ModelSpec,
    RunOptions,
    SchedulerSpec,
    TopologySpec,
    WorkloadSpec,
)

FACK = 20.0
FPROG = 1.0

#: The four registered trace checks, all run over the journaled sweep.
TRACE_CHECK_KINDS = ("ack_latency", "abort_accounting", "delivery_order", "mac_axioms")

#: BMMB over the SINR radio with adaptive acknowledgments can livelock: a
#: broadcast is never acknowledged and the run spins to ``max_slots``
#: unsolved (500,000 slots, about 20 s).  On the benchmark's SINR network
#: (n=24, side 2.5) that happened for 7 of 1,000 random seeds at k=1, 5
#: of 120 at k=2 and 12 of 120 at k=4, and ``sinr_contention``'s k=8
#: point is unsolved at its own seed.  SINR points therefore take their
#: seeds from this pool.  Of the seeds below 90, ten have an unsolved k=1,
#: 2 or 4 run (or break Fack >= Fprog); the slot counts of the other 80
#: (k=4, 2 and 1 together) range from 2,239 to 16,039 with median 3,538.
#: The pool keeps the 34 whose counts lie in [3000, 4000], so the sample
#: drawn for one benchmark seed costs about what another seed's does.
SINR_SEEDS = (
    1, 2, 7, 9, 11, 16, 19, 24, 25, 26, 27, 28, 29, 36, 40, 41, 42,
    43, 45, 54, 57, 60, 62, 66, 68, 71, 72, 74, 75, 76, 77, 79, 84, 87,
)  # fmt: skip
#: Slot-count band of :data:`SINR_SEEDS`, re-checked by the benchmark's tests.
SINR_SLOT_BAND = (3000, 4000)


def _grey_zone(n: int, side: float) -> TopologySpec:
    return TopologySpec(
        "random_geometric",
        {"n": n, "side": side, "c": 1.6, "grey_edge_probability": 0.4},
    )


def _size_rows(sizes: list[tuple[int, float]]) -> dict[str, list]:
    """Zip axes pairing each network size with its box side."""
    return {
        "topology.n": [n for n, _ in sizes],
        "topology.side": [side for _, side in sizes],
    }


def mmb_event(seed: int, scale: str = "full") -> CampaignSpec:
    """BMMB under three schedulers plus FMMB on grey-zone graphs.

    The event kernel, the standard MAC layer, the schedulers and the FMMB
    round engine do nearly all the work; capture is summary-only.
    """
    # Box side ~ sqrt(n)/2 keeps the expected reliable degree near 13.
    # Eight points: the median falls among the n=512 uniform/worstcase and
    # n=256 FMMB points, which take about the same time.
    sizes = [(512, 11.3), (256, 8.0)] if scale == "full" else [(48, 3.5), (32, 2.8)]
    fmmb = SweepDirective(
        name="fmmb",
        base=ExperimentSpec(
            name="bench-fmmb",
            topology=_grey_zone(*sizes[-1]),
            algorithm=AlgorithmSpec("fmmb", {"c": 1.6}),
            workload=WorkloadSpec("one_each", {"k": 8}),
            model=ModelSpec(fack=FACK, fprog=FPROG),
            substrate="rounds",
            seed=seed,
        ),
        zip_axes=_size_rows(sizes),
    )
    bmmb = SweepDirective(
        name="bmmb",
        base=ExperimentSpec(
            name="bench-bmmb",
            topology=_grey_zone(*sizes[-1]),
            algorithm=AlgorithmSpec("bmmb"),
            scheduler=SchedulerSpec("uniform"),
            workload=WorkloadSpec("one_each", {"k": 8}),
            model=ModelSpec(fack=FACK, fprog=FPROG),
            seed=seed,
        ),
        zip_axes=_size_rows(sizes),
        axes={"scheduler.kind": ["contention", "uniform", "worstcase"]},
    )
    return CampaignSpec(
        name="mmb_event",
        title="Benchmark: event-driven MMB on grey-zone graphs",
        sweeps=(fmmb, bmmb),
        figures=(
            FigureSpec(
                name="completion_vs_n",
                title="Completion vs network size",
                x="topology.n",
                series=(
                    SeriesSpec(sweep="bmmb", label="BMMB"),
                    SeriesSpec(sweep="fmmb", label="FMMB"),
                ),
            ),
        ),
        checks=(
            CheckSpec(kind="solved"),
            CheckSpec(
                kind="upper_bound",
                sweeps=("bmmb",),
                params={"bound": "bmmb_arbitrary"},
            ),
        ),
    )


def sinr_spec(seed: int, k: int) -> ExperimentSpec:
    """One SINR point of ``radio_slots``."""
    return ExperimentSpec(
        name="bench-sinr",
        topology=_grey_zone(24, 2.5),
        algorithm=AlgorithmSpec("bmmb"),
        workload=WorkloadSpec("one_each", {"k": k}),
        model=ModelSpec(params={"max_slots": 500_000}),
        substrate="sinr",
        seed=seed,
    )


def _star_sweep(n: int, repeats: int, seed: int) -> SweepDirective:
    """Every leaf of an ``n``-node collision-radio star holds one message."""
    return SweepDirective(
        name=f"stars{n}",
        base=ExperimentSpec(
            name="bench-radio-star",
            topology=TopologySpec("star", {"n": n}),
            algorithm=AlgorithmSpec("bmmb"),
            workload=WorkloadSpec("one_each", {"nodes": list(range(1, n))}),
            model=ModelSpec(params={"max_slots": 500_000}),
            substrate="radio",
            seed=seed,
        ),
        repeats=repeats,
    )


def radio_slots(seed: int, scale: str = "full") -> CampaignSpec:
    """BMMB over collision-radio stars and SINR geometric graphs.

    The slot loop and the reference reception engines do the work; the
    event kernel is idle.  SINR seeds come from :data:`SINR_SEEDS`, a
    different sample for every benchmark seed.  A star's slot count
    hardly depends on the seed, so the stars outnumber the SINR points
    and the median point is a 32-node star.
    """
    if scale == "full":
        stars = [_star_sweep(48, 1, seed), _star_sweep(32, 6, seed)]
        sinr_seeds = random.Random(seed).sample(SINR_SEEDS, 2)
    else:
        stars = [_star_sweep(8, 1, seed), _star_sweep(6, 2, seed)]
        sinr_seeds = random.Random(seed).sample(SINR_SEEDS, 1)
    sinr = SweepDirective(
        name="sinr",
        base=sinr_spec(sinr_seeds[0], 1),
        zip_axes={"workload.k": [4, 2, 1]},
        axes={"seed": sinr_seeds},
        derive_seeds=False,
    )
    return CampaignSpec(
        name="radio_slots",
        title="Benchmark: slotted collision and SINR radios",
        sweeps=(*stars, sinr),
        figures=(
            FigureSpec(
                name="fack_vs_star_size",
                title="Empirical Fack vs star size",
                x="topology.n",
                series=tuple(
                    SeriesSpec(
                        sweep=star.name,
                        label=star.name,
                        y="metric:empirical_fack",
                        agg="mean",
                    )
                    for star in stars
                ),
            ),
        ),
        checks=(
            CheckSpec(kind="solved"),
            CheckSpec(
                kind="metric_dominates",
                sweeps=("sinr",),
                params={
                    "upper": "metric:empirical_fack",
                    "lower": "metric:empirical_fprog",
                },
            ),
        ),
    )


def service_journaled(seed: int, scale: str = "full") -> CampaignSpec:
    """Open-arrival BMMB service runs: journaled points plus long horizons.

    The journaled sweep has many cheap points, so per-point costs (fabric
    dispatch, observation derivation, journal encoding, store writes)
    dominate the cold pass; the cached pass decodes every journal once per
    trace check.  The windowed long-horizon sweep carries the run whose
    memory grows with the horizon.

    The n=32 points get more repeats than the n=16 ones (32 journals in
    all), so the median point is an n=32 one.
    """
    if scale == "full":
        # (n, box side, repeats)
        sizes = [(32, 3.1, 5), (16, 2.2, 3)]
        rates, count, horizons = [0.005, 0.02, 0.08, 0.32], 8, [1600, 400]
    else:
        sizes = [(10, 2.2, 1), (8, 2.0, 1)]
        rates, count, horizons = [0.02, 0.32], 8, [80, 40]
    long_horizon = SweepDirective(
        name="long_horizon",
        base=ExperimentSpec(
            name="bench-service-long",
            topology=_grey_zone(*sizes[-1][:2]),
            algorithm=AlgorithmSpec("bmmb"),
            scheduler=SchedulerSpec("worstcase"),
            workload=WorkloadSpec(
                "open_arrivals",
                {"process": "poisson", "rate": 0.005, "count": horizons[0]},
            ),
            model=ModelSpec(fack=FACK, fprog=FPROG),
            seed=seed,
        ),
        axes={"workload.count": horizons},
        options=RunOptions(window=50, max_windows=8),
    )
    services = tuple(
        SweepDirective(
            name=f"service{n}",
            base=ExperimentSpec(
                name="bench-service",
                topology=_grey_zone(n, side),
                algorithm=AlgorithmSpec("bmmb"),
                scheduler=SchedulerSpec("worstcase"),
                workload=WorkloadSpec(
                    "open_arrivals",
                    {"process": "poisson", "rate": rates[0], "count": count},
                ),
                model=ModelSpec(fack=FACK, fprog=FPROG),
                seed=seed,
            ),
            axes={"workload.rate": rates},
            repeats=repeats,
            journal=True,
        )
        for n, side, repeats in sizes
    )
    service_names = tuple(service.name for service in services)
    return CampaignSpec(
        name="service_journaled",
        title="Benchmark: journaled open-arrival service runs",
        sweeps=(long_horizon, *services),
        figures=(
            FigureSpec(
                name="latency_vs_rate",
                title="Delivery latency p95 vs arrival rate",
                x="workload.rate",
                series=tuple(
                    SeriesSpec(sweep=name, label=name, y="metric:latency_p95", agg="mean")
                    for name in service_names
                ),
            ),
        ),
        checks=(CheckSpec(kind="solved"),),
        trace_checks=tuple(
            CheckSpec(kind=kind, sweeps=service_names) for kind in TRACE_CHECK_KINDS
        ),
    )


BUILDERS = {
    "mmb_event": mmb_event,
    "radio_slots": radio_slots,
    "service_journaled": service_journaled,
}


def build(name: str, seed: int, scale: str = "full") -> CampaignSpec:
    """The named workload's campaign at ``seed``."""
    return BUILDERS[name](seed, scale)
