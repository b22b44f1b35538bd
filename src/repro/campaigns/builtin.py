"""Built-in campaigns: the paper's result set as declarative bundles.

Each entry regenerates one figure/theorem artifact end to end — specs,
sharded execution, checkpointing, figures, and machine checks, so
``campaign verify`` fails when a claim breaks:

* ``figure1`` — Figure 1's (Standard, G'=G) cell: BMMB completion scales
  as ``D*Fprog + k*Fack`` on reliable lines, within Theorem 3.16's t1.
* ``figure1_rrestricted`` — the (Standard, r-restricted G') cell: BMMB
  within Theorem 3.16's ``t1(r)`` as the unreliable edges' span r grows.
* ``figure1_greyzone`` — the (Standard, grey zone) cell's upper half:
  BMMB within Theorem 3.1's ``(D+k)*Fack``, also against the Figure 2
  adversary, where the bound is tight.
* ``figure2_lowerbound`` — the Figure 2 adversary forces ``(D-1)*Fack``
  while a benign scheduler on the same network stays fast.
* ``choke_lowerbound`` — Lemma 3.18: k messages behind one reliable edge
  need ``(k-1)*Fack``, one ``Fack`` per message, in an axiom-clean run.
* ``fmmb_enhanced`` — the (Enhanced, grey zone) cell: FMMB within
  Theorem 4.1's ``Fack``-free ``(D log n + k log n + log^3 n)*Fprog``.
* ``crossover`` — BMMB vs FMMB as ``Fack/Fprog`` grows: simplicity wins
  while acknowledgments are cheap, FMMB wins once they are expensive.
* ``fault_resilience`` — solved-rate/completion among survivors under
  crash fractions and link flapping (beyond-paper scenario diversity).
* ``radio_footnote2`` — footnote 2 from below: the decay radio MAC's
  emergent ``Fack`` grows with contention while ``Fprog`` stays small.
* ``saturation`` — steady-state service mode: arrival-rate sweeps per
  substrate under the ``open_arrivals`` workload, load-latency curves,
  per-window latency series from the journaled standard sweep, and the
  saturation-knee plus trace-level checks (see :mod:`repro.traffic` and
  :mod:`repro.campaigns.trace_checks`).

Builders accept an optional ``n_max`` that reduces the campaign.  For the
ladder campaigns (``figure1``, ``figure1_greyzone``,
``figure2_lowerbound``, ``choke_lowerbound``, ``fmmb_enhanced``,
``radio_footnote2``) it trims the size ladder from the top, so the
surviving points keep their full-campaign specs — hence the same store
keys — and a reduced CI run warms the cache for a full local run.
``crossover``, ``fault_resilience`` and ``figure1_rrestricted`` use one
fixed network size instead of a ladder; there ``n_max`` caps the network
size, which produces *different* specs (and store keys) from the full
campaign.
"""

from __future__ import annotations

import dataclasses
import inspect
from dataclasses import dataclass
from typing import Any, Callable

from repro.campaigns.spec import (
    CampaignSpec,
    CheckSpec,
    FigureSpec,
    SeriesSpec,
    SweepDirective,
    scaled_values,
)
from repro.errors import ExperimentError
from repro.experiments.registries import Registry
from repro.experiments.specs import (
    AlgorithmSpec,
    ExperimentSpec,
    FaultSpec,
    ModelSpec,
    SchedulerSpec,
    TopologySpec,
    WorkloadSpec,
)

CAMPAIGNS = Registry("campaign")


@dataclass(frozen=True)
class CampaignEntry:
    """A campaign registration: builder plus its one-line description."""

    build: Callable[..., CampaignSpec]
    description: str


def register_campaign(name: str, description: str):
    """Register ``build(**params) -> CampaignSpec`` under ``name``."""

    def _decorator(build: Callable[..., CampaignSpec]) -> Callable[..., CampaignSpec]:
        CAMPAIGNS.register(name)(CampaignEntry(build, description))
        return build

    return _decorator


def list_campaigns() -> list[str]:
    """Registered campaign names."""
    return CAMPAIGNS.names()


def build_campaign(name: str, **params: Any) -> CampaignSpec:
    """Build the registered campaign ``name`` with builder parameters."""
    entry = CAMPAIGNS.get(name)
    try:
        campaign = entry.build(**params)
    except TypeError as exc:
        raise ExperimentError(
            f"campaign {name!r} rejected params {sorted(params)}: {exc}"
        ) from exc
    if campaign.name != name:
        raise ExperimentError(
            f"campaign builder {name!r} produced spec named "
            f"{campaign.name!r}"
        )
    return campaign


FACK = 20.0
FPROG = 1.0


@register_campaign(
    "figure1",
    "Figure 1 (Standard, G'=G): BMMB = O(D*Fprog + k*Fack) within t1",
)
def _figure1(n_max: int | None = None) -> CampaignSpec:
    sizes = scaled_values((11, 21, 41, 61), n_max)
    n_for_k = max(scaled_values((11, 21), n_max))
    base = ExperimentSpec(
        name="figure1",
        topology=TopologySpec("line", {"n": 21}),
        algorithm=AlgorithmSpec("bmmb"),
        scheduler=SchedulerSpec("worstcase"),
        workload=WorkloadSpec("single_source", {"node": 0, "count": 2}),
        model=ModelSpec(fack=FACK, fprog=FPROG),
        seed=0,
    )
    d_scaling = SweepDirective(
        name="d_scaling",
        base=base,
        axes={"topology.n": list(sizes)},
        derive_seeds=False,
    )
    k_base = ExperimentSpec.from_dict(base.to_dict())
    k_scaling = SweepDirective(
        name="k_scaling",
        base=k_base,
        zip_axes={"topology.n": [n_for_k]},
        axes={"workload.count": [1, 4, 8, 16]},
        derive_seeds=False,
    )
    contention = SweepDirective(
        name="contention_reference",
        base=ExperimentSpec.from_dict(
            {
                **base.to_dict(),
                "topology": {"kind": "line", "params": {"n": n_for_k}},
                "scheduler": {"kind": "contention", "params": {}},
                "workload": {
                    "kind": "single_source",
                    "params": {"node": 0, "count": 8},
                },
            }
        ),
        derive_seeds=False,
    )
    return CampaignSpec(
        name="figure1",
        title="Figure 1 (Standard model, G' = G): BMMB on reliable lines",
        description=(
            "Sweeps line length at fixed k and message count at fixed D "
            "under worst-case acknowledgments; every run must meet "
            "Theorem 3.16's explicit t1 bound, D-scaling must ride on "
            "Fprog and k-scaling on Fack.  A contention-scheduler point "
            "shows the friendly-MAC case is faster still."
        ),
        sweeps=(d_scaling, k_scaling, contention),
        figures=(
            FigureSpec(
                name="time_vs_D",
                title="BMMB completion vs line length (k=2, worst-case acks)",
                x="topology.n",
                series=(SeriesSpec(sweep="d_scaling", label="measured"),),
                bound="bmmb_gg",
                xlabel="line nodes n (D = n-1)",
                ylabel="completion time",
            ),
            FigureSpec(
                name="time_vs_k",
                title="BMMB completion vs message count (worst-case acks)",
                x="workload.count",
                series=(SeriesSpec(sweep="k_scaling", label="measured"),),
                bound="bmmb_gg",
                xlabel="messages k",
                ylabel="completion time",
            ),
        ),
        checks=(
            CheckSpec(kind="solved"),
            CheckSpec(
                kind="upper_bound",
                sweeps=("d_scaling", "k_scaling", "contention_reference"),
                params={"bound": "bmmb_gg"},
            ),
            CheckSpec(
                kind="slope",
                sweeps=("d_scaling",),
                params={
                    "x": "topology.n",
                    "max_slope": FACK / 2,
                    "min_r_squared": 0.95,
                },
            ),
            CheckSpec(
                kind="slope",
                sweeps=("k_scaling",),
                params={
                    "x": "workload.count",
                    "min_slope": FACK / 2,
                    "min_r_squared": 0.95,
                },
            ),
        ),
    )


@register_campaign(
    "figure1_rrestricted",
    "Figure 1 (Standard, r-restricted G'): BMMB within Theorem 3.16's t1(r)",
)
def _figure1_rrestricted(n_max: int | None = None, seeds: int = 3) -> CampaignSpec:
    n = min(25, n_max) if n_max is not None else 25
    radii = [r for r in (1, 2, 4, 8) if r < n]
    sweep = SweepDirective(
        name="r_sweep",
        base=ExperimentSpec(
            name="figure1-rrestricted",
            topology=TopologySpec(
                "r_restricted_line", {"n": n, "r": 1, "probability": 0.5}
            ),
            algorithm=AlgorithmSpec("bmmb"),
            scheduler=SchedulerSpec("worstcase"),
            workload=WorkloadSpec("single_source", {"node": 0, "count": 6}),
            model=ModelSpec(fack=FACK, fprog=FPROG),
            seed=0,
        ),
        axes={"topology.r": radii},
        repeats=seeds,
    )
    return CampaignSpec(
        name="figure1_rrestricted",
        title="Figure 1 (Standard model, r-restricted G'): BMMB on lines",
        description=(
            "Adds unreliable edges spanning at most r hops to a reliable "
            "line and sweeps r under worst-case acknowledgments; every "
            "run must meet Theorem 3.16's t1 = (D + (r+1)k - 2)*Fprog + "
            "r(k-1)*Fack, the O(D*Fprog + r*k*Fack) cell of Figure 1."
        ),
        sweeps=(sweep,),
        figures=(
            FigureSpec(
                name="time_vs_r",
                title="BMMB completion vs edge span r (n=%d, k=6)" % n,
                x="topology.r",
                series=(SeriesSpec(sweep="r_sweep", label="measured"),),
                bound="bmmb_r_restricted",
                xlabel="unreliable edge span r (hops of G)",
                ylabel="completion time",
            ),
        ),
        checks=(
            CheckSpec(kind="solved"),
            CheckSpec(kind="upper_bound", params={"bound": "bmmb_r_restricted"}),
        ),
    )


@register_campaign(
    "figure1_greyzone",
    "Figure 1 (Standard, grey zone): BMMB within (D+k)*Fack (Theorem 3.1)",
)
def _figure1_greyzone(n_max: int | None = None, seeds: int = 3) -> CampaignSpec:
    sizes = scaled_values((30, 60, 90), n_max)
    sides = {30: 2.5, 60: 3.5, 90: 4.5}
    base = ExperimentSpec(
        name="figure1-greyzone",
        topology=TopologySpec(
            "random_geometric",
            {"n": 30, "side": 2.5, "c": 1.6, "grey_edge_probability": 0.4},
        ),
        algorithm=AlgorithmSpec("bmmb"),
        scheduler=SchedulerSpec("worstcase"),
        workload=WorkloadSpec("one_each", {"k": 4}),
        model=ModelSpec(fack=FACK, fprog=FPROG),
        seed=0,
    )
    n_scaling = SweepDirective(
        name="n_scaling",
        base=base,
        zip_axes={
            "topology.n": list(sizes),
            "topology.side": [sides[n] for n in sizes],
        },
        repeats=seeds,
    )
    k_scaling = SweepDirective(
        name="k_scaling",
        base=base,
        axes={"workload.k": [2, 8]},
        repeats=seeds,
    )
    # Worst-case acks keep BMMB on these networks within even the G'=G
    # bound; the Figure 2 adversary (a grey-zone network too) forces
    # (D-1)*Fack, where (D+k)*Fack is tight.  These are figure2_lowerbound's
    # adversarial points, so the two campaigns share their store entries.
    adversarial = _figure2_adversarial(
        scaled_values((10, 20, 40, 80), n_max), "figure2_adversary"
    )
    return CampaignSpec(
        name="figure1_greyzone",
        title="Figure 1 (Standard model, grey zone): BMMB upper bound",
        description=(
            "Runs BMMB on grey-zone random geometric networks under "
            "worst-case acknowledgments, and on the Figure 2 network "
            "against its frontier-starving adversary; every run must "
            "finish within Theorem 3.1's (D + k)*Fack, the upper half of "
            "Figure 1's Theta((D + k)*Fack) grey-zone cell."
        ),
        sweeps=(n_scaling, k_scaling, adversarial),
        figures=(
            FigureSpec(
                name="time_vs_n",
                title="BMMB completion on grey-zone networks (k=4, worst-case acks)",
                x="topology.n",
                series=(SeriesSpec(sweep="n_scaling", label="measured"),),
                bound="bmmb_arbitrary",
                xlabel="nodes n",
                ylabel="completion time",
            ),
            FigureSpec(
                name="time_vs_k",
                title="BMMB completion on grey-zone networks (n=30, worst-case acks)",
                x="workload.k",
                series=(SeriesSpec(sweep="k_scaling", label="measured"),),
                bound="bmmb_arbitrary",
                xlabel="messages k",
                ylabel="completion time",
            ),
            FigureSpec(
                name="adversary_time_vs_depth",
                title="BMMB completion against the Figure 2 adversary",
                x="topology.depth",
                series=(SeriesSpec(sweep="figure2_adversary", label="measured"),),
                bound="bmmb_arbitrary",
                xlabel="line depth",
                ylabel="completion time",
            ),
        ),
        checks=(
            CheckSpec(kind="solved"),
            CheckSpec(kind="upper_bound", params={"bound": "bmmb_arbitrary"}),
        ),
    )


def _figure2_base(depth: int) -> ExperimentSpec:
    """BMMB on the Figure 2 two-parallel-lines network of ``depth``."""
    return ExperimentSpec(
        name="figure2",
        topology=TopologySpec("parallel_lines", {"depth": depth}),
        algorithm=AlgorithmSpec("bmmb"),
        scheduler=SchedulerSpec("greyzone_adversary", {"depth": depth}),
        workload=WorkloadSpec("parallel_lines_sources"),
        model=ModelSpec(fack=FACK, fprog=FPROG),
        seed=0,
    )


def _figure2_adversarial(depths: list[int], name: str) -> SweepDirective:
    """The Figure 2 adversary across ``depths``: the same points (and
    store keys) in every campaign that names it."""
    return SweepDirective(
        name=name,
        base=_figure2_base(depths[0]),
        zip_axes={
            "topology.depth": list(depths),
            "scheduler.depth": list(depths),
        },
        derive_seeds=False,
    )


@register_campaign(
    "figure2_lowerbound",
    "Figure 2 adversary: (D-1)*Fack floor, benign scheduler for contrast",
)
def _figure2_lowerbound(n_max: int | None = None) -> CampaignSpec:
    depths = scaled_values((10, 20, 40, 80), n_max)
    adversarial = _figure2_adversarial(depths, "adversarial")
    benign = SweepDirective(
        name="benign",
        base=ExperimentSpec.from_dict(
            {
                **_figure2_base(depths[0]).to_dict(),
                "scheduler": {"kind": "uniform", "params": {}},
            }
        ),
        axes={"topology.depth": list(depths)},
    )
    return CampaignSpec(
        name="figure2_lowerbound",
        title="Figure 2 lower bound: frontier starvation forces (D-1)*Fack",
        description=(
            "Runs BMMB against the Lemma 3.19/3.20 frontier-starving "
            "adversary on the two-parallel-lines network across depths; "
            "completion must reach the (D-1)*Fack floor with slope ~Fack "
            "per hop, while a benign scheduler on the same network "
            "finishes an order of magnitude faster — the gap is the "
            "scheduler's doing, not the topology's."
        ),
        sweeps=(adversarial, benign),
        figures=(
            FigureSpec(
                name="completion_vs_depth",
                title="Adversarial vs benign completion on the Figure 2 network",
                x="topology.depth",
                series=(
                    SeriesSpec(sweep="adversarial", label="adversarial"),
                    SeriesSpec(sweep="benign", label="benign"),
                ),
                bound="figure2_floor",
                xlabel="line depth D",
                ylabel="completion time",
            ),
        ),
        checks=(
            CheckSpec(kind="solved"),
            CheckSpec(
                kind="lower_bound",
                sweeps=("adversarial",),
                params={"bound": "figure2_floor"},
            ),
            CheckSpec(
                kind="slope",
                sweeps=("adversarial",),
                params={
                    "x": "topology.depth",
                    "min_slope": FACK - 0.5,
                    "max_slope": FACK + 0.5,
                    "min_r_squared": 0.999,
                },
            ),
        ),
    )


def _choke_base(name: str, k: int) -> ExperimentSpec:
    """BMMB on the Lemma 3.18 choke star of ``k`` sources."""
    return ExperimentSpec(
        name=name,
        topology=TopologySpec("choke_star", {"k": k}),
        algorithm=AlgorithmSpec("bmmb"),
        scheduler=SchedulerSpec("choke"),
        workload=WorkloadSpec("one_each", {"k": k}),
        model=ModelSpec(fack=FACK, fprog=FPROG),
        seed=0,
    )


@register_campaign(
    "choke_lowerbound",
    "Lemma 3.18 choke point: k messages cross one edge at one per Fack",
)
def _choke_lowerbound(n_max: int | None = None) -> CampaignSpec:
    # The choke star for k messages has k + 1 nodes.
    ks = [n - 1 for n in scaled_values((9, 17, 33, 65), n_max)]
    ladder = SweepDirective(
        name="ladder",
        base=_choke_base("choke", ks[0]),
        zip_axes={"topology.k": list(ks), "workload.k": list(ks)},
        derive_seeds=False,
    )
    # The k=8 run once more, under its own name (so its own store entry)
    # and with its journal: mac_axioms certifies that the adversary that
    # forces the floor is a legal MAC layer.
    certified = SweepDirective(
        name="certified",
        base=_choke_base("choke-certified", 8),
        derive_seeds=False,
        journal=True,
    )
    return CampaignSpec(
        name="choke_lowerbound",
        title="Lemma 3.18 choke point: Omega(k*Fack)",
        description=(
            "Runs BMMB on the choke star, where k sources sit behind one "
            "reliable hub-sink edge, against the full-Fack adversary; "
            "completion must reach the (k-1)*Fack floor with a slope of "
            "one Fack per message, and the journaled k=8 execution must "
            "satisfy the MAC-layer axioms, so the adversary is legal."
        ),
        sweeps=(ladder, certified),
        figures=(
            FigureSpec(
                name="completion_vs_k",
                title="BMMB completion vs messages through the choke point",
                x="topology.k",
                series=(SeriesSpec(sweep="ladder", label="measured"),),
                bound="choke_floor",
                xlabel="messages k",
                ylabel="completion time",
            ),
        ),
        checks=(
            CheckSpec(kind="solved"),
            CheckSpec(kind="lower_bound", params={"bound": "choke_floor"}),
            CheckSpec(
                kind="slope",
                sweeps=("ladder",),
                params={
                    "x": "topology.k",
                    "min_slope": FACK - 1.0,
                    "max_slope": FACK + 1.0,
                    "min_r_squared": 0.999,
                },
            ),
        ),
        trace_checks=(CheckSpec(kind="mac_axioms", sweeps=("certified",)),),
    )


@register_campaign(
    "fmmb_enhanced",
    "Figure 1 (Enhanced, grey zone): FMMB within Theorem 4.1's Fack-free bound",
)
def _fmmb_enhanced(n_max: int | None = None, seeds: int = 3) -> CampaignSpec:
    sizes = scaled_values((20, 40, 80), n_max)
    sides = {20: 2.0, 40: 3.0, 80: 4.5}
    base = ExperimentSpec(
        name="fmmb-enhanced",
        topology=TopologySpec(
            "random_geometric",
            {"n": 20, "side": 2.0, "c": 1.6, "grey_edge_probability": 0.4},
        ),
        algorithm=AlgorithmSpec("fmmb", {"c": 1.6}),
        workload=WorkloadSpec("one_each", {"k": 4}),
        model=ModelSpec(fprog=FPROG),
        substrate="rounds",
        seed=0,
    )
    n_scaling = SweepDirective(
        name="n_scaling",
        base=base,
        zip_axes={
            "topology.n": list(sizes),
            "topology.side": [sides[n] for n in sizes],
        },
        repeats=seeds,
    )
    k_scaling = SweepDirective(
        name="k_scaling",
        base=base,
        axes={"workload.k": [2, 4, 8, 16]},
        repeats=seeds,
    )
    return CampaignSpec(
        name="fmmb_enhanced",
        title="Figure 1 (Enhanced model, grey zone): FMMB",
        description=(
            "Runs FMMB on the rounds substrate over grey-zone random "
            "geometric networks, sweeping n at fixed k and k at fixed n; "
            "every run must solve with a valid MIS and finish within "
            "Theorem 4.1's O((D log n + k log n + log^3 n)*Fprog) shape, "
            "which has no Fack term."
        ),
        sweeps=(n_scaling, k_scaling),
        figures=(
            FigureSpec(
                name="time_vs_n",
                title="FMMB completion vs network size (k=4)",
                x="topology.n",
                series=(SeriesSpec(sweep="n_scaling", label="measured"),),
                bound="fmmb_rounds",
                xlabel="nodes n",
                ylabel="completion time (rounds x Fprog)",
            ),
            FigureSpec(
                name="time_vs_k",
                title="FMMB completion vs message count (n=20)",
                x="workload.k",
                series=(SeriesSpec(sweep="k_scaling", label="measured"),),
                bound="fmmb_rounds",
                xlabel="messages k",
                ylabel="completion time (rounds x Fprog)",
            ),
        ),
        checks=(
            CheckSpec(kind="solved"),
            CheckSpec(kind="upper_bound", params={"bound": "fmmb_rounds"}),
            CheckSpec(
                kind="metric_dominates",
                params={"upper": "metric:mis_valid", "lower": "solved"},
            ),
        ),
    )


@register_campaign(
    "crossover",
    "BMMB vs FMMB crossover as Fack/Fprog grows (Figure 1's two rows)",
)
def _crossover(n_max: int | None = None) -> CampaignSpec:
    n = min(40, n_max) if n_max is not None else 40
    ratios = [2.0, 10.0, 50.0, 250.0, 1000.0]
    topology = TopologySpec(
        "random_geometric",
        {"n": n, "side": 3.0, "c": 1.6, "grey_edge_probability": 0.4},
    )
    bmmb = SweepDirective(
        name="bmmb",
        base=ExperimentSpec(
            name="crossover-bmmb",
            topology=topology,
            algorithm=AlgorithmSpec("bmmb"),
            scheduler=SchedulerSpec("worstcase"),
            workload=WorkloadSpec("one_each", {"k": 5}),
            model=ModelSpec(fack=ratios[0] * FPROG, fprog=FPROG),
            seed=0,
        ),
        axes={"model.fack": list(ratios)},
        derive_seeds=False,
    )
    fmmb = SweepDirective(
        name="fmmb",
        base=ExperimentSpec(
            name="crossover-fmmb",
            topology=topology,
            algorithm=AlgorithmSpec("fmmb"),
            workload=WorkloadSpec("one_each", {"k": 5}),
            model=ModelSpec(fack=ratios[0] * FPROG, fprog=FPROG),
            substrate="rounds",
            seed=0,
        ),
        # The rounds substrate never consults Fack — the sweep shows the
        # ratio-independence as a flat line over the same axis.
        axes={"model.fack": list(ratios)},
        derive_seeds=False,
    )
    return CampaignSpec(
        name="crossover",
        title="BMMB vs FMMB: completion as the Fack/Fprog ratio grows",
        description=(
            "Fixes one grey-zone network and workload and sweeps the "
            "Fack/Fprog ratio.  BMMB pays Theta((D+k)*Fack) under "
            "worst-case acknowledgments while FMMB's enhanced-model "
            "phases are ratio-independent: cheap acks favor BMMB, "
            "expensive acks must eventually favor FMMB despite its "
            "polylog overhead."
        ),
        sweeps=(bmmb, fmmb),
        figures=(
            FigureSpec(
                name="completion_vs_ratio",
                title="Completion vs Fack/Fprog (n=%d, k=5)" % n,
                x="model.fack",
                series=(
                    SeriesSpec(sweep="bmmb", label="BMMB (worst-case acks)"),
                    SeriesSpec(sweep="fmmb", label="FMMB (ratio-free)"),
                ),
                xlabel="Fack / Fprog",
                ylabel="completion time",
            ),
        ),
        checks=(
            CheckSpec(kind="solved"),
            CheckSpec(
                kind="crossover",
                params={"x": "model.fack", "first": "bmmb", "last": "fmmb"},
            ),
        ),
    )


@register_campaign(
    "fault_resilience",
    "BMMB vs FMMB under crash fractions and link flapping (among survivors)",
)
def _fault_resilience(n_max: int | None = None, seeds: int = 6) -> CampaignSpec:
    n = min(20, n_max) if n_max is not None else 20
    fractions = [0.0, 0.15, 0.3]
    periods = [20.0, 8.0, 3.0]
    topology = TopologySpec(
        "random_geometric",
        {"n": n, "side": 2.2, "c": 1.6, "grey_edge_probability": 0.4},
    )

    def bmmb_base(name: str, fault: FaultSpec) -> ExperimentSpec:
        return ExperimentSpec(
            name=name,
            topology=topology,
            algorithm=AlgorithmSpec("bmmb"),
            workload=WorkloadSpec("one_each", {"k": 3}),
            fault=fault,
            model=ModelSpec(fack=FACK, fprog=FPROG),
            seed=0,
        )

    def fmmb_base(name: str, fault: FaultSpec) -> ExperimentSpec:
        return ExperimentSpec(
            name=name,
            topology=topology,
            algorithm=AlgorithmSpec("fmmb", {"c": 1.6}),
            workload=WorkloadSpec("one_each", {"k": 3}),
            fault=fault,
            model=ModelSpec(fack=FACK, fprog=FPROG),
            substrate="rounds",
            seed=0,
        )

    # Crash windows scale to each algorithm's completion scale (BMMB
    # finishes in a few Fprog, FMMB runs for hundreds of rounds) so the
    # faults hit mid-run rather than after quiescence.
    crash_bmmb = FaultSpec(
        "crash_random",
        {"fraction": 0.0, "earliest": 0.0, "latest": 0.4, "horizon": 5.0},
    )
    crash_fmmb = FaultSpec(
        "crash_random",
        {"fraction": 0.0, "earliest": 0.0, "latest": 0.4, "horizon": 300.0},
    )
    flap = FaultSpec("flap_periodic", {"fraction": 0.8, "period": 20.0, "duty": 0.5})
    sweeps = (
        SweepDirective(
            name="bmmb_crash",
            base=bmmb_base("fault-bmmb", crash_bmmb),
            zip_axes={"fault.fraction": list(fractions)},
            repeats=seeds,
        ),
        SweepDirective(
            name="fmmb_crash",
            base=fmmb_base("fault-fmmb", crash_fmmb),
            zip_axes={"fault.fraction": list(fractions)},
            repeats=seeds,
        ),
        SweepDirective(
            name="bmmb_flap",
            base=bmmb_base("flap-bmmb", flap),
            zip_axes={"fault.period": list(periods)},
            repeats=seeds,
        ),
        SweepDirective(
            name="fmmb_flap",
            base=fmmb_base("flap-fmmb", flap),
            zip_axes={"fault.period": list(periods)},
            repeats=seeds,
        ),
    )
    return CampaignSpec(
        name="fault_resilience",
        title="Fault resilience: BMMB vs FMMB under crashes and flapping",
        description=(
            "Sweeps node-crash fractions and link-flap rates over paired "
            "replication seeds.  Fault-free baselines must solve "
            "outright; BMMB's among-survivors solved rate is "
            "non-increasing in the crash fraction (crashes only destroy "
            "delivery paths); link flapping alone never breaks "
            "solvability (flapped edges only add reliability over the "
            "grey baseline) but perturbs completion."
        ),
        sweeps=sweeps,
        figures=(
            FigureSpec(
                name="solved_vs_crash",
                title="Among-survivors solved rate vs crash fraction",
                x="fault.fraction",
                series=(
                    SeriesSpec(
                        sweep="bmmb_crash", y="solved", agg="mean", label="BMMB"
                    ),
                    SeriesSpec(
                        sweep="fmmb_crash", y="solved", agg="mean", label="FMMB"
                    ),
                ),
                xlabel="crash fraction",
                ylabel="solved rate",
            ),
            FigureSpec(
                name="completion_vs_flap",
                title="Completion (among survivors) vs link-flap period",
                x="fault.period",
                series=(
                    SeriesSpec(sweep="bmmb_flap", label="BMMB"),
                    SeriesSpec(sweep="fmmb_flap", label="FMMB"),
                ),
                xlabel="flap period (smaller = faster flapping)",
                ylabel="completion time",
            ),
        ),
        checks=(
            CheckSpec(
                kind="nonincreasing_rate",
                sweeps=("bmmb_crash",),
                params={"x": "fault.fraction", "require_first": 1.0},
            ),
            CheckSpec(
                kind="rate_at",
                sweeps=("fmmb_crash",),
                params={"x": "fault.fraction", "x_value": 0.0, "min_rate": 1.0},
            ),
            CheckSpec(kind="solved", sweeps=("bmmb_flap", "fmmb_flap")),
        ),
    )


@register_campaign(
    "radio_footnote2",
    "Footnote 2 from below: decay radio MAC yields Fack >> Fprog",
)
def _radio_footnote2(n_max: int | None = None, seeds: int = 3) -> CampaignSpec:
    sizes = scaled_values((6, 12, 24, 48), n_max)
    span_ratio = sizes[-1] / sizes[0]
    stars = SweepDirective(
        name="stars",
        base=ExperimentSpec(
            name="radio-star",
            topology=TopologySpec("star", {"n": sizes[0]}),
            algorithm=AlgorithmSpec("bmmb"),
            workload=WorkloadSpec("one_each", {"nodes": list(range(1, sizes[0]))}),
            model=ModelSpec(params={"max_slots": 500_000}),
            substrate="radio",
            seed=0,
        ),
        zip_axes={
            "topology.n": list(sizes),
            "workload.nodes": [list(range(1, n)) for n in sizes],
        },
        repeats=seeds,
    )
    return CampaignSpec(
        name="radio_footnote2",
        title="Footnote 2 from below: empirical Fack/Fprog over the radio MAC",
        description=(
            "Runs BMMB over the implemented slotted-collision radio MAC "
            "with decay back-off on stars of growing size and extracts "
            "each execution's empirical Fack/Fprog (the smallest "
            "constants satisfying the abstract-MAC timing axioms).  "
            "Fack must grow strongly with contention while Fprog stays "
            "far smaller — the gap the enhanced model abstracts."
        ),
        sweeps=(stars,),
        figures=(
            FigureSpec(
                name="bounds_vs_contention",
                title="Empirical Fack and Fprog vs star size",
                x="topology.n",
                series=(
                    SeriesSpec(
                        sweep="stars",
                        y="metric:empirical_fack",
                        agg="mean",
                        label="empirical Fack",
                    ),
                    SeriesSpec(
                        sweep="stars",
                        y="metric:empirical_fprog",
                        agg="mean",
                        label="empirical Fprog",
                    ),
                ),
                xlabel="star size n (contention)",
                ylabel="slots",
            ),
        ),
        checks=(
            CheckSpec(kind="solved"),
            CheckSpec(
                kind="growth_gap",
                params={
                    "x": "topology.n",
                    "fast": "metric:empirical_fack",
                    "slow": "metric:empirical_fprog",
                    "min_fast_growth": max(1.5, span_ratio / 2.0),
                    # Fprog's polylog shape only pulls clearly ahead of
                    # Fack's linear growth once the ladder spans ~an order
                    # of magnitude; reduced ladders get more headroom.
                    "max_slow_fraction": 0.5 if span_ratio >= 8 else 0.75,
                },
            ),
        ),
    )


@register_campaign(
    "saturation",
    "Load vs latency under open arrivals: locate each substrate's knee",
)
def _saturation(n_max: int | None = None, seeds: int = 3) -> CampaignSpec:
    n = 16 if n_max is None else max(min(16, n_max), 8)
    topology = TopologySpec(
        "random_geometric",
        {"n": n, "side": 2.2, "c": 1.6, "grey_edge_probability": 0.4},
    )
    workload = WorkloadSpec(
        "open_arrivals", {"process": "poisson", "rate": 0.005, "count": 24}
    )
    # Per-substrate rate ladders straddling the empirically located knee
    # (slotted-radio service is far slower than the abstract MAC's, so
    # its ladder sits an order of magnitude lower).
    standard = SweepDirective(
        name="standard",
        base=ExperimentSpec(
            name="saturation-standard",
            topology=topology,
            algorithm=AlgorithmSpec("bmmb"),
            scheduler=SchedulerSpec("worstcase"),
            workload=workload,
            model=ModelSpec(fack=FACK, fprog=FPROG),
            seed=0,
        ),
        axes={"workload.rate": [0.005, 0.02, 0.08, 0.32]},
        repeats=seeds,
        journal=True,
    )
    radio = SweepDirective(
        name="radio",
        base=ExperimentSpec(
            name="saturation-radio",
            topology=topology,
            algorithm=AlgorithmSpec("bmmb"),
            workload=workload,
            model=ModelSpec(params={"max_slots": 5_000_000}),
            substrate="radio",
            seed=0,
        ),
        axes={"workload.rate": [0.002, 0.005, 0.01, 0.02]},
        repeats=seeds,
    )
    sinr = SweepDirective(
        name="sinr",
        base=ExperimentSpec(
            name="saturation-sinr",
            topology=topology,
            algorithm=AlgorithmSpec("bmmb"),
            workload=workload,
            model=ModelSpec(params={"max_slots": 5_000_000}),
            substrate="sinr",
            seed=0,
        ),
        axes={"workload.rate": [0.002, 0.005, 0.01, 0.02]},
        repeats=seeds,
    )
    return CampaignSpec(
        name="saturation",
        title="Steady-state saturation: delivery latency vs arrival rate",
        description=(
            "Sweeps the Poisson arrival rate of the open_arrivals "
            "workload per substrate (standard under worst-case acks, "
            "radio, sinr) and reads the warmup-trimmed steady-state "
            "gauges the traffic subsystem emits.  Each substrate's "
            "load-latency curve must stay flat at low rates and bend "
            "sharply past its service capacity — the saturation knee the "
            "knee check locates; throughput must plateau past it.  The "
            "standard substrate queues but always drains, so it must "
            "solve outright; past the knee a saturated slotted radio may "
            "legitimately fail to drain within the slot budget, so the "
            "radio-family solved gate tolerates a small unsolved tail."
        ),
        sweeps=(standard, radio, sinr),
        figures=(
            FigureSpec(
                name="latency_vs_rate",
                title="Delivery latency p95 vs arrival rate (n=%d)" % n,
                x="workload.rate",
                series=(
                    SeriesSpec(
                        sweep="standard",
                        y="metric:latency_p95",
                        agg="mean",
                        label="standard (worst-case acks)",
                    ),
                    SeriesSpec(
                        sweep="radio",
                        y="metric:latency_p95",
                        agg="mean",
                        label="radio",
                    ),
                    SeriesSpec(
                        sweep="sinr",
                        y="metric:latency_p95",
                        agg="mean",
                        label="sinr",
                    ),
                ),
                xlabel="arrival rate (messages per time unit)",
                ylabel="latency p95 (substrate time units)",
            ),
            FigureSpec(
                name="throughput_vs_rate",
                title="Delivered throughput vs arrival rate (n=%d)" % n,
                x="workload.rate",
                series=(
                    SeriesSpec(
                        sweep="standard",
                        y="metric:throughput",
                        agg="mean",
                        label="standard (worst-case acks)",
                    ),
                    SeriesSpec(
                        sweep="radio",
                        y="metric:throughput",
                        agg="mean",
                        label="radio",
                    ),
                    SeriesSpec(
                        sweep="sinr",
                        y="metric:throughput",
                        agg="mean",
                        label="sinr",
                    ),
                ),
                xlabel="arrival rate (messages per time unit)",
                ylabel="completions per time unit",
            ),
            FigureSpec(
                name="latency_windows",
                title="Per-window delivery latency, standard sweep (n=%d)" % n,
                x="window",
                series=(
                    SeriesSpec(
                        sweep="standard",
                        y="series:window_latency_mean",
                        agg="mean",
                        label="standard (all rates pooled)",
                    ),
                ),
                xlabel="steady-state window index",
                ylabel="mean delivery latency (time units)",
            ),
        ),
        checks=(
            CheckSpec(kind="solved", sweeps=("standard",)),
            CheckSpec(
                kind="solved",
                sweeps=("radio", "sinr"),
                params={"min_rate": 0.9},
            ),
            CheckSpec(
                kind="saturation_knee",
                params={
                    "x": "workload.rate",
                    "y": "metric:latency_p95",
                    "knee_ratio": 3.0,
                    "min_points": 3,
                },
            ),
        ),
        trace_checks=(
            CheckSpec(kind="ack_latency", sweeps=("standard",)),
            CheckSpec(kind="abort_accounting", sweeps=("standard",)),
            CheckSpec(kind="delivery_order", sweeps=("standard",)),
        ),
    )


@register_campaign(
    "sinr_contention",
    "SINR substrate: empirical Fack grows with contention, Fprog stays small",
)
def _sinr_contention(n_max: int | None = None, seeds: int = 3) -> CampaignSpec:
    n = 24 if n_max is None else max(min(24, n_max), 8)
    ks = (1, 2, 4, 8)
    base = ExperimentSpec(
        name="sinr-contention",
        topology=TopologySpec(
            "random_geometric",
            {"n": n, "side": 2.5, "c": 1.6, "grey_edge_probability": 0.4},
        ),
        algorithm=AlgorithmSpec("bmmb"),
        workload=WorkloadSpec("one_each", {"k": 1}),
        model=ModelSpec(params={"max_slots": 500_000}),
        substrate="sinr",
        seed=0,
    )
    contention = SweepDirective(
        name="contention",
        base=base,
        axes={"workload.k": list(ks)},
        repeats=seeds,
    )
    return CampaignSpec(
        name="sinr_contention",
        title="Footnote 2 under SINR: empirical Fack/Fprog vs message load",
        description=(
            "Runs BMMB over the SINR-reception radio (distance-threshold "
            "signal/interference over an embedded grey-zone network, "
            "the registry-only 'sinr' substrate) with growing message "
            "counts and extracts each execution's empirical Fack/Fprog.  "
            "The abstract-MAC ordering Fack >= Fprog must hold pointwise "
            "even when reliability emerges from SINR geometry rather "
            "than the binary collision model."
        ),
        sweeps=(contention,),
        figures=(
            FigureSpec(
                name="sinr_bounds_vs_k",
                title="Empirical Fack and Fprog vs message count (SINR)",
                x="workload.k",
                series=(
                    SeriesSpec(
                        sweep="contention",
                        y="metric:empirical_fack",
                        agg="mean",
                        label="empirical Fack",
                    ),
                    SeriesSpec(
                        sweep="contention",
                        y="metric:empirical_fprog",
                        agg="mean",
                        label="empirical Fprog",
                    ),
                ),
                xlabel="messages k (contention)",
                ylabel="slots",
            ),
        ),
        checks=(
            CheckSpec(kind="solved"),
            CheckSpec(
                kind="metric_dominates",
                params={
                    "upper": "metric:empirical_fack",
                    "lower": "metric:empirical_fprog",
                },
            ),
        ),
    )


@register_campaign(
    "smoke",
    "Seconds-fast line ladder for fabric drills (chaos/CI smoke)",
)
def _smoke(points: int = 6, k: int = 1, n_max: int | None = None) -> CampaignSpec:
    """A deliberately tiny campaign for exercising the fabric itself.

    Every point is a short reliable-line BMMB run (milliseconds each), so
    chaos drills, budget tests, and CI smoke lanes can kill, hang, and
    corrupt their way through a full campaign in seconds.  The checks are
    real (Theorem 3.16's t1 bound), so a converged chaos run still proves
    something about the simulator, not just the supervisor.
    """
    if points < 1:
        raise ExperimentError(f"smoke needs points >= 1, got {points}")
    sizes = scaled_values(tuple(4 + 2 * i for i in range(points)), n_max)
    base = ExperimentSpec(
        name="smoke",
        topology=TopologySpec("line", {"n": 4}),
        algorithm=AlgorithmSpec("bmmb"),
        scheduler=SchedulerSpec("worstcase"),
        workload=WorkloadSpec("single_source", {"node": 0, "count": k}),
        model=ModelSpec(fack=FACK, fprog=FPROG),
        seed=0,
    )
    ladder = SweepDirective(
        name="lines",
        base=base,
        axes={"topology.n": sizes},
        derive_seeds=False,
    )
    return CampaignSpec(
        name="smoke",
        title="Fabric smoke: BMMB on short reliable lines",
        description=(
            "A seconds-fast line ladder used to drill the supervised "
            "campaign fabric (chaos injection, budgets, resume) and as "
            "the CI chaos-smoke workload; bounds are checked for real."
        ),
        sweeps=(ladder,),
        figures=(
            FigureSpec(
                name="smoke_time_vs_D",
                title="BMMB completion vs line length (smoke ladder)",
                x="topology.n",
                series=(SeriesSpec(sweep="lines", label="measured"),),
                bound="bmmb_gg",
                xlabel="line nodes n (D = n-1)",
                ylabel="completion time",
            ),
        ),
        checks=(
            CheckSpec(kind="solved"),
            CheckSpec(kind="upper_bound", params={"bound": "bmmb_gg"}),
        ),
    )


# ----------------------------------------------------------------------
# The all_figures meta-campaign
# ----------------------------------------------------------------------

#: Separator between a source campaign's name and its sweep names inside
#: the merged campaign.  ``:`` cannot appear in campaign or sweep names,
#: so prefixed names never collide and scope globs stay exact.
META_SWEEP_SEP = ":"

#: Separator for figure artifact basenames (which become file names, so
#: they avoid ``:``).
META_FIGURE_SEP = "__"


def _prefix_patterns(name: str, patterns: tuple[str, ...]) -> tuple[str, ...]:
    """Scope a check's sweep globs to one source campaign's sweeps.

    The campaign name is prepended literally, so a pattern matches a
    prefixed sweep name exactly when the original pattern matched the
    original sweep name — ``("*",)`` becomes "every sweep of *this*
    campaign", never a cross-campaign wildcard.
    """
    return tuple(f"{name}{META_SWEEP_SEP}{pattern}" for pattern in patterns)


#: Check params that name a sweep, by check kind: the merge prefixes them
#: as it prefixes the check's scope.
_SWEEP_PARAMS = {"crossover": ("first", "last")}


def _prefix_check(name: str, check: CheckSpec) -> CheckSpec:
    """One check scoped to, and naming, one source campaign's sweeps."""
    params = dict(check.params)
    for key in _SWEEP_PARAMS.get(check.kind, ()):
        if key in params:
            params[key] = f"{name}{META_SWEEP_SEP}{params[key]}"
    return CheckSpec(
        kind=check.kind,
        sweeps=_prefix_patterns(name, check.sweeps),
        params=params,
    )


def _prefix_campaign(name: str, campaign: CampaignSpec) -> CampaignSpec:
    """Namespace one campaign's directives for inclusion in the merge.

    Only *names and scopes* are rewritten — every sweep keeps its base
    spec, axes, and seeds untouched, so the merged campaign expands to
    exactly the same :class:`ExperimentSpec` points (hence the same
    store keys) as the individual campaigns.  Running ``all_figures``
    against a store warmed by individual campaigns is a 100% cache hit,
    and vice versa.
    """
    prefix = f"{name}{META_SWEEP_SEP}"
    sweeps = tuple(
        dataclasses.replace(directive, name=prefix + directive.name)
        for directive in campaign.sweeps
    )
    figures = tuple(
        FigureSpec(
            name=f"{name}{META_FIGURE_SEP}{figure.name}",
            title=f"{campaign.title} — {figure.title}",
            x=figure.x,
            series=tuple(
                SeriesSpec(
                    sweep=prefix + series.sweep,
                    y=series.y,
                    label=f"{name}:{series.label}",
                    agg=series.agg,
                )
                for series in figure.series
            ),
            bound=figure.bound,
            xlabel=figure.xlabel,
            ylabel=figure.ylabel,
        )
        for figure in campaign.figures
    )
    checks = tuple(_prefix_check(name, check) for check in campaign.checks)
    trace_checks = tuple(_prefix_check(name, check) for check in campaign.trace_checks)
    return CampaignSpec(
        name=campaign.name,
        title=campaign.title,
        sweeps=sweeps,
        figures=figures,
        checks=checks,
        trace_checks=trace_checks,
        description=campaign.description,
    )


def _parse_include(include: Any) -> list[str]:
    """``include=`` builder param → ordered campaign names."""
    if isinstance(include, str):
        names = [part.strip() for part in include.split(",") if part.strip()]
    else:
        names = [str(part) for part in include]
    known = [n for n in list_campaigns() if n != "all_figures"]
    unknown = sorted(set(names) - set(known))
    if unknown:
        raise ExperimentError(
            f"all_figures: unknown campaign(s) {', '.join(unknown)} in "
            f"include= (known: {', '.join(known)})"
        )
    if not names:
        raise ExperimentError("all_figures: include= selected no campaigns")
    # Registry order, deduplicated — the merge order is part of the
    # campaign's identity, so it must not depend on how include= was
    # spelled.
    selected = set(names)
    return [n for n in known if n in selected]


@register_campaign(
    "all_figures",
    "Meta-campaign: every built-in campaign, one shared store, one report",
)
def _all_figures(
    n_max: int | None = None,
    seeds: int | None = None,
    include: Any = None,
) -> CampaignSpec:
    """The whole paper as one campaign: every built-in merged.

    Each source campaign's sweeps are renamed ``<campaign>:<sweep>`` and
    its figures ``<campaign>__<figure>``; checks and trace checks keep
    their scopes within their source campaign.  Because only names are
    rewritten, the merged campaign's points are spec-for-spec (and so
    store-key-for-store-key) the individual campaigns' points: one
    shared store serves both, sharding and resume work unchanged, and
    ``repro campaign run all_figures`` regenerates the full paper in a
    single resumable command.

    Args:
        n_max: Forwarded to every builder that accepts it (ladder trim /
            network-size cap, see the module docstring).
        seeds: Forwarded to every builder that accepts it (replication
            count for the seeded campaigns).
        include: Comma-separated campaign names (or a list) to merge a
            subset — e.g. ``--set include=figure1,smoke`` for smoke
            lanes.  Defaults to every built-in campaign.
    """
    if include is None:
        names = [n for n in list_campaigns() if n != "all_figures"]
    else:
        names = _parse_include(include)
    merged_sweeps: list[SweepDirective] = []
    merged_figures: list[FigureSpec] = []
    merged_checks: list[CheckSpec] = []
    merged_trace_checks: list[CheckSpec] = []
    for name in names:
        entry = CAMPAIGNS.get(name)
        accepted = set(inspect.signature(entry.build).parameters)
        params: dict[str, Any] = {}
        if n_max is not None and "n_max" in accepted:
            params["n_max"] = n_max
        if seeds is not None and "seeds" in accepted:
            params["seeds"] = seeds
        prefixed = _prefix_campaign(name, entry.build(**params))
        merged_sweeps.extend(prefixed.sweeps)
        merged_figures.extend(prefixed.figures)
        merged_checks.extend(prefixed.checks)
        merged_trace_checks.extend(prefixed.trace_checks)
    return CampaignSpec(
        name="all_figures",
        title="All figures: the full paper result set",
        description=(
            "Every built-in campaign merged into one resumable unit: the "
            "paper's Figure 1 cells and figures, lower bounds, crossover, "
            "fault resilience, radio and SINR contention, saturation, and "
            "the smoke ladder "
            "share one content-addressed store and emit one combined "
            "report.  Point specs are identical to the individual "
            "campaigns', so warm stores are reused in both directions."
        ),
        sweeps=tuple(merged_sweeps),
        figures=tuple(merged_figures),
        checks=tuple(merged_checks),
        trace_checks=tuple(merged_trace_checks),
    )
