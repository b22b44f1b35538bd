"""Topology facts in store entries: bounds read them, builds are a fallback.

Fabric workers record each point's reliable ``diameter`` beside its
result, so a report or verify over a full store evaluates the diameter
bounds without building a single network.  An entry written before facts
existed (or stripped of them here) makes the bound build the network
instead, and every verdict and artifact must come out the same.
"""

from __future__ import annotations

import dataclasses
import filecmp
import importlib.util
import os

import pytest

from repro.campaigns import (
    FabricConfig,
    ResultStore,
    build_campaign,
    evaluate_checks,
    expand_points,
    results_by_sweep,
    run_campaign,
    write_artifacts,
)
from repro.analysis.bounds import (
    bmmb_r_restricted_bound,
    choke_lower_bound,
    fmmb_bound_time,
)
from repro.campaigns import trace_checks
from repro.campaigns.checks import FMMB_ROUNDS_FACTOR, bound_value
from repro.campaigns.store import decode_summary
from repro.cli import main
from repro.experiments import FaultSpec, substrates
from repro.experiments.substrates import clear_topology_cache, topology_facts
from repro.experiments.sweep import path_value

WORKLOADS_PY = os.path.join(
    os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py"
)


def _mmb_event_tiny():
    """The benchmark's ``mmb_event`` campaign at its tiny scale."""
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build("mmb_event", 1, "tiny")


def _count_builds(monkeypatch) -> list:
    """Record every ``materialize_topology`` call from here on (bounds'
    fallback and trace checks alike), starting from an empty topology
    memo."""
    clear_topology_cache()
    calls = []
    real = substrates.materialize_topology

    def counting(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(substrates, "materialize_topology", counting)
    monkeypatch.setattr(trace_checks, "materialize_topology", counting)
    return calls


def _strip_facts(root: str) -> int:
    """Rewrite every summary entry without its facts: the old layout."""
    store = ResultStore(root)
    stripped = 0
    for kind, key in list(store.backend.list_entries()):
        if kind != "summary":
            continue
        result, facts = decode_summary(store.backend.get(kind, key), key)
        assert facts is not None
        store.put(result)
        stripped += 1
    return stripped


def _cached_report(campaign, root: str, artifacts: str):
    """A fully cached pass: read back, check, write the report."""
    run = run_campaign(campaign, ResultStore(root), fabric=FabricConfig(workers=2))
    assert run.cached == run.total and run.ran == 0
    points_by_sweep = results_by_sweep(run)
    outcomes = evaluate_checks(campaign, points_by_sweep)
    write_artifacts(campaign, points_by_sweep, outcomes, artifacts, health=run.health)
    return outcomes


def _same_artifacts(left: str, right: str) -> None:
    """Byte-identical artifact trees, fabric telemetry aside."""
    comparison = filecmp.dircmp(left, right, ignore=["health.json"])
    pending = [comparison]
    while pending:
        node = pending.pop()
        assert not node.left_only and not node.right_only
        _, mismatch, errors = filecmp.cmpfiles(
            node.left, node.right, node.common_files, shallow=False
        )
        assert not mismatch and not errors, mismatch or errors
        pending.extend(node.subdirs.values())


def test_cached_mmb_event_pass_builds_no_topology(tmp_path, monkeypatch):
    campaign = _mmb_event_tiny()
    assert any(check.kind == "upper_bound" for check in campaign.checks)
    root = str(tmp_path / "store")
    cold = run_campaign(campaign, ResultStore(root), fabric=FabricConfig(workers=2))
    assert cold.complete and all(facts is not None for facts in cold.facts)

    calls = _count_builds(monkeypatch)
    outcomes = _cached_report(campaign, root, str(tmp_path / "facts"))
    assert all(outcome.ok for outcome in outcomes)
    assert calls == []
    assert not substrates._TOPOLOGY_CACHE

    # Without facts the same pass builds each bounded point's network,
    # and reaches the same verdicts and the same report.
    assert _strip_facts(root) == cold.total
    fallback = _cached_report(campaign, root, str(tmp_path / "fallback"))
    assert calls
    assert fallback == outcomes
    _same_artifacts(str(tmp_path / "facts"), str(tmp_path / "fallback"))


def test_cached_figure1_report_and_verify_build_no_topology(
    tmp_path, monkeypatch, capsys
):
    store = str(tmp_path / "store")

    def cli(command: str, artifacts: str) -> int:
        return main(
            [
                "campaign",
                command,
                "figure1",
                "--n-max",
                "32",
                "--store",
                store,
                "--artifacts",
                str(tmp_path / artifacts),
            ]
        )

    assert cli("run", "run") == 0
    capsys.readouterr()
    calls = _count_builds(monkeypatch)
    assert cli("report", "facts") == 0
    assert cli("verify", "facts") == 0
    assert calls == []
    facts_out = capsys.readouterr().out

    campaign = build_campaign("figure1", n_max=32)
    assert _strip_facts(store) == len(expand_points(campaign))
    assert cli("report", "fallback") == 0
    assert cli("verify", "fallback") == 0
    assert calls
    assert capsys.readouterr().out.replace("fallback", "facts") == facts_out
    _same_artifacts(str(tmp_path / "facts"), str(tmp_path / "fallback"))


def _faulted(campaign):
    """``campaign`` with every sweep's base under random crashes."""
    fault = FaultSpec("crash_random", {"fraction": 0.3})
    sweeps = tuple(
        dataclasses.replace(
            directive, base=dataclasses.replace(directive.base, fault=fault)
        )
        for directive in campaign.sweeps
    )
    return dataclasses.replace(campaign, name=f"{campaign.name}_faulted", sweeps=sweeps)


@pytest.mark.parametrize(
    "campaign",
    [
        build_campaign("smoke"),
        build_campaign("figure1", n_max=32),
        _faulted(build_campaign("smoke")),
    ],
    ids=["smoke", "figure1", "smoke_faulted"],
)
def test_stored_facts_are_the_static_network(tmp_path, campaign):
    store = ResultStore(str(tmp_path / "store"))
    run = run_campaign(campaign, store, fabric=FabricConfig(workers=2))
    assert run.complete and len(run.points) == len(expand_points(campaign))
    for point, fresh in zip(run.points, run.facts):
        dual = substrates.materialize_topology(point.spec)
        expected = {"diameter": dual.diameter()}
        _, stored = store.get(point.spec)
        assert stored == fresh == expected
        assert topology_facts(point.spec) == expected


FIGURE1_CELLS = (
    "figure1_rrestricted",
    "figure1_greyzone",
    "fmmb_enhanced",
    "choke_lowerbound",
)


@pytest.mark.parametrize("name", FIGURE1_CELLS)
def test_cached_verify_of_figure1_cells_builds_no_bounded_topology(
    tmp_path, monkeypatch, name
):
    store = str(tmp_path / "store")
    reduced = ["--n-max", "32", "--store", store]
    run_args = ["campaign", "run", name, *reduced]
    assert main([*run_args, "--artifacts", str(tmp_path / "art")]) == 0
    calls = _count_builds(monkeypatch)
    assert main(["campaign", "verify", name, *reduced]) == 0
    # The bounds read stored facts.  The mac_axioms trace check certifies
    # a journal against the network's edges, which facts do not hold, so
    # choke_lowerbound's one journaled point is the only network built.
    campaign = build_campaign(name, n_max=32)
    journaled = {d.name for d in campaign.sweeps if d.journal}
    assert calls == [
        p.spec for p in expand_points(campaign) if p.sweep in journaled
    ]


def _expected_bound(bound: str, spec, diameter: int) -> float:
    """The bound straight from ``analysis.bounds`` and a built network."""
    model = spec.model
    if bound == "bmmb_r_restricted":
        count = path_value(spec, "workload.count")
        r = path_value(spec, "topology.r")
        return bmmb_r_restricted_bound(diameter, count, r, model.fack, model.fprog)
    k = path_value(spec, "workload.k")
    if bound == "fmmb_rounds":
        n = path_value(spec, "topology.n")
        return FMMB_ROUNDS_FACTOR * fmmb_bound_time(diameter, k, n, model.fprog, 1.6)
    return choke_lower_bound(k, model.fack)


@pytest.mark.parametrize(
    "name, bound",
    [
        ("figure1_rrestricted", "bmmb_r_restricted"),
        ("fmmb_enhanced", "fmmb_rounds"),
        ("choke_lowerbound", "choke_floor"),
    ],
)
def test_new_bounds_read_facts_as_they_read_the_network(monkeypatch, name, bound):
    specs = [p.spec for p in expand_points(build_campaign(name, n_max=32))]
    facts = [topology_facts(spec) for spec in specs]
    calls = _count_builds(monkeypatch)
    from_facts = [bound_value(bound, s, f) for s, f in zip(specs, facts)]
    assert calls == []
    built = [bound_value(bound, spec) for spec in specs]
    assert from_facts == built == [
        _expected_bound(bound, spec, substrates.materialize_topology(spec).diameter())
        for spec in specs
    ]
