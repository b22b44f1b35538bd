"""The declarative experiment API: specs, registries, grids, percentiles."""

from __future__ import annotations

import pytest

from repro.analysis.stats import percentile, percentiles
from repro.errors import ExperimentError
from repro.experiments import (
    ALGORITHMS,
    SCHEDULERS,
    TOPOLOGIES,
    AlgorithmSpec,
    ExperimentSpec,
    FaultSpec,
    ModelSpec,
    SchedulerSpec,
    Sweep,
    TopologySpec,
    WorkloadSpec,
    list_algorithms,
    list_macs,
    list_schedulers,
    list_topologies,
    list_workloads,
    materialize_topology,
)


def full_spec() -> ExperimentSpec:
    """A spec exercising every field, including nested params."""
    return ExperimentSpec(
        name="round-trip",
        topology=TopologySpec(
            "random_geometric",
            {"n": 18, "side": 2.2, "c": 1.6, "grey_edge_probability": 0.4},
        ),
        algorithm=AlgorithmSpec("redundant_flooding", {"redundancy": 3}),
        scheduler=SchedulerSpec("worstcase", {"p_unreliable": 0.25}),
        workload=WorkloadSpec("single_source", {"node": 0, "count": 2}),
        model=ModelSpec(fack=15.0, fprog=0.5, mac="enhanced", max_events=10_000),
        substrate="standard",
        seed=42,
    )


# ----------------------------------------------------------------------
# Spec value semantics and JSON round trip
# ----------------------------------------------------------------------
def test_spec_json_round_trip():
    spec = full_spec()
    assert ExperimentSpec.from_json(spec.to_json()) == spec


def test_spec_json_round_trip_without_workload():
    spec = ExperimentSpec(
        topology=TopologySpec("line", {"n": 8}),
        algorithm=AlgorithmSpec("flood_max"),
        workload=None,
        substrate="protocol",
    )
    rebuilt = ExperimentSpec.from_json(spec.to_json())
    assert rebuilt == spec
    assert rebuilt.workload is None


def test_spec_json_is_stable_text():
    spec = full_spec()
    assert spec.to_json() == ExperimentSpec.from_json(spec.to_json()).to_json()


@pytest.mark.parametrize(
    "path, params",
    [
        ("model", [[None, 1]]),
        ("model", [["a", 1]]),
        ("topology", {1: 8}),
        ("workload", "count"),
    ],
    ids=["pairs-none-key", "pairs", "int-key", "string"],
)
def test_spec_params_must_be_a_json_object(path, params):
    """Params that are not a mapping with string keys fail as a spec error
    instead of rebuilding into a spec that ``to_json`` cannot encode."""
    data = full_spec().to_dict()
    data[path]["params"] = params
    with pytest.raises(ExperimentError, match="params"):
        ExperimentSpec.from_dict(data)


def test_component_specs_compare_by_value_and_type():
    assert TopologySpec("line", {"n": 8}) == TopologySpec("line", {"n": 8})
    assert TopologySpec("line", {"n": 8}) != TopologySpec("line", {"n": 9})
    # Same payload, different axis: never interchangeable.
    assert TopologySpec("x") != SchedulerSpec("x")


def test_spec_params_are_copied():
    params = {"n": 8}
    spec = TopologySpec("line", params)
    params["n"] = 99
    assert spec.params["n"] == 8


def test_spec_rejects_unknown_substrate():
    with pytest.raises(ExperimentError, match="substrate"):
        ExperimentSpec(topology=TopologySpec("line"), substrate="quantum")


def test_model_spec_validates_bounds():
    with pytest.raises(ExperimentError):
        ModelSpec(fack=1.0, fprog=2.0)
    with pytest.raises(ExperimentError):
        ModelSpec(fack=-1.0)


def test_with_seed_changes_only_the_seed():
    spec = full_spec()
    reseeded = spec.with_seed(7)
    assert reseeded.seed == 7
    assert reseeded.topology == spec.topology
    assert reseeded != spec


# ----------------------------------------------------------------------
# Registries
# ----------------------------------------------------------------------
def test_builtin_registry_contents():
    assert {"line", "ring", "star", "grid", "tree", "random_geometric"} <= set(
        list_topologies()
    )
    assert {"uniform", "contention", "worstcase", "choke"} <= set(
        list_schedulers()
    )
    assert {"bmmb", "fmmb", "flood_max", "flood_consensus"} <= set(
        list_algorithms()
    )
    assert {"standard", "enhanced", "radio", "sinr"} <= set(list_macs())
    assert {"one_each", "single_source", "staggered", "poisson"} <= set(
        list_workloads()
    )


def test_one_each_with_more_messages_than_nodes_is_rejected():
    # k > n used to take all n nodes silently, while bound checks read k.
    from repro.experiments import run

    for substrate, algorithm in (("standard", "bmmb"), ("rounds", "fmmb")):
        spec = ExperimentSpec(
            topology=TopologySpec("line", {"n": 20}),
            algorithm=AlgorithmSpec(algorithm),
            workload=WorkloadSpec("one_each", {"k": 32}),
            substrate=substrate,
        )
        with pytest.raises(ExperimentError, match=r"k=32 .* n=20"):
            run(spec)
    exact = ExperimentSpec(
        topology=TopologySpec("line", {"n": 4}),
        workload=WorkloadSpec("one_each", {"k": 4}),
    )
    assert run(exact).solved
    listed = ExperimentSpec(
        topology=TopologySpec("line", {"n": 4}),
        workload=WorkloadSpec("one_each", {"k": 32, "nodes": [0, 3]}),
    )
    assert run(listed).solved


def test_unknown_key_error_names_the_known_keys():
    with pytest.raises(ExperimentError, match="line"):
        TOPOLOGIES.get("moebius")
    with pytest.raises(ExperimentError, match="uniform"):
        SCHEDULERS.get("psychic")


def test_duplicate_registration_rejected():
    with pytest.raises(ExperimentError, match="already"):
        TOPOLOGIES.register("line")(lambda rng: None)


def test_algorithm_entries_declare_substrates():
    assert ALGORITHMS.get("bmmb").substrates == ("standard", "radio", "sinr")
    assert ALGORITHMS.get("flood_max").substrates == ("protocol",)
    assert ALGORITHMS.get("flood_max").postcondition is not None
    assert ALGORITHMS.get("fmmb").substrates == ("rounds",)


def test_materialize_topology_is_seed_deterministic():
    spec = full_spec()
    first = materialize_topology(spec)
    second = materialize_topology(spec)
    assert first.reliable_edges == second.reliable_edges
    assert first.unreliable_extra_edges == second.unreliable_extra_edges



def test_materialize_topology_memoizes_identical_requests():
    spec = ExperimentSpec(topology=TopologySpec("line", {"n": 8}), seed=3)
    first = materialize_topology(spec)
    second = materialize_topology(spec)
    assert first is second


def test_materialize_topology_distinguishes_seeds_and_params():
    spec_a = ExperimentSpec(topology=TopologySpec("line", {"n": 8}), seed=3)
    spec_b = ExperimentSpec(topology=TopologySpec("line", {"n": 8}), seed=4)
    spec_c = ExperimentSpec(topology=TopologySpec("line", {"n": 9}), seed=3)
    built_a = materialize_topology(spec_a)
    assert materialize_topology(spec_b) is not built_a
    assert materialize_topology(spec_c) is not built_a


# ----------------------------------------------------------------------
# Sweep grids
# ----------------------------------------------------------------------
def base_spec() -> ExperimentSpec:
    return ExperimentSpec(
        name="sweep-base",
        topology=TopologySpec("line", {"n": 8}),
        workload=WorkloadSpec("one_each", {"k": 2}),
        seed=5,
    )


def test_grid_expands_the_cartesian_product():
    specs = Sweep.grid(
        base_spec(),
        axes={"topology.n": [8, 16], "workload.k": [1, 2, 3]},
    )
    assert len(specs) == 6
    seen = {(s.topology.params["n"], s.workload.params["k"]) for s in specs}
    assert seen == {(n, k) for n in (8, 16) for k in (1, 2, 3)}


def test_grid_addresses_model_fields_and_top_level_fields():
    specs = Sweep.grid(
        base_spec(), axes={"model.fack": [10.0, 40.0], "substrate": ["standard"]}
    )
    assert {s.model.fack for s in specs} == {10.0, 40.0}
    assert all(s.substrate == "standard" for s in specs)


def test_grid_derives_distinct_deterministic_seeds():
    first = Sweep.grid(base_spec(), axes={"workload.k": [1, 2]}, repeats=3)
    second = Sweep.grid(base_spec(), axes={"workload.k": [1, 2]}, repeats=3)
    seeds = [s.seed for s in first]
    assert len(set(seeds)) == len(seeds)  # independent points
    assert seeds == [s.seed for s in second]  # reproducible derivation
    assert all(s.seed != 5 for s in first)


def test_grid_respects_explicit_seed_axis():
    specs = Sweep.grid(base_spec(), axes={"seed": [1, 2, 3]})
    assert [s.seed for s in specs] == [1, 2, 3]


def test_seeds_helper_replicates_one_point():
    specs = Sweep.seeds(base_spec(), 4)
    assert len(specs) == 4
    assert len({s.seed for s in specs}) == 4
    assert all(s.topology == specs[0].topology for s in specs)


def test_grid_rejects_bad_axes():
    with pytest.raises(ExperimentError):
        Sweep.grid(base_spec(), axes={"nonexistent.n": [1]})
    with pytest.raises(ExperimentError):
        Sweep.grid(base_spec(), axes={"workload.k": []})
    with pytest.raises(ExperimentError):
        Sweep.grid(base_spec(), repeats=0)


def test_grid_rejects_model_field_typos():
    # ModelSpec is a closed field set: a typo'd axis must not silently
    # become a params no-op.
    with pytest.raises(ExperimentError, match="model.params"):
        Sweep.grid(base_spec(), axes={"model.fck": [10.0, 20.0]})


def test_grid_addresses_model_params_explicitly():
    specs = Sweep.grid(
        base_spec(), axes={"model.params.max_slots": [100, 200]}
    )
    assert {s.model.params["max_slots"] for s in specs} == {100, 200}


def test_grid_rejects_seed_axis_with_repeats():
    with pytest.raises(ExperimentError, match="seed"):
        Sweep.grid(base_spec(), axes={"seed": [1, 2]}, repeats=3)


# ----------------------------------------------------------------------
# Percentiles (analysis.stats)
# ----------------------------------------------------------------------
def test_percentile_interpolates():
    values = [10.0, 20.0, 30.0, 40.0]
    assert percentile(values, 0) == 10.0
    assert percentile(values, 100) == 40.0
    assert percentile(values, 50) == 25.0
    assert percentile([7.0], 90) == 7.0


def test_percentiles_maps_each_requested_point():
    got = percentiles([1.0, 2.0, 3.0], (0.0, 50.0, 100.0))
    assert got == {0.0: 1.0, 50.0: 2.0, 100.0: 3.0}


def test_percentile_rejects_bad_input():
    with pytest.raises(ExperimentError):
        percentile([], 50)
    with pytest.raises(ExperimentError):
        percentile([1.0], 150)


def test_grid_cartesian_product_over_many_dotted_paths():
    import dataclasses

    # Three axes across three different components, one of them fault.*:
    # the expansion is the full cartesian product in sorted-axis order.
    # (The base must name a fault scenario: fault.* params on kind "none"
    # are rejected rather than silently ignored.)
    base = dataclasses.replace(base_spec(), fault=FaultSpec("crash_random"))
    specs = Sweep.grid(
        base,
        axes={
            "workload.k": [1, 2],
            "fault.fraction": [0.0, 0.25],
            "model.fack": [10.0, 40.0],
        },
    )
    assert len(specs) == 8
    combos = {
        (
            s.fault.params["fraction"],
            s.model.fack,
            s.workload.params["k"],
        )
        for s in specs
    }
    assert combos == {
        (f, fack, k)
        for f in (0.0, 0.25)
        for fack in (10.0, 40.0)
        for k in (1, 2)
    }
    # fault.kind stayed at the base value; only params were touched.
    assert all(s.fault.kind == "crash_random" for s in specs)


def test_grid_fault_axis_lands_in_fault_params():
    specs = Sweep.grid(
        base_spec(), axes={"fault.kind": ["crash_random"], "fault.latest": [0.3]}
    )
    (spec,) = specs
    assert spec.fault == FaultSpec("crash_random", {"latest": 0.3})


def test_grid_kind_swap_resets_stale_params():
    """Params are kind-specific: a workload.kind axis must not carry the
    base kind's params (one_each's ``k``) into the new kind's builder,
    while sibling param axes still land on the new kind."""
    specs = Sweep.grid(
        base_spec(),
        axes={
            "workload.kind": ["open_arrivals"],
            "workload.rate": [0.01, 0.02],
        },
    )
    assert len(specs) == 2
    for spec in specs:
        assert spec.workload.kind == "open_arrivals"
        assert "k" not in spec.workload.params
    assert {s.workload.params["rate"] for s in specs} == {0.01, 0.02}


def test_grid_unknown_dotted_path_error_names_the_path():
    with pytest.raises(
        ExperimentError,
        match=r"sweep axis 'faults\.fraction' does not address",
    ):
        Sweep.grid(base_spec(), axes={"faults.fraction": [0.1]})
    with pytest.raises(
        ExperimentError, match=r"sweep axis 'name\.x' addresses a non-spec"
    ):
        Sweep.grid(base_spec(), axes={"name.x": ["oops"]})
