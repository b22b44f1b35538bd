"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main


def test_info_prints_summary(capsys):
    status = main(["info", "--n", "15", "--side", "2.0"])
    out = capsys.readouterr().out
    assert status == 0
    assert "topology summary" in out
    assert "15" in out


def test_info_lists_registries(capsys):
    status = main(["info", "--n", "12", "--side", "2.0"])
    out = capsys.readouterr().out
    assert status == 0
    assert "experiment registries" in out
    assert "random_geometric" in out
    assert "contention" in out


def test_registry_lists_components(capsys):
    status = main(["registry"])
    out = capsys.readouterr().out
    assert status == 0
    assert "bmmb" in out
    assert "fmmb" in out
    assert "one_each" in out
    assert "rounds" in out  # the fmmb entry's substrate column


def test_sweep_serial(capsys):
    status = main(
        ["sweep", "--n", "12", "--side", "2.0", "--k", "2", "--seeds", "3"]
    )
    out = capsys.readouterr().out
    assert status == 0
    assert "p50 completion" in out
    assert "solved rate" in out


def test_sweep_parallel_with_axis(capsys):
    status = main(
        [
            "sweep", "--n", "12", "--side", "2.0", "--k", "2",
            "--seeds", "2", "--workers", "2",
            "--param", "workload.k=1,2", "--verbose",
        ]
    )
    out = capsys.readouterr().out
    assert status == 0
    assert "4 runs" in out
    assert "per-run results" in out


def test_bmmb_runs_and_reports_bound(capsys):
    status = main(
        ["--seed", "3", "bmmb", "--n", "20", "--side", "2.5", "--k", "3"]
    )
    out = capsys.readouterr().out
    assert status == 0
    assert "BMMB" in out
    assert "(D+k)*Fack bound" in out
    assert "yes" in out  # solved column


def test_bmmb_scheduler_choice(capsys):
    status = main(
        [
            "bmmb",
            "--n",
            "15",
            "--side",
            "2.0",
            "--k",
            "2",
            "--scheduler",
            "worstcase",
        ]
    )
    assert status == 0
    assert "worstcase" in capsys.readouterr().out


def test_fmmb_reports_subroutine_rounds(capsys):
    status = main(["--seed", "4", "fmmb", "--n", "20", "--side", "2.5", "--k", "2"])
    out = capsys.readouterr().out
    assert status == 0
    assert "rounds MIS" in out
    assert "rounds total" in out


def test_lowerbound_figure2(capsys):
    status = main(["lowerbound", "--gadget", "figure2", "--depth", "6"])
    out = capsys.readouterr().out
    assert status == 0
    assert "Figure 2" in out
    assert "axiom-clean" in out


def test_lowerbound_choke(capsys):
    status = main(["lowerbound", "--gadget", "choke", "--k", "8"])
    out = capsys.readouterr().out
    assert status == 0
    assert "Lemma 3.18" in out


def test_radio_reports_empirical_gap(capsys):
    status = main(["--seed", "2", "radio", "--n", "8"])
    out = capsys.readouterr().out
    assert status == 0
    assert "empirical Fack" in out
    assert "footnote 2" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_info_lists_the_fault_registry(capsys):
    status = main(["info", "--n", "12", "--side", "2.0"])
    out = capsys.readouterr().out
    assert status == 0
    assert "fault" in out
    assert "crash_random" in out


def test_bmmb_fault_flag_reports_survivor_columns(capsys):
    status = main(
        [
            "bmmb", "--n", "16", "--side", "2.2", "--k", "2",
            "--fault", "crash_random:fraction=0.2,latest=0.3",
        ]
    )
    out = capsys.readouterr().out
    assert status in (0, 1)  # solved-among-survivors decides the exit code
    assert "fault=crash_random" in out
    assert "survivors" in out
    assert "crashed" in out


def test_fmmb_fault_flag(capsys):
    status = main(
        [
            "fmmb", "--n", "16", "--side", "2.2", "--k", "2",
            "--fault", "flap_periodic:fraction=0.5,period=8",
        ]
    )
    out = capsys.readouterr().out
    assert status in (0, 1)
    assert "fault=flap_periodic" in out


def test_radio_fault_flag(capsys):
    status = main(
        ["radio", "--n", "8", "--fault", "churn_poisson:join_fraction=0.3"]
    )
    out = capsys.readouterr().out
    assert status in (0, 1)
    assert "fault=churn_poisson" in out


def test_fault_flag_rejects_malformed_params(capsys):
    status = main(
        ["bmmb", "--n", "12", "--side", "2.0", "--fault", "crash_random:oops"]
    )
    assert status == 2
    err = capsys.readouterr().err
    assert "--fault needs key=value syntax" in err


def test_unknown_fault_kind_is_rejected_at_parse_time():
    with pytest.raises(SystemExit, match="unknown fault scenario"):
        main(
            ["sweep", "--n", "12", "--side", "2.0", "--seeds", "1",
             "--fault", "meteor_strike"]
        )
    with pytest.raises(SystemExit, match="unknown fault scenario"):
        main(["bmmb", "--n", "12", "--side", "2.0", "--fault", "nope"])


def test_empty_fault_param_value_is_rejected(capsys):
    status = main(
        ["bmmb", "--n", "12", "--side", "2.0",
         "--fault", "crash_random:fraction="]
    )
    assert status == 2
    assert "key=value" in capsys.readouterr().err


def test_bad_fault_param_value_reports_cleanly_not_a_traceback(capsys):
    status = main(
        ["bmmb", "--n", "12", "--side", "2.0",
         "--fault", "crash_random:fraction=lots"]
    )
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_sweeping_fault_params_without_a_scenario_is_an_error(capsys):
    # fault.* axes over the default kind "none" would be a silent no-op;
    # the spec layer rejects the combination instead.
    status = main(
        ["sweep", "--n", "12", "--side", "2.0", "--seeds", "1",
         "--param", "fault.fraction=0.0,0.4"]
    )
    assert status == 2
    assert "fault kind 'none' takes no params" in capsys.readouterr().err


def test_sweep_json_to_stdout_is_pure_json(capsys):
    import json as _json

    status = main(
        [
            "sweep", "--n", "12", "--side", "2.0", "--k", "2",
            "--seeds", "2", "--param", "workload.k=1,2", "--json",
        ]
    )
    out = capsys.readouterr().out
    payload = _json.loads(out)  # nothing but the JSON document on stdout
    assert status in (0, 1)
    assert payload["base_spec"]["workload"]["params"]["k"] == 2
    assert len(payload["runs"]) == 4
    for run_row in payload["runs"]:
        assert {"name", "seed", "solved", "completion", "spec", "metrics"} <= set(
            run_row
        )
        # Each row's spec round-trips through the declarative API.
        from repro.experiments import ExperimentSpec

        ExperimentSpec.from_dict(run_row["spec"])


def test_sweep_json_to_file_keeps_the_tables(capsys, tmp_path):
    import json as _json

    dest = tmp_path / "sweep.json"
    status = main(
        [
            "sweep", "--n", "12", "--side", "2.0", "--k", "2",
            "--seeds", "2", "--fault", "crash_random:fraction=0.2,latest=0.3",
            "--param", "fault.fraction=0.0,0.2", "--json", str(dest),
        ]
    )
    out = capsys.readouterr().out
    assert status in (0, 1)
    assert "solved rate" in out  # human tables still printed
    payload = _json.loads(dest.read_text())
    assert len(payload["runs"]) == 4
    fractions = {
        run_row["spec"]["fault"]["params"]["fraction"]
        for run_row in payload["runs"]
    }
    assert fractions == {0.0, 0.2}


def test_registry_lists_substrates_with_capabilities(capsys):
    status = main(["registry"])
    out = capsys.readouterr().out
    assert status == 0
    assert "substrate" in out
    assert "sinr" in out
    assert "scheduler=emergent" in out
    assert "SINR-reception" in out  # one-line doc column


def test_info_lists_the_substrate_registry(capsys):
    status = main(["info", "--n", "10", "--side", "2.0"])
    out = capsys.readouterr().out
    assert status == 0
    assert "substrate" in out


def test_sweep_unknown_substrate_exits_2(capsys):
    status = main(
        ["sweep", "--n", "10", "--side", "2.0", "--seeds", "1",
         "--substrate", "warp"]
    )
    err = capsys.readouterr().err
    assert status == 2
    assert "unknown substrate 'warp'" in err
    assert "sinr" in err  # the registered set is listed


def test_sweep_parallel_point_error_exits_2(capsys):
    status = main(
        ["sweep", "--n", "10", "--side", "2.0", "--seeds", "1",
         "--workers", "2", "--param", "topology.bogus=1,2"]
    )
    err = capsys.readouterr().err
    assert status == 2
    assert err.startswith("sweep error:")
    assert "TypeError: " in err and "bogus" in err


def test_sweep_on_the_sinr_substrate(capsys):
    status = main(
        ["sweep", "--n", "12", "--side", "2.0", "--k", "2",
         "--seeds", "2", "--substrate", "sinr"]
    )
    out = capsys.readouterr().out
    assert status == 0
    assert "solved rate" in out


def test_registry_survives_protocol_only_substrate(capsys):
    # A third-party registration that satisfies only the Substrate
    # protocol (no SubstrateBase, no describe()) must not crash the
    # registry table.
    from repro.experiments import SUBSTRATES

    class Bare:
        """Bare protocol-only substrate."""

        name = ""
        supports_faults = True
        supports_arrivals = False
        scheduler_role = "seeded"

        def prepare(self, ctx):
            raise NotImplementedError

        def execute(self, ctx):
            raise NotImplementedError

    if "bare_proto" not in SUBSTRATES:
        from repro.experiments import register_substrate

        register_substrate("bare_proto")(Bare())
    status = main(["registry"])
    out = capsys.readouterr().out
    assert status == 0
    assert "bare_proto" in out
    assert "Bare protocol-only substrate." in out


# ----------------------------------------------------------------------
# Observation journals: sweep --journal-dir and the trace subcommands
# ----------------------------------------------------------------------
def _journaled_sweep(tmp_path, capsys):
    journal_dir = str(tmp_path / "journals")
    status = main(
        [
            "sweep", "--n", "10", "--side", "2.0", "--k", "2",
            "--seeds", "2", "--journal-dir", journal_dir,
        ]
    )
    capsys.readouterr()
    assert status == 0
    import glob

    paths = sorted(glob.glob(journal_dir + "/*.obs.jsonl.gz"))
    assert len(paths) == 2
    return paths


def test_sweep_journal_dir_persists_loadable_journals(tmp_path, capsys):
    from repro.runtime.journal import read_journal

    paths = _journaled_sweep(tmp_path, capsys)
    for path in paths:
        journal = read_journal(path)
        assert len(journal) > 0
        assert "spec" in journal.meta and "spec_key" in journal.meta


def test_sweep_json_rows_carry_series(capsys):
    status = main(
        [
            "sweep", "--n", "10", "--side", "2.0", "--k", "2",
            "--seeds", "1", "--json",
            "--param", "workload.kind=open_arrivals",
            "--param", "workload.process=poisson",
            "--param", "workload.rate=0.02",
            "--param", "workload.count=5",
        ]
    )
    import json as json_mod

    payload = json_mod.loads(capsys.readouterr().out)
    assert status == 0
    for row in payload["runs"]:
        assert "window_latency_mean" in row["series"]
        assert "window_throughput" in row["series"]


def test_trace_summary_and_dump(tmp_path, capsys):
    paths = _journaled_sweep(tmp_path, capsys)
    assert main(["trace", "summary"] + paths) == 0
    out = capsys.readouterr().out
    assert "observation journals" in out
    assert "instances" in out
    assert main(["trace", "dump", paths[0], "--limit", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    import json as json_mod

    row = json_mod.loads(lines[0])
    assert {"time", "kind", "node", "key", "ref", "value"} <= set(row)
    assert main(["trace", "dump", paths[0], "--meta"]) == 0
    meta = json_mod.loads(capsys.readouterr().out)
    assert "spec" in meta


def test_trace_check_passes_on_real_journals(tmp_path, capsys):
    paths = _journaled_sweep(tmp_path, capsys)
    status = main(["trace", "check"] + paths)
    out = capsys.readouterr().out
    assert status == 0
    assert "ok" in out


def _synthetic_journal(path, rows) -> str:
    """Write a plain-JSONL journal of ``rows`` for a 5-node line spec."""
    import json as json_mod

    from repro.experiments import (
        AlgorithmSpec,
        ExperimentSpec as Spec,
        ModelSpec,
        TopologySpec,
        WorkloadSpec,
    )

    spec = Spec(
        name="synthetic",
        topology=TopologySpec("line", {"n": 5}),
        algorithm=AlgorithmSpec("bmmb"),
        workload=WorkloadSpec("one_each", {"k": 1}),
        model=ModelSpec(fack=5.0, fprog=1.0),
        seed=0,
    )
    header = {
        "format": 1,
        "kind": "observation-journal",
        "count": len(rows),
        "meta": {"spec": spec.to_dict()},
    }
    path.write_text(
        "\n".join([json_mod.dumps(header)] + [json_mod.dumps(r) for r in rows])
        + "\n"
    )
    return str(path)


def test_trace_check_fails_on_a_violated_journal(tmp_path, capsys):
    rows = [
        [0.0, "bcast", 0, "m0", 0, 1.0],
        [50.0, "ack", 0, "m0", 0, 1.0],  # latency 50 >> fack 5
    ]
    path = _synthetic_journal(tmp_path / "violated.jsonl", rows)
    status = main(["trace", "check", path])
    captured = capsys.readouterr()
    assert status == 1
    assert "ack latency" in captured.err
    # Narrowing to a passing check flips the verdict.
    assert main(["trace", "check", path, "--check", "delivery_order"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "rows, reason",
    [
        ([[0.5, "rcv", 1, "m0", 0, 1.0]], "instance 0 has 0 bcast events"),
        ([[0.0, "bcast", 0, "m0", 1, 1.0]], "non-contiguous instance ids"),
        (
            [
                [0.0, "bcast", 0, "m0", 0, 1.0],
                [0.5, "rcv", 1, "m0", 0, 1.0],
                [0.6, "rcv", 1, "m0", 0, 1.0],
                [1.0, "ack", 0, "m0", 0, 1.0],
            ],
            "instance 0 has a second rcv at node 1",
        ),
    ],
    ids=["orphan-rcv", "id-gap", "duplicated-rcv"],
)
def test_trace_check_reports_malformed_mac_streams(tmp_path, capsys, rows, reason):
    good = [
        [0.0, "bcast", 0, "m0", 0, 1.0],
        [0.5, "rcv", 1, "m0", 0, 1.0],
        [1.0, "ack", 0, "m0", 0, 1.0],
    ]
    paths = [
        _synthetic_journal(tmp_path / "malformed.jsonl", rows),
        _synthetic_journal(tmp_path / "good.jsonl", good),
    ]
    status = main(["trace", "check", *paths, "--check", "mac_axioms"])
    captured = capsys.readouterr()
    assert status == 1
    [line] = captured.err.splitlines()
    assert line.startswith(f"CHECK FAIL [mac_axioms] {paths[0]}: ")
    assert reason in line
    # The remaining journal was still checked.
    assert "2 check runs over 2 journals: 1 failures" in captured.out


def test_trace_diff_and_grep(tmp_path, capsys):
    paths = _journaled_sweep(tmp_path, capsys)
    assert main(["trace", "diff", paths[0], paths[0]]) == 0
    assert "identical" in capsys.readouterr().out
    assert main(["trace", "diff", paths[0], paths[1]]) == 1
    assert "differ" in capsys.readouterr().out
    assert main(["trace", "grep", '"kind": "bcast"', paths[0]]) == 0
    out = capsys.readouterr().out
    assert "@0" in out or "bcast" in out
    assert main(["trace", "grep", "no-such-kind-anywhere", paths[0]]) == 1
    capsys.readouterr()


def test_trace_check_rejects_journal_without_spec(tmp_path, capsys):
    import json as json_mod

    header = {
        "format": 1,
        "kind": "observation-journal",
        "count": 0,
        "meta": {},
    }
    path = tmp_path / "bare.jsonl"
    path.write_text(json_mod.dumps(header) + "\n")
    status = main(["trace", "check", str(path)])
    err = capsys.readouterr().err
    assert status == 2
    assert "no embedded spec" in err


# ----------------------------------------------------------------------
# Shared override grammar (--param / --set / --fault / --check params)
# ----------------------------------------------------------------------
def test_override_grammar_parses_scalars():
    from repro.experiments.overrides import parse_scalar

    assert parse_scalar("3") == 3
    assert parse_scalar("0.5") == 0.5
    assert parse_scalar("true") is True
    assert parse_scalar("False") is False
    assert parse_scalar("contention") == "contention"


def test_override_grammar_shares_one_error_shape():
    from repro.errors import ExperimentError
    from repro.experiments.overrides import parse_assignment, parse_axis

    with pytest.raises(ExperimentError, match="--set needs key=value"):
        parse_assignment("oops")
    with pytest.raises(ExperimentError, match="--custom needs key=value"):
        parse_assignment("oops", flag="--custom")
    with pytest.raises(ExperimentError, match=r"--param needs path=v1,v2"):
        parse_axis("oops")
    with pytest.raises(ExperimentError, match=r"--param needs path=v1,v2"):
        parse_axis("path=")


@pytest.mark.parametrize(
    "override", ["topology.side=nan", "topology.side=inf", "seed=nan"]
)
def test_sweep_non_finite_param_exits_2(capsys, override):
    status = main(
        ["sweep", "--n", "12", "--side", "2.0", "--k", "2", "--seeds", "1",
         "--param", override]
    )
    err = capsys.readouterr().err
    assert status == 2
    assert err.startswith("error:") and "non-finite" in err


@settings(max_examples=300, deadline=None)
@given(
    text=st.one_of(
        st.sampled_from(["nan", "-inf", "Infinity", "1e999", "3", "0.5", "true"]),
        st.text(),
    )
)
def test_override_grammar_yields_finite_values_or_fails_typed(text):
    """Any text either parses to finite numbers, bools and strings or
    raises ExperimentError, through both the axis and assignment forms."""
    from repro.errors import ExperimentError
    from repro.experiments.overrides import parse_assignment, parse_axis

    parsed = []
    for item in (text, f"path={text}"):
        for parse in (parse_axis, parse_assignment):
            try:
                parsed.append(parse(item))
            except ExperimentError:
                pass
    for key, values in parsed:
        assert isinstance(key, str) and key
        for value in values if isinstance(values, list) else [values]:
            assert isinstance(value, (int, float, bool, str))
            if isinstance(value, float):
                assert math.isfinite(value)


def test_sweep_malformed_param_exits_2(capsys):
    status = main(
        ["sweep", "--n", "10", "--side", "2.0", "--seeds", "1",
         "--param", "bogus"]
    )
    err = capsys.readouterr().err
    assert status == 2
    assert err.startswith("error:")
    assert "--param needs path=v1,v2,... syntax" in err


def test_campaign_malformed_set_exits_2(capsys):
    status = main(["campaign", "verify", "figure1", "--set", "bogus"])
    err = capsys.readouterr().err
    assert status == 2
    assert err.startswith("error:")
    assert "--set needs key=value syntax" in err


# ----------------------------------------------------------------------
# No reception engine to select
# ----------------------------------------------------------------------
def test_registry_lists_no_engine_row(capsys):
    status = main(["registry"])
    out = capsys.readouterr().out
    assert status == 0
    assert not [line for line in out.splitlines() if line.startswith("engine")]
    assert "engines" not in out  # no substrate capability flag either


def test_sweep_engine_axis_via_param(capsys):
    # An engine axis is a usage error: ModelSpec has no engine field.
    status = main(
        ["sweep", "--n", "12", "--side", "2.0", "--k", "2", "--seeds", "1",
         "--substrate", "sinr",
         "--param", "model.engine=vectorized"]
    )
    err = capsys.readouterr().err
    assert status == 2
    assert "not a ModelSpec field" in err


def test_sweep_engine_on_non_radio_substrate_exits_2(capsys):
    status = main(
        ["sweep", "--n", "10", "--side", "2.0", "--seeds", "1",
         "--param", "model.engine=vectorized"]
    )
    err = capsys.readouterr().err
    assert status == 2
    assert "not a ModelSpec field" in err
