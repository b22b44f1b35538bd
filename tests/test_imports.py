"""Import on first use: what importing the package, setting up a
campaign and the CLI's read-only commands load, the lazy package
exports, that fabric workers fork with their engines already loaded,
that nothing — topology builds, substrates, fabric workers — imports
networkx, and that workers still fork cleanly from a caller that has
imported it itself.

The footprint checks run in fresh interpreters, since this test process
has long since imported everything.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

LAZY_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.campaigns",
    "repro.core",
    "repro.experiments",
    "repro.faults",
    "repro.mac",
    "repro.radio",
    "repro.runtime",
    "repro.sim",
    "repro.store",
    "repro.topology",
    "repro.traffic",
)

#: Engine modules: MAC layers, schedulers, algorithms, radio, faults, the
#: event kernel and the runner that drives it.  Declaring, validating and
#: expanding specs loads none of them.
ENGINE_PREFIXES = (
    "repro.core",
    "repro.mac",
    "repro.radio",
    "repro.faults",
    "repro.sim.kernel",
    "repro.runtime.runner",
)


def engines(modules) -> list[str]:
    """The engine modules among ``modules``."""
    return [name for name in modules if name.startswith(ENGINE_PREFIXES)]


def run_fresh(code: str, tmp_path) -> dict:
    """Run ``code`` in a fresh interpreter with the package on
    ``PYTHONPATH``; return its last stdout line as JSON."""
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env={**os.environ, "PYTHONPATH": SRC},
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Import footprint
# ----------------------------------------------------------------------
def test_import_and_campaign_setup_load_no_heavy_modules(tmp_path):
    loaded = run_fresh(
        """
        import json, sys

        def present(names):
            return [name for name in names if name in sys.modules]

        import repro

        after_import = present([
            "networkx", "numpy", "repro.campaigns", "http.client",
            "urllib.request",
        ])
        from repro.campaigns import (
            ResultStore, build_campaign, expand_points, list_campaigns,
        )

        points = {
            name: len(expand_points(build_campaign(name)))
            for name in list_campaigns()
        }
        ResultStore("store")
        after_setup = present([
            "networkx", "numpy", "repro.store.http", "repro.store.server",
            "http.server",
        ])
        print(json.dumps({
            "after_import": after_import,
            "after_setup": after_setup,
            "modules": sorted(sys.modules),
            "points": points,
        }))
        """,
        tmp_path,
    )
    assert loaded["after_import"] == []
    assert loaded["after_setup"] == []
    # Building, expanding and opening a store for every built-in campaign
    # validates each point's spec and loads no engine.
    assert engines(loaded["modules"]) == []
    assert len(loaded["points"]) >= 13
    assert all(count > 0 for count in loaded["points"].values())


#: Runs the CLI with its arguments, then prints the exit status and the
#: loaded modules as JSON.
CLI_PROBE = """
import json, sys
from repro.cli import main
try:
    status = main(sys.argv[1:])
except SystemExit as exc:
    status = exc.code
print(json.dumps([status, sorted(sys.modules)]))
"""


def test_cli_commands_that_run_nothing_load_no_engine(tmp_path):
    # `--help`, `campaign list` and `campaign verify`/`report` over a
    # finished store run no spec, so they load no engine module.
    def cli(*argv: str):
        done = subprocess.run(
            [sys.executable, "-c", CLI_PROBE, *argv],
            env={**os.environ, "PYTHONPATH": SRC},
            cwd=tmp_path,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.strip().splitlines()[-1])

    status, _ = cli("campaign", "run", "smoke", "--store", "store", "--workers", "1")
    assert status == 0
    for argv in (
        ["--help"],
        ["campaign", "list"],
        ["campaign", "verify", "smoke", "--store", "store"],
        ["campaign", "report", "smoke", "--store", "store", "--artifacts", "art"],
    ):
        status, modules = cli(*argv)
        assert status in (0, None), argv
        assert engines(modules) == [], argv


def test_experiments_import_leaves_the_fabric_unloaded(tmp_path):
    # A parallel run_sweep imports the fabric when it fans out; a serial
    # one never needs it.
    loaded = run_fresh(
        """
        import json, sys
        import repro.experiments

        print(json.dumps([
            name
            for name in ("multiprocessing", "repro.campaigns.supervision")
            if name in sys.modules
        ]))
        """,
        tmp_path,
    )
    assert loaded == []


def test_fabric_workers_fork_with_their_engines_loaded(tmp_path):
    # Set-up loads no engine, so the fabric loads the jobs' engines before
    # it forks: no point a worker runs, its first included, imports a
    # repro module.  The jobs cover every built-in substrate, a fault
    # scenario and an open-arrival workload.
    recorded = run_fresh(
        """
        import dataclasses, glob, json, os, sys

        import repro.campaigns.supervision as supervision
        from repro.experiments import FaultSpec, WorkloadSpec, smoke_spec

        real = supervision._run_with_options

        def recording(spec, options):
            before = set(sys.modules)
            result = real(spec, options)
            imported = sorted(
                name for name in set(sys.modules) - before
                if name.startswith("repro")
            )
            with open(f"worker-{os.getpid()}.jsonl", "a") as fh:
                fh.write(json.dumps([spec.name, imported]) + "\\n")
            return result

        supervision._run_with_options = recording
        names = ("protocol", "radio", "rounds", "sinr", "standard")
        specs = [smoke_spec(name) for name in names]
        specs.append(dataclasses.replace(
            smoke_spec("standard"), name="faulted",
            fault=FaultSpec("crash_random", {"fraction": 0.2}),
        ))
        specs.append(dataclasses.replace(
            smoke_spec("standard"), name="open",
            workload=WorkloadSpec(
                "open_arrivals", {"process": "poisson", "rate": 0.05, "count": 4}
            ),
        ))
        jobs = [
            supervision.FabricJob(i, spec.name, spec, record_facts=True)
            for i, spec in enumerate(specs)
        ]
        before_fork = sorted(sys.modules)
        outcome = supervision.run_supervised(
            jobs, None, supervision.FabricConfig(workers=2)
        )
        points = []
        for path in sorted(glob.glob("worker-*.jsonl")):
            with open(path) as fh:
                points += [json.loads(line) for line in fh]
        print(json.dumps({
            "before_fork": before_fork,
            "failed": len(outcome.failed),
            "points": points,
        }))
        """,
        tmp_path,
    )
    # The jobs were built without loading an engine ...
    assert engines(recorded["before_fork"]) == []
    # ... and every point, in either worker, found its engine loaded.
    assert recorded["failed"] == 0
    assert len(recorded["points"]) == 7
    assert {name: imported for name, imported in recorded["points"]} == {
        name: [] for name, _ in recorded["points"]
    }


def test_registry_output_does_not_depend_on_a_built_spec(tmp_path):
    # Fault scenarios and the open_arrivals workload register themselves
    # in their own modules; their registries import them when first read.
    code = """
        import contextlib, io, json
        from repro.cli import main
        from repro.experiments import smoke_spec, run

        PRELUDE
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(["registry"])
        print(json.dumps(out.getvalue()))
        """
    outputs = {
        prelude: run_fresh(code.replace("PRELUDE", prelude), tmp_path)
        for prelude in ("pass", "smoke_spec('standard')", "run(smoke_spec('rounds'))")
    }
    assert len(set(outputs.values())) == 1
    table = outputs["pass"]
    for name in ("open_arrivals", "crash_random", "churn_poisson", "sinr"):
        assert name in table


# ----------------------------------------------------------------------
# Lazy package exports
# ----------------------------------------------------------------------
@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_exports_resolve_to_their_defining_objects(package):
    module = importlib.import_module(package)
    sources = module._SOURCES
    exported = [name for names in sources.values() for name in names]
    assert sorted(exported) == sorted(module.__all__)
    for source, names in sources.items():
        defining = importlib.import_module(source)
        for name in names:
            assert getattr(module, name) is getattr(defining, name), name


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_exports_are_listed_and_star_importable(package):
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(dir(module))
    namespace: dict = {}
    exec(f"from {package} import *", namespace)  # noqa: S102 - deliberate
    for name in module.__all__:
        assert namespace[name] is getattr(module, name)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_unknown_names_raise_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match=repr(package)):
        module.no_such_name
    assert not hasattr(module, "no_such_name")
    assert not hasattr(module, "_no_such_private_name")


def test_subpackages_resolve_after_bare_import(tmp_path):
    resolved = run_fresh(
        """
        import json
        import repro

        build = repro.campaigns.build_campaign
        print(json.dumps({
            "build": build.__module__,
            "backend": repro.store.LocalBackend.__module__,
        }))
        """,
        tmp_path,
    )
    assert resolved == {
        "build": "repro.campaigns.builtin",
        "backend": "repro.store.local",
    }


# ----------------------------------------------------------------------
# No graph library
# ----------------------------------------------------------------------
def test_no_networkx_import_anywhere(tmp_path):
    # With networkx blocked, any import of it raises ImportError — in this
    # interpreter and in the fabric workers it forks.
    done = run_fresh(
        """
        import json, sys

        sys.modules["networkx"] = None

        from repro.campaigns import (
            FabricConfig, ResultStore, build_campaign, run_campaign,
        )
        from repro.experiments import (
            AlgorithmSpec, ExperimentSpec, Sweep, TopologySpec, run_sweep,
            substrate_smoke,
        )
        from repro.experiments.registries import TOPOLOGIES
        from repro.sim.rng import RandomSource

        built = {
            name: TOPOLOGIES.get(name)(RandomSource(0, name)).n
            for name in TOPOLOGIES.names()
        }
        substrate_smoke()
        run = run_campaign(
            build_campaign("smoke", points=3),
            ResultStore("store"),
            fabric=FabricConfig(workers=2),
        )
        base = ExperimentSpec(
            topology=TopologySpec("line", {"n": 5}),
            algorithm=AlgorithmSpec("bmmb"),
        )
        sweep = run_sweep(Sweep.grid(base, {"topology.n": [4, 5, 6]}), workers=2)
        print(json.dumps({
            "built": built,
            "campaign": run.complete and run.ran == 3,
            "sweep": all(r.solved for r in sweep.results),
        }))
        """,
        tmp_path,
    )
    assert all(n > 0 for n in done["built"].values()), done["built"]
    assert len(done["built"]) >= 10
    assert done["campaign"] is True
    assert done["sweep"] is True


#: Runs that start workers; every worker starts in
#: ``supervision._spawn_workers``, whose ``Process.start`` is recorded.
FORK_SITES = {
    "fabric": """
        from repro.campaigns import (
            FabricConfig, ResultStore, build_campaign, run_campaign,
        )

        run = run_campaign(
            build_campaign("smoke", points=3),
            ResultStore("store"),
            fabric=FabricConfig(workers=2),
        )
        assert run.complete and run.ran == 3
        """,
    # A parallel run_sweep fans out over the same fabric workers.
    "sweep": """
        from repro.experiments import (
            AlgorithmSpec, ExperimentSpec, Sweep, TopologySpec, run_sweep,
        )

        base = ExperimentSpec(
            topology=TopologySpec("line", {"n": 5}),
            algorithm=AlgorithmSpec("bmmb"),
        )
        result = run_sweep(Sweep.grid(base, {"topology.n": [4, 5, 6]}), workers=2)
        assert all(r.solved for r in result.results)
        """,
}


@pytest.mark.parametrize("site", sorted(FORK_SITES))
def test_workers_fork_with_networkx_already_imported(site, tmp_path):
    # The package no longer needs networkx, but a caller may have imported
    # it (say, for its own analysis); the workers then fork with it loaded
    # and must run exactly as without it.
    code = (
        """
        import json, sys

        before = "networkx" in sys.modules
        import networkx
        seen = []

        import repro.campaigns.supervision as supervision

        class RecordingProcess(supervision.Process):
            def start(self):
                seen.append("networkx" in sys.modules)
                super().start()

        supervision.Process = RecordingProcess
        """
        + FORK_SITES[site]
        + """
        print(json.dumps({"before": before, "seen": seen}))
        """
    )
    recorded = run_fresh(textwrap.dedent(code), tmp_path)
    assert recorded["before"] is False
    assert recorded["seen"] and all(recorded["seen"]), recorded
