"""Import on first use: what importing the package and setting up a
campaign load, the lazy package exports, that nothing — topology
builds, substrates, fabric workers — imports networkx, and that workers
still fork cleanly from a caller that has imported it itself.

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

LAZY_PACKAGES = ("repro", "repro.campaigns", "repro.store")


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
        from repro.campaigns import ResultStore, build_campaign, expand_points

        points = expand_points(build_campaign("figure1", n_max=32))
        ResultStore("store")
        after_setup = present([
            "networkx", "numpy", "repro.store.http", "repro.store.server",
            "http.server",
        ])
        print(json.dumps({
            "after_import": after_import,
            "after_setup": after_setup,
            "points": len(points),
        }))
        """,
        tmp_path,
    )
    assert loaded["after_import"] == []
    assert loaded["after_setup"] == []
    assert loaded["points"] > 0


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
