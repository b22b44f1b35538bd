"""Import on first use: what importing the package and setting up a
campaign load, the lazy package exports, and where worker processes
inherit networkx from.

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


def run_fresh(code: str, tmp_path, path: tuple[str, ...] = ()) -> dict:
    """Run ``code`` in a fresh interpreter with ``path`` ahead of the
    package on ``PYTHONPATH``; return its last stdout line as JSON."""
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env={**os.environ, "PYTHONPATH": os.pathsep.join((*path, SRC))},
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


def test_numpy_that_fails_to_import_reads_as_absent(tmp_path):
    # What a host without the "fast" extra looks like to the code: a numpy
    # on the path whose import raises.  Deciding availability without
    # importing (say, by finding the module spec) would call it available.
    stub = tmp_path / "stub"
    stub.mkdir()
    (stub / "numpy.py").write_text('raise ImportError("numpy shadowed")\n')
    engines = run_fresh(
        """
        import json
        from repro.radio.engines import (
            RECEPTION_ENGINES, numpy_available, resolve_engine,
        )

        print(json.dumps({
            "numpy": numpy_available(),
            "vectorized": RECEPTION_ENGINES.get("vectorized").available(),
            "auto": resolve_engine("auto").name,
        }))
        """,
        tmp_path,
        path=(str(stub),),
    )
    assert engines == {"numpy": False, "vectorized": False, "auto": "reference"}


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
# Warm before fork
# ----------------------------------------------------------------------
FORK_SITES = {
    # The supervised fabric starts one Process per worker.
    "fabric": """
        import repro.campaigns.supervision as supervision
        from repro.campaigns import (
            FabricConfig, ResultStore, build_campaign, run_campaign,
        )

        class RecordingProcess(supervision.Process):
            def start(self):
                record()
                super().start()

        supervision.Process = RecordingProcess
        run = run_campaign(
            build_campaign("smoke", points=3),
            ResultStore("store"),
            fabric=FabricConfig(workers=2),
        )
        assert run.complete and run.ran == 3
        """,
    # run_sweep fans out over a multiprocessing.Pool.
    "sweep": """
        import multiprocessing
        from repro.experiments import (
            AlgorithmSpec, ExperimentSpec, Sweep, TopologySpec, run_sweep,
        )

        original_pool = multiprocessing.Pool

        def recording_pool(*args, **kwargs):
            record()
            return original_pool(*args, **kwargs)

        multiprocessing.Pool = recording_pool
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
    code = (
        """
        import json, sys

        seen = []

        def record():
            seen.append("networkx" in sys.modules)

        before = "networkx" in sys.modules
        """
        + FORK_SITES[site]
        + """
        print(json.dumps({"before": before, "seen": seen}))
        """
    )
    recorded = run_fresh(textwrap.dedent(code), tmp_path)
    assert recorded["before"] is False
    assert recorded["seen"] and all(recorded["seen"]), recorded
