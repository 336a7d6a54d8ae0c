"""The serving entry points import only what they serve.

``repro-kron serve`` (with and without ``--fleet``), the ``--connect``
client commands and ``import repro.serve`` load numpy, the standard library
and the serving modules — ``repro.serve``, ``repro.store``, ``repro.obs``,
``repro.graphs.io`` and ``repro.lint.runtime`` — and never scipy or the
generation, analysis and lint-engine stack.  The package inits re-export
their names lazily (PEP 562), and those names must stay the very objects
their defining modules hold.

The import checks run in a fresh interpreter: the test process itself has
long since imported everything.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro
from repro import generators
from repro.core import KroneckerGraph
from repro.graphs import NpyShardSink
from repro.parallel import distributed_generate
from repro.store import compact_shards

PAYLOAD = ("triangles", "trussness")

#: Packages a serving process must not load (nor any of their submodules).
FORBIDDEN = ("scipy", "repro.analysis", "repro.core", "repro.parallel",
             "repro.generators", "repro.triangles", "repro.truss",
             "repro.lint.engine")

#: Every served op, sent through ``QueryClient.request`` to a server and to
#: a router over in-process workers; then the modules the process holds.
_SERVE_SCRIPT = """
import json, sys

import repro.cli  # the module `repro-kron` runs

from _fleet_harness import FleetHarness
from repro.obs import TraceRecorder, trace
from repro.serve import QueryClient, ThreadedServer

store, forbidden = sys.argv[1], tuple(json.loads(sys.argv[2]))


def drive(client):
    request = client.request
    request("degree", {"vertex": 3})
    request("degrees", {"vertices": [0, 3, 40]})
    request("neighbors", {"vertex": 3})
    request("neighbors", {"vertex": 3, "with_payload": True})
    request("edges_for_sources", {"vertices": [3, 40], "with_payload": True})
    rows = request("edges_in_range",
                   {"lo": 0, "hi": 30, "with_payload": True})["edges"]
    assert rows.shape[0] >= 4
    request("edge_payloads", {"ps": rows[:4, 0].tolist(),
                              "qs": rows[:4, 1].tolist()})
    with trace.start_trace("guard", TraceRecorder()) as handle:
        ego = request("egonet", {"vertex": 3, "with_payload": True,
                                 "include_members": True})
    assert ego["n_vertices"] > 1
    request("subgraph", {"vertices": ego["vertices"].tolist(),
                         "with_payload": True})
    assert request("trace", {"id": handle.trace_id})["spans"]
    request("stats")
    request("metrics")
    request("events", {"limit": 8})
    assert request("health")["status"] == "ok"
    request("profile", {"action": "start"})
    request("profile", {"action": "stop", "collapsed": True})


with ThreadedServer(store) as server:
    with QueryClient(server.host, server.port) as client:
        drive(client)
with FleetHarness(store, n_slices=2) as fleet:
    with fleet.client() as client:
        drive(client)
print(json.dumps(sorted(
    name for name in sys.modules
    if any(name == f or name.startswith(f + ".") for f in forbidden))))
"""


def _fresh_python(*args: str, tests_on_path: bool = False) -> str:
    """Run ``python -c`` in a fresh interpreter that finds this checkout's
    ``repro``; return its stdout."""
    paths = [str(Path(repro.__file__).resolve().parent.parent)]
    if tests_on_path:
        paths.append(str(Path(__file__).resolve().parent))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    done = subprocess.run([sys.executable, "-c", *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    """A small payload store of several shards."""
    factor_a = generators.webgraph_like(30, edges_per_vertex=3,
                                        triad_probability=0.6, seed=5)
    factor_b = generators.triangle_constrained_pa(12, seed=7)
    product = KroneckerGraph(factor_a, factor_b)
    tmp = tmp_path_factory.mktemp("import-set")
    sink = NpyShardSink(tmp / "spill", name=product.name,
                        n_vertices=product.n_vertices, payload_columns=PAYLOAD)
    distributed_generate(factor_a, factor_b, 2, streaming=True,
                         a_edges_per_block=8, sink=sink,
                         payload_columns=PAYLOAD)
    compact_shards(tmp / "spill", tmp / "store", target_shard_edges=800)
    return tmp / "store"


def test_serving_loads_no_scipy_nor_the_generation_stack(store_dir):
    loaded = json.loads(_fresh_python(
        _SERVE_SCRIPT, str(store_dir), json.dumps(FORBIDDEN),
        tests_on_path=True).splitlines()[-1])
    assert loaded == []


@pytest.mark.parametrize("package", ["repro", "repro.graphs", "repro.lint"])
def test_lazy_names_are_their_defining_modules_objects(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        value = getattr(module, name)
        namespace: dict = {}
        exec(f"from {package} import {name} as value", namespace)
        assert namespace["value"] is value, name
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"{package}.{name}"], name
        elif name != "__version__":
            home = sys.modules[value.__module__]
            assert getattr(home, name) is value, name
    assert set(module.__all__) <= set(dir(module))
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(module, "no_such_name")


def test_the_linter_imports_without_numpy():
    """``repro.lint`` is stdlib-only, and ``repro``'s own ``__init__`` no
    longer imports numpy on its way there."""
    out = _fresh_python(
        "import sys\n"
        "sys.modules['numpy'] = sys.modules['scipy'] = None\n"
        "from repro.lint import LintEngine, all_rules\n"
        "print(len(LintEngine(all_rules()).rules))")
    assert int(out) >= 1


def test_egonet_is_the_function_after_its_submodule_is_imported():
    """``repro.graphs.egonet`` is a submodule and the re-exported function;
    importing the submodule must not turn the package name into it."""
    kinds = _fresh_python(
        "import inspect, repro.graphs.egonet\n"
        "import repro.graphs\n"
        "from repro.graphs import egonet\n"
        "print(inspect.isfunction(egonet),"
        " inspect.isfunction(repro.graphs.egonet))")
    assert kinds.split() == ["True", "True"]
