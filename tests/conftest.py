"""Shared fixtures: small deterministic factor graphs used across the suite."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import generators
from repro.graphs import DirectedGraph, Graph, VertexLabeledGraph
from repro.lint import runtime as lint_runtime


@pytest.fixture(scope="session", autouse=True)
def lock_order_sanitizer() -> lint_runtime.LockOrderSanitizer:
    """Arm the lock-order sanitizer for the whole suite.

    Every lock the store/obs/serve layers create goes through
    ``repro.lint.runtime.new_lock``, so with the sanitizer installed the
    16-thread store-churn and router fault-injection tests double as
    lock-discipline tests: any acquisition that inverts the observed
    global order (store.lru -> obs.instrument, …) raises
    ``LockOrderError`` deterministically instead of deadlocking once a
    year.
    """
    sanitizer = lint_runtime.install()
    yield sanitizer
    lint_runtime.uninstall()


@pytest.fixture
def triangle() -> Graph:
    """K3 — the single triangle."""
    return generators.complete_graph(3)


@pytest.fixture
def k4() -> Graph:
    return generators.complete_graph(4)


@pytest.fixture
def k5() -> Graph:
    return generators.complete_graph(5)


@pytest.fixture
def hub_cycle() -> Graph:
    """The Example 2 graph: 4-cycle plus hub (5 vertices, 8 edges, 4 triangles)."""
    return generators.hub_cycle_graph()


@pytest.fixture
def small_er() -> Graph:
    """Small Erdős–Rényi graph with a decent number of triangles."""
    return generators.erdos_renyi(16, 0.35, seed=11)


@pytest.fixture
def small_er_loops() -> Graph:
    """Small Erdős–Rényi graph with self loops on some vertices."""
    return generators.erdos_renyi(12, 0.35, seed=7, self_loops=True)


@pytest.fixture
def weblike_small() -> Graph:
    """Small scale-free factor with triangles (web-NotreDame stand-in)."""
    return generators.webgraph_like(60, edges_per_vertex=3, triad_probability=0.6, seed=3)


@pytest.fixture
def directed_small() -> DirectedGraph:
    """Directed factor exercising both reciprocal and one-way edges."""
    return generators.random_directed_graph(12, p_directed=0.3, p_reciprocal=0.25, seed=5)


@pytest.fixture
def labeled_small() -> VertexLabeledGraph:
    """Labeled factor with three colours."""
    return generators.random_labeled_graph(12, 0.4, 3, seed=9)


@pytest.fixture
def delta_le_one_factor() -> Graph:
    """Factor satisfying the Theorem 3 hypothesis (every edge in ≤ 1 triangle)."""
    return generators.triangle_constrained_pa(20, seed=13)


@pytest.fixture
def downgrade_to_v1():
    """Rewrite a shard directory's manifest as the per-block spill of
    earlier releases wrote it: ``format_version`` 1, no ``sorted_by``,
    ``payload_columns`` or per-shard source ranges."""
    def downgrade(directory) -> None:
        path = Path(directory) / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["format_version"] = 1
        del manifest["sorted_by"], manifest["payload_columns"]
        for shard in manifest["shards"]:
            del shard["src_min"], shard["src_max"]
        path.write_text(json.dumps(manifest))

    return downgrade


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(2024)
