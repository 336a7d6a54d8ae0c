"""The ``egonet`` answer's numbers against the paper's Figure 7 oracle.

An ``egonet`` answer counts ``centre_degree`` and ``triangles_at_centre``
from the egonet's stored rows and, with the payload, reports
``n_induced_edges`` and ``payload_totals`` from the same rows.  Each number
is checked here against an oracle that never touches the store: the egonet
of the implicit :class:`~repro.core.KroneckerGraph`
(:func:`repro.graphs.egonet.egonet`, the paper's Figure 7 spot check), the
closed-form vertex triangles (:func:`repro.core.kron_vertex_triangles`) and
the materialized edge triangles (:func:`repro.core.kron_edge_triangles`).
The answer is checked as the CLI builds it
(:func:`repro.serve.shaping.shape_egonet`), as a server sends it and as a
router sends it, each with and without the payload.

Both factors carry self loops, so the general Section III.B expansions are
in play.  Theorem 3 (trussness) does not cover looped factors, so the
store carries the ``triangles`` payload only.
"""

from __future__ import annotations

import numpy as np
import pytest

from _fleet_harness import FleetHarness
from repro import generators
from repro.core import (KroneckerGraph, kron_edge_triangles,
                        kron_vertex_triangles)
from repro.graphs import NpyShardSink, egonet
from repro.parallel import distributed_generate
from repro.serve import QueryClient, ThreadedServer
from repro.serve.shaping import shape_egonet
from repro.store import ShardStore, compact_shards

PAYLOAD = ("triangles",)


@pytest.fixture(scope="module")
def factors():
    factor_a = generators.webgraph_like(30, edges_per_vertex=3,
                                        triad_probability=0.6, seed=5)
    factor_b = generators.triangle_constrained_pa(12, seed=17)
    return factor_a.with_self_loops(), factor_b.with_self_loops()


@pytest.fixture(scope="module")
def product(factors):
    return KroneckerGraph(*factors)


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory, factors, product):
    tmp = tmp_path_factory.mktemp("looped-egonet-store")
    sink = NpyShardSink(tmp / "spill", name=product.name,
                        n_vertices=product.n_vertices,
                        payload_columns=PAYLOAD)
    distributed_generate(*factors, 3, streaming=True, a_edges_per_block=8,
                         sink=sink, payload_columns=PAYLOAD)
    # Small shards, so an egonet's rows span several of them.
    compact_shards(tmp / "spill", tmp / "store", target_shard_edges=500)
    return tmp / "store"


@pytest.fixture(scope="module")
def expected(factors, product):
    """Oracle answer numbers per sampled centre and payload flag."""
    delta = kron_edge_triangles(*factors)
    triangles = kron_vertex_triangles(*factors)
    centres = np.random.default_rng(11).choice(product.n_vertices, 16,
                                               replace=False)
    out = {}
    for v in map(int, centres):
        ego = egonet(product, v)
        assert ego.triangles_at_center() == triangles[v]  # Figure 7
        vs = ego.vertices
        adjacency = ego.graph.adjacency
        summary = {"n_vertices": ego.n_vertices,
                   "centre_degree": ego.degree_of_center(),
                   "triangles_at_centre": ego.triangles_at_center()}
        out[v, False] = summary
        out[v, True] = {
            **summary,
            "n_induced_edges": adjacency.count_nonzero(),
            "payload_totals": {"triangles": int(
                adjacency.multiply(delta[vs][:, vs]).sum())},
        }
    return out


def _numbers(answer: dict) -> dict:
    """The answer's numbers: every key but the query and the centre."""
    assert answer["query"] == "egonet"
    return {key: value for key, value in answer.items()
            if key not in ("query", "vertex")}


def _check_served(client: QueryClient, expected: dict) -> None:
    for (v, with_payload), numbers in expected.items():
        answer = client.request("egonet", {"vertex": v,
                                           "with_payload": with_payload})
        assert answer["vertex"] == v
        assert _numbers(answer) == numbers, (v, with_payload)


def test_local_answers_match_the_oracle(store_dir, expected):
    store = ShardStore(store_dir, cache_shards=4)
    assert store.n_shards > 2
    for (v, with_payload), numbers in expected.items():
        answer = shape_egonet(store, v, with_payload=with_payload)
        assert answer["vertex"] == v
        assert _numbers(answer) == numbers, (v, with_payload)


def test_served_answers_match_the_oracle(store_dir, expected):
    with ThreadedServer(store_dir, cache_shards=4) as server:
        with QueryClient(server.host, server.port) as client:
            _check_served(client, expected)


def test_routed_answers_match_the_oracle(store_dir, expected):
    with FleetHarness(store_dir, n_slices=3) as harness:
        with harness.client() as client:
            _check_served(client, expected)
