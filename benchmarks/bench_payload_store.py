"""Perf — payload-carrying shard store: exact ground truth served from disk.

The acceptance bar of the payload pipeline: a product streamed to disk with
``payload_columns=("triangles", "trussness")``, compacted, and served by
:class:`repro.store.ShardStore` must hand back per-edge values **exactly
equal** (same dtype, same values) to
:meth:`repro.core.KroneckerTriangleStats.edge_values` and
:meth:`~repro.core.truss_formulas.KroneckerTrussDecomposition.edge_trussness_batch`
recomputed from the factors — the spilled store is a full stand-in for the
materialized product, topology *and* ground truth.

Also asserted on every run:

* payload compaction is **byte-idempotent**: re-compacting the payload store
  reproduces every shard file byte-for-byte;
* point lookups (``edge_payloads``) agree with the row-sliced range queries.

Runs in two modes:

* **smoke** — swept into the tier-1 ``pytest`` run by
  ``benchmarks/conftest.py``: small sizes, equality asserted on every CI run;
* **full** — ``pytest -m slow benchmarks/bench_payload_store.py``: the
  Section VI-scale pair with measured payload-spill overhead vs. a
  topology-only spill and warm/cold payload query throughput.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import generators
from repro.core import (
    KroneckerGraph,
    KroneckerTriangleStats,
    kron_truss_decomposition,
)
from repro.graphs import NpyShardSink
from repro.parallel import distributed_generate
from repro.store import ShardStore, compact_shards
from benchmarks._report import print_section

N_RANKS = 6
PAYLOAD = ("triangles", "trussness")


def _spill(factor_a, factor_b, directory, *, block, payload_columns=()):
    product = KroneckerGraph(factor_a, factor_b)
    sink = NpyShardSink(directory, name=product.name,
                        n_vertices=product.n_vertices,
                        payload_columns=payload_columns)
    start = time.perf_counter()
    distributed_generate(factor_a, factor_b, N_RANKS,
                         streaming=True, a_edges_per_block=block, sink=sink,
                         payload_columns=payload_columns)
    return time.perf_counter() - start


def _assert_payloads_exact(store, factor_a, factor_b):
    """Served payloads must equal the closed forms recomputed from factors."""
    stats = KroneckerTriangleStats.from_factors(factor_a, factor_b)
    truss = kron_truss_decomposition(factor_a, factor_b)
    rows = store.edges_in_range(0, store.n_vertices, with_payload=True)
    assert rows.dtype == np.int64
    expected_triangles = stats.edge_values(rows[:, 0], rows[:, 1])
    expected_trussness = truss.edge_trussness_batch(rows[:, 0], rows[:, 1])
    assert rows[:, 2].dtype == expected_triangles.dtype
    assert np.array_equal(rows[:, 2], expected_triangles)
    assert rows[:, 3].dtype == expected_trussness.dtype
    assert np.array_equal(rows[:, 3], expected_trussness)
    # Point lookups agree with the range rows.
    probe = rows[:: max(1, rows.shape[0] // 64)]
    assert np.array_equal(store.edge_payloads(probe[:, 0], probe[:, 1]),
                          probe[:, 2:])
    return rows


def _run_pipeline(factor_a, factor_b, tmp_path, *, block, target, label):
    product = KroneckerGraph(factor_a, factor_b)
    plain_time = _spill(factor_a, factor_b, tmp_path / "plain-spill", block=block)
    payload_time = _spill(factor_a, factor_b, tmp_path / "spill",
                          block=block, payload_columns=PAYLOAD)

    start = time.perf_counter()
    manifest = compact_shards(tmp_path / "spill", tmp_path / "store",
                              target_shard_edges=target)
    compact_time = time.perf_counter() - start
    assert manifest["payload_columns"] == ["src", "dst", *PAYLOAD]

    store = ShardStore(tmp_path / "store", cache_shards=4)
    assert store.payload_columns == PAYLOAD
    rows = _assert_payloads_exact(store, factor_a, factor_b)

    # Payload rows are permutation-identical to the topology: the (src, dst)
    # columns match the topology-only compaction of the plain spill exactly.
    compact_shards(tmp_path / "plain-spill", tmp_path / "plain-store",
                   target_shard_edges=target)
    plain = ShardStore(tmp_path / "plain-store", cache_shards=4)
    assert np.array_equal(rows[:, :2],
                          plain.edges_in_range(0, plain.n_vertices))

    # Byte-idempotent recompaction of a payload store.
    again = compact_shards(tmp_path / "store", tmp_path / "again",
                           target_shard_edges=target)
    assert again["shards"] == manifest["shards"]
    for shard in manifest["shards"]:
        assert ((tmp_path / "store" / shard["file"]).read_bytes()
                == (tmp_path / "again" / shard["file"]).read_bytes())

    print_section(f"Perf — payload-carrying shard store ({label})")
    print(f"  product: {product.nnz:,} directed edges over {N_RANKS} ranks; "
          f"{len(manifest['shards'])} shards of ≤ {target:,} payload rows")
    print(f"  spill:   topology-only {plain_time * 1e3:.1f} ms, "
          f"with {len(PAYLOAD)} payload columns {payload_time * 1e3:.1f} ms "
          f"({payload_time / max(plain_time, 1e-9):.2f}×)")
    print(f"  compact: {manifest['total_edges'] / compact_time:,.0f} rows/s "
          f"({compact_time * 1e3:.1f} ms)")
    return store, manifest


def test_payload_store_smoke(tmp_path):
    """Tier-1 smoke: served payloads exactly equal the recomputed formulas."""
    factor_a = generators.webgraph_like(60, edges_per_vertex=3,
                                        triad_probability=0.6, seed=3)
    factor_b = generators.triangle_constrained_pa(20, seed=13)
    store, manifest = _run_pipeline(factor_a, factor_b, tmp_path,
                                    block=8, target=1500, label="smoke")
    assert manifest["format_version"] == 2
    # The egonet/subgraph payload variants serve the induced ground truth.
    ego, rows = store.egonet(store.n_vertices // 2, with_payload=True)
    assert rows.shape[1] == 2 + len(PAYLOAD)
    stats = KroneckerTriangleStats.from_factors(factor_a, factor_b)
    assert np.array_equal(rows[:, 2], stats.edge_values(rows[:, 0], rows[:, 1]))


@pytest.mark.slow
def test_payload_store_throughput_full(tmp_path):
    """Full sizes: payload spill overhead and payload query throughput."""
    factor_a = generators.webgraph_like(320, edges_per_vertex=3,
                                        triad_probability=0.6, seed=3)
    factor_b = generators.triangle_constrained_pa(90, seed=13)
    product = KroneckerGraph(factor_a, factor_b)
    store, _ = _run_pipeline(factor_a, factor_b, tmp_path,
                             block=32, target=65_536, label="full")

    store = ShardStore(tmp_path / "store", cache_shards=store.n_shards + 1)
    rows = store.edges_in_range(0, store.n_vertices, with_payload=True)
    rng = np.random.default_rng(7)
    picks = rng.choice(rows.shape[0], 200_000)
    start = time.perf_counter()
    served = store.edge_payloads(rows[picks, 0], rows[picks, 1])
    lookup_time = time.perf_counter() - start
    assert np.array_equal(served, rows[picks, 2:])
    print(f"  queries: {picks.size / lookup_time:,.0f} warm payload "
          f"lookups/s ({lookup_time * 1e3:.1f} ms for {picks.size:,})")
    assert int(rows[:, 2].sum()) == int(
        KroneckerTriangleStats.from_factors(factor_a, factor_b)
        .edge_matrix().sum())
    assert product.nnz == rows.shape[0]
