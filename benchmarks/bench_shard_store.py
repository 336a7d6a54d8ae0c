"""Perf — out-of-core shard store: spill, compaction, range queries.

Exercises the full ``repro.store`` pipeline on one factor pair:

1. stream the product to a per-block ``.npy`` spill
   (``distributed_generate(streaming=True, sink=...)``);
2. :func:`repro.store.compact_shards` the spill into source-sorted shards
   with a manifest v2 of per-shard vertex ranges;
3. serve ``degree`` / ``neighbors`` / ``egonet`` / ``edges_in_range`` queries
   from the :class:`repro.store.ShardStore` and assert every answer is
   identical to the materialized :class:`~repro.core.KroneckerGraph` — while
   counting that only the manifest-selected shards were decoded.

Runs in two modes:

* **smoke** — swept into the tier-1 ``pytest`` run by
  ``benchmarks/conftest.py``: small sizes, store-vs-materialized equivalence
  asserted on every CI run;
* **full** — ``pytest -m slow benchmarks/bench_shard_store.py``: the
  Section VI-scale pair (~450k product edges) with measured compaction
  throughput, cold/warm query latency (the LRU serving the "heavy traffic"
  pattern), spill wall time, and windows that time single store calls on
  the product re-cut to 4,096-edge shards: a cold 32-vertex ``degrees``
  behind a 2-shard LRU, and a warm one-vertex ``degrees`` and
  ``edges_for_sources(with_payload=True)``; and the cost of one cold shard
  visit under each decode (read whole or mapped), per shard size, the
  table that places ``repro.store.query._READ_BELOW_BYTES``.
"""

from __future__ import annotations

import os
import time
from unittest import mock

import numpy as np
import pytest

from repro import generators
from repro.core import KroneckerGraph
from repro.graphs import NpyShardSink, read_shard_manifest
from repro.graphs.egonet import egonet
from repro.parallel import distributed_generate
from repro.store import ShardStore, compact_shards
import repro.store.query as query_mod
from benchmarks._report import emit_bench_json, print_section

N_RANKS = 8


#: Ground-truth columns of the store the store-call windows query.
PAYLOAD = ("triangles", "trussness")
#: Shard size, LRU size and batch size of the cold ``degrees`` window: a
#: uniform batch over a many-shard store behind a 2-shard LRU.
COLD_SHARD_EDGES = 4096
COLD_CACHE_SHARDS = 2
COLD_BATCH = 32
#: Shard sizes (KiB of rows) of the cold-visit table, and its visits per
#: size and decode.
VISIT_SHARD_KIB = (32, 64, 128, 192, 256, 384, 512, 1024)
VISITS = 3000


def _spill(factor_a, factor_b, directory, *, n_ranks, block,
           payload_columns=()):
    product = KroneckerGraph(factor_a, factor_b)
    sink = NpyShardSink(directory, name=product.name,
                        n_vertices=product.n_vertices,
                        payload_columns=payload_columns)
    start = time.perf_counter()
    distributed_generate(factor_a, factor_b, n_ranks,
                         streaming=True, a_edges_per_block=block, sink=sink,
                         payload_columns=payload_columns)
    return time.perf_counter() - start


def _timed_calls(call, args) -> list:
    """Wall µs of ``call(arg)`` for each argument; the window holds the
    store call only."""
    times = []
    for arg in args:
        start = time.perf_counter_ns()
        call(arg)
        times.append((time.perf_counter_ns() - start) / 1e3)
    return times


def _store_call_windows(factor_a, factor_b, tmp_path, *, n_ranks, block):
    """Timed windows of single store calls on a payload store of the
    product cut into :data:`COLD_SHARD_EDGES`-edge shards: a cold
    32-vertex ``degrees`` behind a 2-shard LRU, and a warm one-vertex
    ``degrees`` and ``edges_for_sources(with_payload=True)`` with every
    shard cached.  Answers are checked after the windows, not in them."""
    product = KroneckerGraph(factor_a, factor_b)
    _spill(factor_a, factor_b, tmp_path / "payload-spill", n_ranks=n_ranks,
           block=block, payload_columns=PAYLOAD)
    store_dir = tmp_path / "payload-store"
    compact_shards(tmp_path / "payload-spill", store_dir,
                   target_shard_edges=COLD_SHARD_EDGES)
    rng = np.random.default_rng(11)
    n = product.n_vertices
    batches = [rng.integers(0, n, COLD_BATCH) for _ in range(400)]
    singles = [np.asarray([v]) for v in rng.integers(0, n, 2000)]

    cold = ShardStore(store_dir, cache_shards=COLD_CACHE_SHARDS)
    cold_us = _timed_calls(cold.degrees, batches)
    reads_per_call = cold.shard_reads / len(batches)

    warm = ShardStore(store_dir, cache_shards=cold.n_shards + 1)
    warm.edges_in_range(0, n)
    degree_us = _timed_calls(warm.degrees, singles)
    rows_us = _timed_calls(
        lambda vs: warm.edges_for_sources(vs, with_payload=True), singles)
    assert warm.shard_reads == warm.n_shards  # the windows read no shard

    degrees = product.degrees()
    for vs in batches[:50]:
        assert np.array_equal(cold.degrees(vs), degrees[vs])
    for vs in singles[:50]:
        assert warm.degrees(vs).tolist() == degrees[vs].tolist()
        rows = warm.edges_for_sources(vs, with_payload=True)
        assert rows.shape[1] == 2 + len(PAYLOAD)
        assert np.array_equal(rows[:, 1], product.neighbors(int(vs[0]),
                                                            include_self_loop=True))
    figures = {
        "store_calls_n_shards": int(cold.n_shards),
        "cold_degrees32_p50_us": round(float(np.median(cold_us)), 1),
        "cold_degrees32_shard_reads_per_call": round(reads_per_call, 2),
        "warm_degree1_p50_us": round(float(np.median(degree_us)), 1),
        "warm_edges_for_sources1_p50_us": round(float(np.median(rows_us)), 1),
    }
    print(f"  store calls ({figures['store_calls_n_shards']} shards of "
          f"≤ {COLD_SHARD_EDGES:,} edges): cold {COLD_BATCH}-vertex degrees "
          f"p50 {figures['cold_degrees32_p50_us']:.0f} µs "
          f"({reads_per_call:.1f} shard reads, LRU {COLD_CACHE_SHARDS}); "
          f"warm one-vertex degrees {figures['warm_degree1_p50_us']:.1f} µs, "
          f"edges_for_sources {figures['warm_edges_for_sources1_p50_us']:.1f} µs")
    return figures


def _cold_visit_table(spill_dir, tmp_path) -> dict:
    """Median wall µs of one cold shard visit — a one-vertex ``degrees``
    whose shard is not cached, behind a 2-shard LRU, so the call decodes
    it and a mapped decode's release at eviction is counted too — per
    shard size in :data:`VISIT_SHARD_KIB`, with each decode: ``read``
    (``mmap=False``) and ``mapped`` (every shard mapped).  The decodes
    alternate in blocks of 50 visits, so host drift falls on both."""
    table = {}
    width = len(read_shard_manifest(spill_dir)["payload_columns"])
    for kib in VISIT_SHARD_KIB:
        directory = tmp_path / f"visit-{kib}k"
        compact_shards(spill_dir, directory,
                       target_shard_edges=(kib << 10) // (width * 8))
        stores = {"read": ShardStore(directory, cache_shards=2, mmap=False),
                  "mapped": ShardStore(directory, cache_shards=2)}
        manifest = read_shard_manifest(directory)
        # One source inside each shard, so a visit decodes that one shard;
        # visiting the shards in turn misses the 2-shard LRU every time.
        inside = [np.asarray([(s["src_min"] + s["src_max"]) // 2])
                  for s in manifest["shards"]
                  if s["src_max"] - s["src_min"] >= 2]
        assert len(inside) >= 3
        times = {name: [] for name in stores}
        with mock.patch.object(query_mod, "_READ_BELOW_BYTES", 0):
            for start in range(0, VISITS, 50):
                for name, store in stores.items():
                    times[name] += _timed_calls(store.degrees, [
                        inside[i % len(inside)]
                        for i in range(start, start + 50)])
        for name, store in stores.items():
            mapped = store.stats()["mapped_bytes"]
            assert (mapped > 0) == (name == "mapped")
            assert store.shard_reads == VISITS  # every visit was cold
            store.close()
        table[str(kib)] = {name: round(float(np.median(us)), 1)
                           for name, us in times.items()}
    print("  cold shard visit (µs, read / mapped): " + ", ".join(
        f"{kib} KiB {row['read']:.1f} / {row['mapped']:.1f}"
        for kib, row in table.items()))
    return table


def _sorted_reference(product):
    edges = product.edges()
    return edges[np.lexsort((edges[:, 1], edges[:, 0]))]


def _assert_store_matches_product(store, product, *, n_probe=24, seed=0):
    """The acceptance bar: store answers identical to the materialized graph."""
    reference = _sorted_reference(product)
    assert np.array_equal(store.edges_in_range(0, product.n_vertices), reference)
    mid = product.n_vertices // 2
    ref_lo = reference[(reference[:, 0] >= 0) & (reference[:, 0] < mid)]
    assert np.array_equal(store.edges_in_range(0, mid), ref_lo)
    vs = np.arange(product.n_vertices)
    assert np.array_equal(store.degrees(vs), product.degrees())
    rng = np.random.default_rng(seed)
    for v in map(int, rng.choice(product.n_vertices, n_probe, replace=False)):
        assert np.array_equal(store.neighbors(v), product.neighbors(v))
        ego_store, ego_graph = store.egonet(v), egonet(product, v)
        assert np.array_equal(ego_store.vertices, ego_graph.vertices)
        assert (ego_store.graph.adjacency != ego_graph.graph.adjacency).nnz == 0
        assert ego_store.triangles_at_center() == ego_graph.triangles_at_center()


def _run_pipeline(factor_a, factor_b, tmp_path, *, n_ranks, block, target, label):
    product = KroneckerGraph(factor_a, factor_b)

    spill_time = _spill(factor_a, factor_b, tmp_path / "spill",
                        n_ranks=n_ranks, block=block)

    start = time.perf_counter()
    manifest = compact_shards(tmp_path / "spill", tmp_path / "store",
                              target_shard_edges=target)
    compact_time = time.perf_counter() - start

    store = ShardStore(tmp_path / "store", cache_shards=4)
    _assert_store_matches_product(store, product)

    # Selective decoding: a fresh store answers a vertex query from the one
    # or two shards its manifest range search selects, never a full scan.
    probe = ShardStore(tmp_path / "store", cache_shards=4)
    probe.degree(0)
    assert probe.shard_reads <= 2
    if probe.n_shards > 2:
        assert probe.shard_reads < probe.n_shards

    print_section(f"Perf — out-of-core shard store ({label})")
    print(f"  product: {product.nnz:,} directed edges over {n_ranks} ranks; "
          f"{len(manifest['shards'])} compacted shards of ≤ {target:,} edges")
    print(f"  spill:   {spill_time * 1e3:.1f} ms")
    print(f"  compact: {manifest['total_edges'] / compact_time:,.0f} edges/s "
          f"({compact_time * 1e3:.1f} ms)")
    return store, manifest, (spill_time, compact_time)


def test_shard_store_smoke(tmp_path):
    """Tier-1 smoke: compacted-store queries equal the materialized product."""
    factor_a = generators.webgraph_like(60, edges_per_vertex=3,
                                        triad_probability=0.6, seed=3)
    factor_b = generators.triangle_constrained_pa(20, seed=13)
    store, manifest, _ = _run_pipeline(
        factor_a, factor_b, tmp_path, n_ranks=N_RANKS, block=8,
        target=1500, label="smoke")
    # Its shards are small, so the store reads them; mapped, they answer
    # the same bytes.
    read = store.edges_in_range(0, store.n_vertices)
    assert store.stats()["mapped_bytes"] == 0
    with mock.patch.object(query_mod, "_READ_BELOW_BYTES", 0):
        mapped = ShardStore(tmp_path / "store", cache_shards=4)
        product = KroneckerGraph(factor_a, factor_b)
        _assert_store_matches_product(mapped, product)
        rows = mapped.edges_in_range(0, mapped.n_vertices)
        assert mapped.stats()["resident_bytes"] == 0
    assert rows.dtype == read.dtype and rows.tobytes() == read.tobytes()
    assert manifest["format_version"] == 2
    assert manifest["sorted_by"] == "source"
    # Vertex ranges tile the store in order.
    mins = [shard["src_min"] for shard in manifest["shards"]]
    maxs = [shard["src_max"] for shard in manifest["shards"]]
    assert mins == sorted(mins) and maxs == sorted(maxs)
    assert all(lo <= hi for lo, hi in zip(mins, maxs))


@pytest.mark.slow
def test_shard_store_throughput_full(tmp_path):
    """Full sizes: spill and compaction time, query latency with a warm LRU."""
    factor_a = generators.webgraph_like(320, edges_per_vertex=3,
                                        triad_probability=0.6, seed=3)
    factor_b = generators.triangle_constrained_pa(90, seed=13)
    product = KroneckerGraph(factor_a, factor_b)
    store, manifest, times = _run_pipeline(
        factor_a, factor_b, tmp_path, n_ranks=N_RANKS, block=32,
        target=65_536, label="full")

    # Heavy-traffic pattern: repeated egonet queries with an LRU sized to the
    # working set (an egonet's subgraph gather touches sources across the
    # store, so the hot set here is every shard).
    store = ShardStore(tmp_path / "store", cache_shards=store.n_shards + 1)
    rng = np.random.default_rng(7)
    centres = rng.choice(product.n_vertices // 8, 64, replace=False)
    start = time.perf_counter()
    for v in map(int, centres):
        store.egonet(v)
    cold_time = time.perf_counter() - start
    reads_cold = store.shard_reads
    start = time.perf_counter()
    for v in map(int, centres):
        store.egonet(v)
    warm_time = time.perf_counter() - start
    assert store.shard_reads == reads_cold, \
        "warm-cache queries must not touch disk again"

    degrees = store.out_degrees(np.arange(product.n_vertices))
    assert int(degrees.sum()) == product.nnz
    stats = store.stats()
    # The zero-copy decode convention: a warm mmap store holds mappings,
    # not private row copies.
    assert stats["mmap"] and stats["resident_bytes"] == 0
    assert stats["mapped_bytes"] > 0
    print(f"  queries: 64 egonets cold {cold_time * 1e3:.1f} ms "
          f"({reads_cold} shard reads), warm {warm_time * 1e3:.1f} ms "
          f"({store.cache_hits} cache hits)")
    print(f"  cache residency: {stats['mapped_bytes'] / 1e6:.1f} MB mapped, "
          f"{stats['resident_bytes']} bytes copied (mmap decode)")
    store_calls = _store_call_windows(factor_a, factor_b, tmp_path,
                                      n_ranks=N_RANKS, block=32)
    visits = _cold_visit_table(tmp_path / "payload-spill", tmp_path)

    emit_bench_json("shard_store", {
        "mode": "full",
        "product_edges": int(product.nnz),
        "n_shards": int(store.n_shards),
        "compact_edges_per_s": round(manifest["total_edges"] / times[1], 1),
        "nproc": os.cpu_count(),
        "spill_s": round(times[0], 4),
        "egonets_cold_ms": round(cold_time * 1e3, 2),
        "egonets_warm_ms": round(warm_time * 1e3, 2),
        "mapped_bytes_warm": int(stats["mapped_bytes"]),
        "resident_bytes_warm": int(stats["resident_bytes"]),
        **store_calls,
        "cold_visit_us": visits,
        "read_below_bytes": query_mod._READ_BELOW_BYTES,
    })
