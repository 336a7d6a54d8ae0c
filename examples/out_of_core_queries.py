#!/usr/bin/env python
"""Out-of-core egonet queries: generate → stream → compact → query → serve.

The end-to-end never-materialize-``C`` workflow the shard store enables.  A
Kronecker product far larger than memory is streamed to a per-block ``.npy``
spill by the communication-free rank pipeline (validated on the fly against
the closed-form factor statistics).  The spill is already a store (one shard
per block under a manifest v2 of per-shard vertex ranges); it is re-cut into
fewer, larger source-sorted shards, and the Figure 7 egonet spot checks are
then served straight from the disk store:

* each query binary-searches the manifest and decodes only the shards whose
  vertex range it touches,
* repeated queries hit the store's LRU of decoded shards instead of disk, and
* every egonet triangle count is compared against the exact Kronecker-formula
  value ``t_C[p]`` — the paper's validation loop running on spilled edges,
  with the product adjacency never built.

The spill carries **payload columns**: each shard row is
``(src, dst, triangles, trussness)``, the per-edge ground truth evaluated
per block during generation, so the disk store serves not just the topology
but the paper's central asset — exact closed-form edge statistics — and the
payload check compares the served payloads against
``KroneckerTriangleStats.edge_values`` / ``edge_trussness_batch`` recomputed
from the factors.

The final section exercises the **served mode** (PR 5): the same store goes
behind the :mod:`repro.serve` asyncio server on an ephemeral localhost port,
and a wire-level :class:`~repro.serve.QueryClient` re-runs the egonet and
payload checks over the socket — every remote answer must equal the
in-process one, and the server's ``stats`` request shows the shared decode
LRU and request coalescing doing their jobs.

Run with ``python examples/out_of_core_queries.py [--ranks 8]``.
"""

from __future__ import annotations

import argparse
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro import core, generators
from repro.core import ValidationAccumulator
from repro.graphs import NpyShardSink
from repro.parallel import distributed_generate
from repro.serve import QueryClient, ThreadedServer
from repro.store import ShardStore, compact_shards


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ranks", type=int, default=8)
    parser.add_argument("--factor-size", type=int, default=300)
    parser.add_argument("--egonets", type=int, default=30)
    args = parser.parse_args()

    factor_a = generators.webgraph_like(args.factor_size, seed=61)
    factor_b = generators.triangle_constrained_pa(48, seed=62)
    product = core.KroneckerGraph(factor_a, factor_b)
    print(f"A: {factor_a}")
    print(f"B: {factor_b}")
    print(f"C = A ⊗ B: {product.n_vertices:,} vertices, {product.nnz:,} stored entries "
          "(never materialized below)")

    with tempfile.TemporaryDirectory() as tmp:
        spill = Path(tmp) / "spill"
        store_dir = Path(tmp) / "store"

        # --------------------------------------------------------------
        # 1. Stream the product to disk, one .npy shard per block, with the
        #    reduced aggregates validated against the factor-side closed
        #    forms on the fly.  payload_columns widens every spilled block
        #    with the exact per-edge ground truth, read from the factor
        #    entry vectors the run builds once.
        # --------------------------------------------------------------
        payload = ("triangles", "trussness")
        sink = NpyShardSink(spill, name=product.name,
                            n_vertices=product.n_vertices,
                            payload_columns=payload)
        start = time.perf_counter()
        result = distributed_generate(factor_a, factor_b, args.ranks,
                                      streaming=True, a_edges_per_block=256,
                                      sink=sink, payload_columns=payload)
        spill_time = time.perf_counter() - start
        report = ValidationAccumulator(factor_a, factor_b,
                                       stats=result.stats).validate(result.total)
        print(f"\nstreamed {result.n_edges:,} edges over {args.ranks} ranks "
              f"in {spill_time:.2f}s")
        print(f"on-the-fly validation: {'PASS' if report.passed else 'FAIL'}")

        # --------------------------------------------------------------
        # 2. Compact: re-cut the spill, already a (src, dst)-ordered store,
        #    into larger shards with per-shard vertex ranges (manifest v2).
        # --------------------------------------------------------------
        start = time.perf_counter()
        manifest = compact_shards(spill, store_dir, target_shard_edges=65_536)
        compact_time = time.perf_counter() - start
        print(f"compacted into {len(manifest['shards'])} source-sorted shards "
              f"in {compact_time:.2f}s "
              f"({manifest['total_edges'] / compact_time:,.0f} edges/s)")

        # --------------------------------------------------------------
        # 3. Serve egonet queries from the store and check each against
        #    the exact formula value (Fig. 7, but over spilled edges).
        # --------------------------------------------------------------
        store = ShardStore(store_dir, cache_shards=8)
        t_c = core.kron_vertex_triangles(factor_a, factor_b)
        rng = np.random.default_rng(7)
        centres = rng.choice(product.n_vertices, args.egonets, replace=False)
        start = time.perf_counter()
        mismatches = 0
        for v in map(int, centres):
            ego = store.egonet(v)
            if ego.triangles_at_center() != int(t_c[v]):
                mismatches += 1
        query_time = time.perf_counter() - start
        print(f"\n{args.egonets} egonets served from disk in {query_time:.2f}s: "
              f"{store.shard_reads} shard reads, {store.cache_hits} cache hits")
        print(f"egonet triangle counts vs. Kronecker formula t_C[p]: "
              f"{args.egonets - mismatches}/{args.egonets} match "
              f"({'PASS' if mismatches == 0 else 'FAIL'})")

        # Warm-cache repeat: the heavy-traffic serving pattern.
        reads_before = store.shard_reads
        start = time.perf_counter()
        for v in map(int, centres):
            store.egonet(v)
        warm_time = time.perf_counter() - start
        print(f"warm repeat: {warm_time * 1e3:.0f} ms, "
              f"{store.shard_reads - reads_before} new shard reads")

        # --------------------------------------------------------------
        # 4. Serve the per-edge payloads back from disk and check them
        #    against the closed-form factor statistics — the spilled store
        #    is a full stand-in for the materialized product, topology
        #    and ground truth.
        # --------------------------------------------------------------
        stats = core.KroneckerTriangleStats.from_factors(factor_a, factor_b)
        truss = core.kron_truss_decomposition(factor_a, factor_b)
        rows = store.edges_in_range(0, product.n_vertices // 4,
                                    with_payload=True)
        expected_tri = stats.edge_values(rows[:, 0], rows[:, 1])
        expected_truss = truss.edge_trussness_batch(rows[:, 0], rows[:, 1])
        tri_ok = bool(np.array_equal(rows[:, 2], expected_tri))
        truss_ok = bool(np.array_equal(rows[:, 3], expected_truss))
        print(f"\npayload check over {rows.shape[0]:,} served rows: "
              f"triangles {'PASS' if tri_ok else 'FAIL'}, "
              f"trussness {'PASS' if truss_ok else 'FAIL'}")
        p, q = map(int, rows[0, :2])
        print(f"point lookup edge ({p}, {q}): {store.edge_payload(p, q)} "
              f"(formula: triangles={int(stats.edge_value(p, q))}, "
              f"trussness={int(truss.edge_trussness(p, q))})")

        # --------------------------------------------------------------
        # 5. Served mode: the same store behind the asyncio query server,
        #    exercised through the wire-level client.  One concurrent-safe
        #    ShardStore answers every connection; scalar degree/neighbors
        #    requests coalesce into batch calls; answers are byte-equal to
        #    the in-process ones.
        # --------------------------------------------------------------
        with ThreadedServer(store_dir, cache_shards=8) as server:
            print(f"\nserving the store on {server.address} "
                  "(asyncio, length-prefixed JSON frames)")
            with QueryClient(server.host, server.port) as client:
                served_centres = centres[:10]
                n_served = len(served_centres)
                served_mismatches = 0
                start = time.perf_counter()
                for v in map(int, served_centres):
                    ego = client.egonet(v)
                    if ego.triangles_at_center() != int(t_c[v]):
                        served_mismatches += 1
                served_time = time.perf_counter() - start
                print(f"{n_served} egonets served over the socket in "
                      f"{served_time:.2f}s: "
                      f"{n_served - served_mismatches}/{n_served} match "
                      f"t_C[p] "
                      f"({'PASS' if served_mismatches == 0 else 'FAIL'})")

                # Payloads over the wire: identical rows, identical dtype.
                served_rows = client.edges_in_range(
                    0, product.n_vertices // 4, with_payload=True)
                wire_ok = bool(np.array_equal(served_rows, rows)) \
                    and served_rows.dtype == rows.dtype
                print(f"served payload rows equal the local store: "
                      f"{'PASS' if wire_ok else 'FAIL'} "
                      f"({served_rows.shape[0]:,} rows)")
                print(f"served point lookup edge ({p}, {q}): "
                      f"{client.edge_payload(p, q)}")

                # A burst of concurrent scalar degree requests from several
                # client threads: the server folds simultaneous scalars into
                # batched store calls (visible in the coalescing stats).
                burst = rng.choice(product.n_vertices, 64, replace=False)
                expected = {int(v): store.degree(int(v)) for v in burst}
                burst_failures = []

                def hammer(offset: int) -> None:
                    try:
                        with QueryClient(server.host, server.port) as cc:
                            for v in map(int, burst[offset::4]):
                                assert cc.degree(v) == expected[v]
                    except Exception as exc:
                        burst_failures.append(exc)

                workers = [threading.Thread(target=hammer, args=(i,))
                           for i in range(4)]
                for w in workers:
                    w.start()
                for w in workers:
                    w.join()
                print(f"concurrent degree burst: {len(burst)} scalar "
                      f"requests from 4 clients "
                      f"({'PASS' if not burst_failures else 'FAIL'})")

                report = client.stats()
                server_side = report["server"]
                print(f"server stats: "
                      f"{sum(server_side['requests'].values())} requests, "
                      f"{report['store']['shard_reads']} shard reads, "
                      f"{report['store']['cache_hits']} cache hits, "
                      f"degree coalescing {server_side['coalesced']['degree']}")


if __name__ == "__main__":
    main()
