#!/usr/bin/env python
"""Communication-free distributed generation of a Kronecker benchmark graph.

Simulates the paper's motivating use case [3]: a set of ranks, each holding
only the two small factors, emits disjoint slices of the product edge list
together with exact local triangle ground truth, with zero inter-rank
communication.  The driver then verifies that

* the union of the per-rank edge lists is exactly ``E_C``,
* per-rank triangle mass sums (via a simulated all-reduce) to ``6 τ(C)``, and
* the rank loads are balanced.

Finally the product's edge stream is spilled to disk in bounded-memory chunks,
the single-node analogue of writing the graph to a parallel file system.

Run with ``python examples/distributed_generation.py [--ranks 8]``.
"""

from __future__ import annotations

import argparse
import tempfile
import time
from pathlib import Path

from repro import core, generators
from repro.parallel import (
    SimulatedComm,
    balance_statistics,
    distributed_generate,
    merge_rank_outputs,
    partition_sources,
    stream_edges_to_file,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ranks", type=int, default=8)
    parser.add_argument("--factor-size", type=int, default=300)
    args = parser.parse_args()

    factor_a = generators.webgraph_like(args.factor_size, seed=61)
    factor_b = generators.triangle_constrained_pa(48, seed=62)
    product = core.KroneckerGraph(factor_a, factor_b)
    print(f"A: {factor_a}")
    print(f"B: {factor_b}")
    print(f"C = A ⊗ B: {product.n_vertices:,} vertices, {product.nnz:,} stored entries")

    # ------------------------------------------------------------------
    # Partition and per-rank generation.
    # ------------------------------------------------------------------
    partitions = partition_sources(factor_a, factor_b, args.ranks)
    balance = balance_statistics(partitions)
    print(f"\npartition over {args.ranks} ranks: "
          f"mean load {balance['mean']:,.0f} edges/rank, imbalance {balance['imbalance']:.3f}")

    start = time.perf_counter()
    outputs = distributed_generate(factor_a, factor_b, args.ranks, with_statistics=False)
    gen_time = time.perf_counter() - start
    print(f"generation: {sum(o.n_edges for o in outputs):,} edges emitted in {gen_time:.2f}s "
          f"({args.ranks} simulated ranks, no communication)")

    # ------------------------------------------------------------------
    # Verification: union of rank outputs equals the product.
    # ------------------------------------------------------------------
    merged = merge_rank_outputs(outputs, product.n_vertices)
    if product.nnz <= 5_000_000:
        exact = (merged != product.materialize_adjacency()).nnz == 0
        print(f"union of rank edge lists equals the materialized product: {exact}")

    # ------------------------------------------------------------------
    # Global triangle count via a simulated all-reduce of per-rank mass.
    # The ground truth from the formulas is the reference.
    # ------------------------------------------------------------------
    stats_outputs = distributed_generate(factor_a, factor_b, args.ranks, with_statistics=True)
    comm = SimulatedComm(args.ranks)
    reduced = None
    for out in stats_outputs:
        reduced = comm.allreduce_sum("delta_mass", out.rank, int(out.edge_triangles.sum()))
    tau = core.kron_triangle_count(factor_a, factor_b)
    print(f"\nall-reduced per-edge triangle mass: {reduced:,}")
    print(f"6 · τ(C) from the Kronecker formula: {6 * tau:,}   "
          f"({'match' if reduced == 6 * tau else 'MISMATCH'})")

    # ------------------------------------------------------------------
    # Stream the edge list to disk in chunks.
    # ------------------------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "product_edges.tsv"
        start = time.perf_counter()
        written = stream_edges_to_file(product, path, a_edges_per_block=512)
        stream_time = time.perf_counter() - start
        size_mb = path.stat().st_size / 1e6
        print(f"\nstreamed {written:,} edges to disk in {stream_time:.2f}s ({size_mb:.1f} MB); "
              f"the compressed factor bundle would be "
              f"{(factor_a.nnz + factor_b.nnz) * 16 / 1e6:.2f} MB")


if __name__ == "__main__":
    main()
