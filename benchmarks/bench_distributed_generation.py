"""E14 — Communication-free distributed generation (the paper's motivating use case [3]).

Partitions the product's edge generation over simulated ranks, times the
per-rank generation, and verifies the defining property: the union of the
per-rank outputs equals the product exactly, with no inter-rank communication
and near-perfect load balance.
"""

import numpy as np
import pytest

from repro.core import KroneckerGraph, kron_triangle_count
from repro.parallel import (
    SimulatedComm,
    balance_statistics,
    distributed_generate,
    merge_rank_outputs,
    partition_sources,
    stream_edge_count,
)
from benchmarks._report import print_section


@pytest.mark.parametrize("n_ranks", [2, 8, 32])
def test_distributed_generation(benchmark, small_web_factor, delta_le_one_factor, n_ranks):
    factor_a, factor_b = small_web_factor, delta_le_one_factor
    product = KroneckerGraph(factor_a, factor_b)

    outputs = benchmark(distributed_generate, factor_a, factor_b, n_ranks,
                        with_statistics=False)

    merged = merge_rank_outputs(outputs, product.n_vertices)
    assert merged.nnz == product.nnz
    assert merged.max() == 1  # no edge generated twice
    assert (merged != product.materialize_adjacency()).nnz == 0

    partitions = partition_sources(factor_a, factor_b, n_ranks)
    # One source is the indivisible unit of a source partition, so the
    # largest source out-degree bounds what any contiguous partitioner
    # could balance to.
    largest_source = (np.diff(factor_a.adjacency.indptr).max()
                      * np.diff(factor_b.adjacency.indptr).max())
    balance = balance_statistics(partitions, max_atom_load=int(largest_source))
    assert balance["bounded_imbalance"] <= 2.0
    print_section(f"E14 — communication-free generation over {n_ranks} ranks")
    print(f"  product: {product.n_vertices:,} vertices, {product.nnz:,} entries")
    print(f"  per-rank load: mean {balance['mean']:,.0f} edges, "
          f"imbalance {balance['imbalance']:.3f}, "
          f"bounded imbalance {balance['bounded_imbalance']:.3f} (≤ 2 guaranteed)")
    print("  union of rank outputs equals the product exactly; no rank exchanged any data")


def test_distributed_triangle_mass_reduction(benchmark, small_web_factor, delta_le_one_factor):
    """Each rank also emits exact local ground truth; an all-reduce of the per-edge
    triangle mass reproduces 6 τ(C)."""
    factor_a, factor_b = small_web_factor, delta_le_one_factor
    n_ranks = 4

    def run():
        outputs = distributed_generate(factor_a, factor_b, n_ranks, with_statistics=True)
        comm = SimulatedComm(n_ranks)
        reduced = None
        for out in outputs:
            reduced = comm.allreduce_sum("mass", out.rank, int(out.edge_triangles.sum()))
        return reduced

    reduced = benchmark.pedantic(run, rounds=1, iterations=1)
    tau = kron_triangle_count(factor_a, factor_b)
    assert reduced == 6 * tau
    print_section("E14 — per-rank ground truth reduces to the global count")
    print(f"  Σ_ranks Σ_edges Δ = {reduced:,} = 6 τ(C) with τ(C) = {tau:,}")


def test_streaming_edge_pass(benchmark, web_factor):
    """Bounded-memory pass over a product far bigger than the materialization limit."""
    product = KroneckerGraph(web_factor, web_factor)

    count = benchmark.pedantic(stream_edge_count, args=(product,),
                               kwargs={"a_edges_per_block": 256}, rounds=1, iterations=1)
    assert count == product.nnz
    print_section("E14 — streamed edge pass (single rank, bounded memory)")
    print(f"  streamed {count:,} directed edges of {product.name} "
          f"({product.n_vertices:,} vertices) without materializing the adjacency")
