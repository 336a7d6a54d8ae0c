"""Perf — vectorized ground-truth kernels vs. the scalar per-edge path.

Measures the tentpole speedup of the batched kernel layer
(:mod:`repro.perf`): per-edge triangle ground truth evaluated with
``KroneckerTriangleStats.edge_values`` (one vectorized CSR gather per factor
component) and with the streamed path — ``iter_entry_blocks`` positions
indexing the per-entry vectors through ``edge_values_at`` — against the
scalar ``edge_value`` loop, plus the effect of building the factored
statistics once per generation run instead of once per rank.

Runs in two modes (see ``benchmarks/conftest.py``):

* **full** — ``pytest benchmarks/bench_perf_kernels.py``: ≥10⁵ product
  edges, asserts the ≥50× throughput ratio and records it in the bench
  trajectory;
* **smoke** — plain tier-1 ``pytest`` or ``--quick``: small sizes, asserts
  only that the vectorized and scalar paths produce identical outputs, so
  the two implementations cannot silently diverge.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import generators
from repro.core import KroneckerGraph, KroneckerTriangleStats
from repro.parallel import distributed_generate, generate_rank_edges, partition_sources
from repro.perf import csr_gather
from benchmarks._report import print_section


@pytest.fixture(scope="module")
def perf_factors(quick_mode):
    """Factor pair sized so the product has ≥10⁵ edges in full mode."""
    if quick_mode:
        factor_a = generators.webgraph_like(60, edges_per_vertex=3,
                                            triad_probability=0.6, seed=3)
        factor_b = generators.triangle_constrained_pa(20, seed=13)
    else:
        factor_a = generators.webgraph_like(320, edges_per_vertex=3,
                                            triad_probability=0.6, seed=3)
        factor_b = generators.triangle_constrained_pa(90, seed=13)
    return factor_a, factor_b


def _timed(fn, *args, repeats: int = 3):
    """Best-of-``repeats`` wall time and the (last) result of ``fn(*args)``."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, result


def test_edge_statistics_throughput(perf_factors, quick_mode):
    """Batched ``edge_values``, the streamed entry-position path and the
    scalar ``edge_value`` loop: same outputs."""
    factor_a, factor_b = perf_factors
    product = KroneckerGraph(factor_a, factor_b)
    stats = KroneckerTriangleStats.from_factors(factor_a, factor_b)
    edges = product.edges(max_nnz=10_000_000)
    ps, qs = edges[:, 0], edges[:, 1]
    if not quick_mode:
        assert edges.shape[0] >= 100_000, "full mode must exercise ≥1e5 product edges"

    vec_time, vec_values = _timed(stats.edge_values, ps, qs)
    vec_throughput = edges.shape[0] / vec_time

    def streamed():
        blocks = [(src, product.entry_destinations(a_pos, b_pos),
                   stats.edge_values_at(a_pos, b_pos))
                  for src, a_pos, b_pos in product.iter_entry_blocks()]
        return [np.concatenate(parts) for parts in zip(*blocks)]

    entry_time, (entry_ps, entry_qs, entry_values) = _timed(streamed)
    entry_throughput = edges.shape[0] / entry_time

    sample = min(2_000 if not quick_mode else 300, edges.shape[0])
    scalar_start = time.perf_counter()
    scalar_values = np.asarray(
        [stats.edge_value(int(p), int(q)) for p, q in zip(ps[:sample], qs[:sample])],
        dtype=np.int64,
    )
    scalar_time = time.perf_counter() - scalar_start
    scalar_throughput = sample / scalar_time

    # Identical outputs — the consistency half of the benchmark, asserted in
    # every mode so tier-1 catches any divergence between the three paths.
    assert np.array_equal(entry_ps, ps) and np.array_equal(entry_qs, qs)
    assert np.array_equal(entry_values, vec_values)
    assert np.array_equal(vec_values[:sample], scalar_values)
    assert np.array_equal(entry_values[:sample], scalar_values)

    ratio = vec_throughput / scalar_throughput
    print_section("Perf — per-edge ground-truth throughput (vectorized vs scalar)")
    print(f"  product: {product.n_vertices:,} vertices, {edges.shape[0]:,} directed edges")
    print(f"  vectorized edge_values: {vec_throughput:,.0f} edges/s "
          f"({vec_time*1e3:.1f} ms for the full edge list)")
    print(f"  streamed edge_values_at: {entry_throughput:,.0f} edges/s "
          f"({entry_time*1e3:.1f} ms, enumeration included)")
    print(f"  scalar edge_value loop: {scalar_throughput:,.0f} edges/s "
          f"(sampled over {sample:,} edges)")
    print(f"  speedup: {ratio:,.1f}×")
    if not quick_mode:
        assert ratio >= 50.0, f"expected ≥50× vectorized speedup, measured {ratio:.1f}×"


def test_csr_gather_vs_scipy_scalar_indexing(perf_factors, quick_mode):
    """The raw kernel: one batched gather vs. scipy 1×1 sparse temporaries."""
    factor_a, _ = perf_factors
    adj = factor_a.adjacency
    rng = np.random.default_rng(42)
    n_queries = 2_000 if quick_mode else 50_000
    rows = rng.integers(0, adj.shape[0], n_queries)
    cols = rng.integers(0, adj.shape[1], n_queries)

    batch_time, batch_vals = _timed(csr_gather, adj, rows, cols)

    sample = min(500, n_queries)
    scalar_start = time.perf_counter()
    scalar_vals = np.asarray([adj[int(i), int(j)] for i, j in zip(rows[:sample], cols[:sample])])
    scalar_time = time.perf_counter() - scalar_start

    assert np.array_equal(batch_vals[:sample], scalar_vals)

    print_section("Perf — csr_gather kernel vs scipy scalar __getitem__")
    print(f"  {n_queries:,} point lookups on a {adj.shape[0]:,}-vertex factor "
          f"({adj.nnz:,} stored entries)")
    print(f"  csr_gather:          {n_queries / batch_time:,.0f} lookups/s")
    print(f"  scipy scalar [i, j]: {sample / scalar_time:,.0f} lookups/s")


def test_rank_generation_wall_time(perf_factors, quick_mode):
    """Shared factor statistics (built once) vs. a per-rank rebuild."""
    factor_a, factor_b = perf_factors
    n_ranks = 4 if quick_mode else 16

    shared_time, shared_outputs = _timed(
        lambda: distributed_generate(factor_a, factor_b, n_ranks, with_statistics=True),
        repeats=1 if quick_mode else 3,
    )

    partitions = partition_sources(factor_a, factor_b, n_ranks)

    def rebuild_per_rank():
        return [generate_rank_edges(factor_a, factor_b, part, with_statistics=True)
                for part in partitions]

    rebuild_time, rebuild_outputs = _timed(rebuild_per_rank,
                                           repeats=1 if quick_mode else 3)

    for shared, rebuilt in zip(shared_outputs, rebuild_outputs):
        assert np.array_equal(shared.edges, rebuilt.edges)
        assert np.array_equal(shared.edge_triangles, rebuilt.edge_triangles)
        assert np.array_equal(shared.source_vertex_triangles,
                              rebuilt.source_vertex_triangles)

    total_edges = sum(out.n_edges for out in shared_outputs)
    print_section("Perf — rank generation wall time (shared vs per-rank statistics)")
    print(f"  {n_ranks} ranks, {total_edges:,} product edges with full ground truth")
    print(f"  statistics built once:     {shared_time*1e3:8.1f} ms")
    print(f"  statistics rebuilt per rank: {rebuild_time*1e3:6.1f} ms")
    print(f"  saving: {rebuild_time / shared_time:,.2f}×")


def test_parallel_rank_execution(perf_factors, quick_mode):
    """Opt-in multiprocessing executor produces identical outputs to sequential."""
    factor_a, factor_b = perf_factors
    n_ranks = 2 if quick_mode else 8

    seq_time, seq_outputs = _timed(
        lambda: distributed_generate(factor_a, factor_b, n_ranks, with_statistics=True),
        repeats=1,
    )
    par_time, par_outputs = _timed(
        lambda: distributed_generate(factor_a, factor_b, n_ranks,
                                     with_statistics=True, use_processes=True),
        repeats=1,
    )

    for seq, par in zip(seq_outputs, par_outputs):
        assert seq.rank == par.rank
        assert np.array_equal(seq.edges, par.edges)
        assert np.array_equal(seq.edge_triangles, par.edge_triangles)

    print_section("Perf — sequential vs multiprocessing rank execution")
    print(f"  {n_ranks} ranks: sequential {seq_time*1e3:.1f} ms, "
          f"process pool {par_time*1e3:.1f} ms (includes pool spawn overhead)")
