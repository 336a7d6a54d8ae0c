"""Tests for the partitioned, communication-free generation and streaming layer."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import generators
from repro.core import KroneckerGraph, KroneckerTriangleStats, kron_triangle_count
from repro.parallel import (
    RankContext,
    SimulatedComm,
    balance_statistics,
    distributed_generate,
    generate_rank_edges,
    merge_rank_outputs,
    partition_sources,
    run_on_ranks,
    stream_degree_histogram,
    stream_edge_count,
    stream_edges_to_file,
)


class TestSourcePartition:
    def test_partitions_cover_all_sources(self, weblike_small, triangle):
        parts = partition_sources(weblike_small, triangle, 5)
        assert parts[0].src_start == 0
        assert parts[-1].src_stop == weblike_small.n_vertices * triangle.n_vertices
        for prev, cur in zip(parts, parts[1:]):
            assert prev.src_stop == cur.src_start

    def test_product_edge_accounting(self, weblike_small, triangle):
        parts = partition_sources(weblike_small, triangle, 3)
        assert sum(p.product_edges for p in parts) == weblike_small.nnz * triangle.nnz

    def test_single_rank(self, small_er, triangle):
        (part,) = partition_sources(small_er, triangle, 1)
        assert (part.src_start, part.src_stop) == (0, small_er.n_vertices * 3)
        assert part.product_edges == small_er.nnz * triangle.nnz

    def test_more_ranks_than_sources(self, k4, triangle):
        parts = partition_sources(k4, triangle, 20)
        assert len(parts) == 20
        assert sum(p.src_stop - p.src_start for p in parts) == 12
        assert sum(p.product_edges for p in parts) == k4.nnz * triangle.nnz

    def test_invalid_inputs(self, small_er, triangle):
        with pytest.raises(ValueError):
            partition_sources(small_er, triangle, 0)
        with pytest.raises(ValueError):
            partition_sources(small_er, triangle, -2)

    def test_balance_statistics(self, weblike_small, triangle):
        parts = partition_sources(weblike_small, triangle, 4)
        stats = balance_statistics(parts)
        assert stats["n_ranks"] == 4
        assert stats["imbalance"] >= 1.0
        assert stats["max"] >= stats["mean"]

    def test_balance_statistics_empty(self):
        assert balance_statistics([])["n_ranks"] == 0

    def test_reasonable_balance_on_scale_free_factor(self):
        factor = generators.webgraph_like(200, seed=3)
        parts = partition_sources(factor, generators.complete_graph(10), 8)
        stats = balance_statistics(parts)
        assert stats["imbalance"] < 1.1


class TestDistributedGeneration:
    def test_union_equals_materialized_product(self, weblike_small, delta_le_one_factor):
        product = KroneckerGraph(weblike_small, delta_le_one_factor)
        outputs = distributed_generate(weblike_small, delta_le_one_factor, 5,
                                       with_statistics=False)
        merged = merge_rank_outputs(outputs, product.n_vertices)
        assert (merged != product.materialize_adjacency()).nnz == 0

    def test_no_duplicate_edges_across_ranks(self, small_er, triangle):
        outputs = distributed_generate(small_er, triangle, 4, with_statistics=False)
        merged = merge_rank_outputs(outputs, small_er.n_vertices * 3)
        assert merged.max() == 1  # every edge emitted by exactly one rank

    def test_edge_counts_per_rank(self, small_er, triangle):
        outputs = distributed_generate(small_er, triangle, 3, with_statistics=False)
        assert sum(o.n_edges for o in outputs) == small_er.nnz * triangle.nnz

    def test_rank_statistics_match_formulas(self, small_er, triangle):
        outputs = distributed_generate(small_er, triangle, 2, with_statistics=True)
        stats = KroneckerTriangleStats.from_factors(small_er, triangle)
        for out in outputs:
            for (p, q), edge_t, vertex_t in zip(out.edges, out.edge_triangles,
                                                out.source_vertex_triangles):
                assert edge_t == stats.edge_value(int(p), int(q))
                assert vertex_t == stats.vertex_value(int(p))

    def test_single_rank_output(self, k4, triangle):
        parts = partition_sources(k4, triangle, 1)
        out = generate_rank_edges(k4, triangle, parts[0], with_statistics=False)
        assert out.n_edges == k4.nnz * triangle.nnz

    def test_empty_rank(self, k4, triangle):
        parts = partition_sources(k4, triangle, 20)
        empty_rank = [p for p in parts if p.src_start == p.src_stop][0]
        out = generate_rank_edges(k4, triangle, empty_rank, with_statistics=False)
        assert out.n_edges == 0

    @pytest.mark.parametrize("use_processes", [False, True])
    def test_rank_outputs_concatenate_in_csr_order(self, small_er_loops, small_er,
                                                   use_processes):
        """Ranks own consecutive source ranges and emit source-major, so
        their outputs in rank order are the product's CSR rows in order."""
        adj = KroneckerGraph(small_er_loops, small_er).materialize_adjacency()
        outputs = distributed_generate(small_er_loops, small_er, 5,
                                       with_statistics=False,
                                       use_processes=use_processes, max_workers=2)
        edges = np.concatenate([out.edges for out in outputs])
        assert np.array_equal(edges[:, 0],
                              np.repeat(np.arange(adj.shape[0]), np.diff(adj.indptr)))
        assert np.array_equal(edges[:, 1], adj.indices)

    def test_merge_empty(self):
        assert merge_rank_outputs([], 10).nnz == 0


class TestSharedStatisticsAndExecutor:
    def test_factor_statistics_built_exactly_once(self, small_er, triangle, monkeypatch):
        """Regression: distributed_generate(..., n_ranks=k) must not rebuild the
        factored statistics per rank — one build, shared by every rank."""
        import repro.parallel.distributed as distributed_mod

        calls = []
        original = KroneckerTriangleStats.from_factors.__func__

        def counting_from_factors(cls, factor_a, factor_b):
            calls.append(1)
            return original(cls, factor_a, factor_b)

        monkeypatch.setattr(distributed_mod.KroneckerTriangleStats, "from_factors",
                            classmethod(counting_from_factors))
        outputs = distributed_generate(small_er, triangle, 6, with_statistics=True)
        assert len(outputs) == 6
        assert len(calls) == 1

    def test_no_statistics_build_when_disabled(self, small_er, triangle, monkeypatch):
        import repro.parallel.distributed as distributed_mod

        calls = []
        monkeypatch.setattr(
            distributed_mod.KroneckerTriangleStats, "from_factors",
            classmethod(lambda cls, a, b: calls.append(1)),
        )
        distributed_generate(small_er, triangle, 3, with_statistics=False)
        assert calls == []

    def test_explicit_stats_reused_by_generate_rank_edges(self, small_er, triangle):
        stats = KroneckerTriangleStats.from_factors(small_er, triangle)
        parts = partition_sources(small_er, triangle, 2)
        for part in parts:
            out = generate_rank_edges(small_er, triangle, part,
                                      with_statistics=True, stats=stats)
            expected = stats.edge_values(out.edges[:, 0], out.edges[:, 1])
            assert np.array_equal(out.edge_triangles, expected)

    def test_rank_statistics_are_vectorized_batches(self, small_er, triangle):
        """The per-rank payload equals the batched kernel output (shape + dtype)."""
        outputs = distributed_generate(small_er, triangle, 2, with_statistics=True)
        for out in outputs:
            assert out.edge_triangles.dtype == np.int64
            assert out.edge_triangles.shape == (out.n_edges,)
            assert out.source_vertex_triangles.shape == (out.n_edges,)

    def test_process_executor_matches_sequential(self, small_er, triangle):
        sequential = distributed_generate(small_er, triangle, 3, with_statistics=True)
        parallel = distributed_generate(small_er, triangle, 3, with_statistics=True,
                                        use_processes=True, max_workers=2)
        assert [o.rank for o in parallel] == [o.rank for o in sequential]
        for seq, par in zip(sequential, parallel):
            assert np.array_equal(seq.edges, par.edges)
            assert np.array_equal(seq.edge_triangles, par.edge_triangles)
            assert np.array_equal(seq.source_vertex_triangles, par.source_vertex_triangles)


class TestMergeFailureModes:
    def test_duplicated_rank_slice_detected(self, small_er, triangle):
        """A rank emitting twice shows up as entries > 1 in the merge."""
        outputs = distributed_generate(small_er, triangle, 3, with_statistics=False)
        corrupted = list(outputs) + [outputs[1]]  # rank 1 double-counted
        merged = merge_rank_outputs(corrupted, small_er.n_vertices * 3)
        assert merged.max() == 2
        product = KroneckerGraph(small_er, triangle)
        assert (merged != product.materialize_adjacency()).nnz > 0

    def test_spurious_edges_detected(self, small_er, triangle):
        """An edge no rank should own breaks the merge-vs-product comparison."""
        from repro.parallel import RankOutput

        outputs = list(distributed_generate(small_er, triangle, 2,
                                            with_statistics=False))
        product = KroneckerGraph(small_er, triangle)
        adj = product.materialize_adjacency().tocoo()
        present = set(zip(adj.row.tolist(), adj.col.tolist()))
        spurious = next((p, q) for p in range(product.n_vertices)
                        for q in range(product.n_vertices)
                        if (p, q) not in present)
        empty = np.zeros(0, dtype=np.int64)
        outputs.append(RankOutput(rank=2,
                                  edges=np.asarray([spurious], dtype=np.int64),
                                  edge_triangles=empty,
                                  source_vertex_triangles=empty))
        merged = merge_rank_outputs(outputs, product.n_vertices)
        assert (merged != product.materialize_adjacency()).nnz == 1

    def test_missing_rank_slice_detected(self, small_er, triangle):
        outputs = distributed_generate(small_er, triangle, 3, with_statistics=False)
        merged = merge_rank_outputs(outputs[:-1], small_er.n_vertices * 3)
        product = KroneckerGraph(small_er, triangle)
        assert (merged != product.materialize_adjacency()).nnz > 0


class TestSimulatedComm:
    def test_gather_waits_for_all_ranks(self):
        comm = SimulatedComm(3)
        assert comm.gather("x", 0, "a") is None
        assert comm.gather("x", 2, "c") is None
        assert comm.gather("x", 1, "b") == ["a", "b", "c"]

    def test_allreduce_sum(self):
        comm = SimulatedComm(2)
        assert comm.allreduce_sum("t", 0, 5) is None
        assert comm.allreduce_sum("t", 1, 7) == 12

    def test_size_validation(self):
        with pytest.raises(ValueError):
            SimulatedComm(0)

    def test_run_on_ranks_sequential(self):
        results = run_on_ranks(4, lambda ctx: ctx.rank * 10)
        assert results == [0, 10, 20, 30]

    def test_rank_context_root(self):
        assert RankContext(0, 4).is_root
        assert not RankContext(3, 4).is_root

    def test_run_on_ranks_validation(self):
        with pytest.raises(ValueError):
            run_on_ranks(0, lambda ctx: None)

    def test_distributed_triangle_total_via_allreduce(self, small_er, triangle):
        """Each rank computes the triangle mass of its own edges; the reduction
        over ranks equals 3·τ(C) (each triangle counted once per its 6 directed
        edge slots / 2) — here we just check the per-rank Σ Δ equals the global one."""
        comm = SimulatedComm(3)
        outputs = distributed_generate(small_er, triangle, 3, with_statistics=True)
        total = None
        for out in outputs:
            total = comm.allreduce_sum("delta", out.rank, int(out.edge_triangles.sum()))
        stats = KroneckerTriangleStats.from_factors(small_er, triangle)
        assert total == int(stats.edge_matrix().sum())
        assert total == 6 * kron_triangle_count(small_er, triangle)


class TestStreaming:
    def test_stream_edge_count(self, small_er, triangle):
        product = KroneckerGraph(small_er, triangle)
        assert stream_edge_count(product, a_edges_per_block=11) == product.nnz

    def test_stream_degree_histogram_matches_rowsums(self, small_er, k4):
        product = KroneckerGraph(small_er, k4)
        hist = stream_degree_histogram(product, a_edges_per_block=13)
        rowsums = np.asarray(product.materialize_adjacency().sum(axis=1)).ravel()
        values, counts = np.unique(rowsums, return_counts=True)
        assert hist == {int(v): int(c) for v, c in zip(values, counts)}

    def test_stream_edges_to_file(self, tmp_path, k4, triangle):
        product = KroneckerGraph(k4, triangle)
        path = tmp_path / "edges.tsv"
        written = stream_edges_to_file(product, path, a_edges_per_block=3)
        assert written == product.nnz
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == product.nnz

    def test_stream_edges_to_file_max_edges(self, tmp_path, small_er, triangle):
        product = KroneckerGraph(small_er, triangle)
        path = tmp_path / "prefix.tsv"
        written = stream_edges_to_file(product, path, max_edges=50)
        assert written == 50
