"""Tests for the streaming rank pipeline: bounded blocks, aggregates, validation.

The pipeline contract under test (the paper's trillion-edge use case scaled
down): a rank streams its slice in bounded blocks, folds them into
factor-free aggregates, the aggregates allreduce across ranks, and the
reduced aggregate validates against the closed-form factor statistics — all
without any rank ever materializing its slice or the driver merging edge
lists.
"""

import pickle

import numpy as np
import pytest

from repro import generators
from repro.core import (
    KroneckerGraph,
    KroneckerTriangleStats,
    ValidationAccumulator,
    kron_edge_triangles,
    kron_truss_decomposition,
    self_loop_case,
)
from repro.graphs import NpyShardSink, load_edge_shards, read_shard_manifest
from repro.parallel import (
    SimulatedComm,
    StreamingRankAccumulator,
    distributed_generate,
    generate_rank_edges,
    iter_rank_edge_blocks,
    merge_rank_outputs,
    partition_sources,
    stream_rank_aggregate,
)
from repro.parallel import streaming


def _total_aggregate(outputs, trussness_fn=None):
    """Materialized-path reference: fold whole rank outputs into one aggregate."""
    total = None
    for out in outputs:
        trussness = trussness_fn(out.edges) if trussness_fn is not None else None
        acc = StreamingRankAccumulator.from_rank_output(out, trussness=trussness)
        total = acc if total is None else total + acc
    return total


class TestRankBlockIterator:
    def test_blocks_reassemble_rank_slice(self, weblike_small, delta_le_one_factor):
        parts = partition_sources(weblike_small, delta_le_one_factor, 3)
        stats = KroneckerTriangleStats.from_factors(weblike_small, delta_le_one_factor)
        for part in parts:
            reference = generate_rank_edges(weblike_small, delta_le_one_factor, part,
                                            stats=stats)
            blocks = list(iter_rank_edge_blocks(
                weblike_small, delta_le_one_factor, part,
                a_edges_per_block=5, stats=stats))
            edges = np.concatenate([b.edges for b in blocks], axis=0)
            edge_t = np.concatenate([b.edge_triangles for b in blocks])
            assert np.array_equal(edges, reference.edges)
            assert np.array_equal(edge_t, reference.edge_triangles)

    def test_blocks_respect_memory_bound(self, small_er, triangle):
        part = partition_sources(small_er, triangle, 1)[0]
        bound = 4 * triangle.nnz
        for block in iter_rank_edge_blocks(small_er, triangle, part,
                                           a_edges_per_block=4,
                                           with_statistics=False):
            assert block.edges.shape[0] <= bound

    def test_blocks_stay_in_rank_source_range(self, weblike_small, triangle):
        parts = partition_sources(weblike_small, triangle, 4)
        total = 0
        for part in parts:
            for block in iter_rank_edge_blocks(weblike_small, triangle, part,
                                               a_edges_per_block=6,
                                               with_statistics=False):
                # every source vertex lies in the rank's source range
                assert block.edges.shape[0]  # empty blocks are not yielded
                assert block.edges[:, 0].min() >= part.src_start
                assert block.edges[:, 0].max() < part.src_stop
                total += block.edges.shape[0]
        assert total == weblike_small.nnz * triangle.nnz

    def test_hub_sources_split_within_bound(self, tmp_path, weblike_small,
                                            delta_le_one_factor):
        """With one A edge per block the bound is nnz(B), below the hub
        sources' out-degree: their rows are cut into runs of A entries, and
        the spill stays in (src, dst) order."""
        product = KroneckerGraph(weblike_small, delta_le_one_factor)
        bound = delta_le_one_factor.nnz
        assert product.degrees().max() > bound  # some source must be split
        sink = NpyShardSink(tmp_path / "spill")
        result = distributed_generate(weblike_small, delta_le_one_factor, 3,
                                      streaming=True, a_edges_per_block=1,
                                      sink=sink)
        assert 0 < result.max_block_edges <= bound
        edges = load_edge_shards(tmp_path / "spill")
        assert np.array_equal(edges, product.edges())

    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("case", ["none", "a_only", "b_only", "both"])
    def test_entry_payloads_match_materialized(self, small_er_loops, small_er,
                                               case, block):
        """Streamed triangle payloads, read from the factor entry vectors by
        entry position, equal the materialized Δ_C in every self-loop case."""
        factor_a = small_er_loops if case in ("a_only", "both") else small_er
        factor_b = small_er_loops if case in ("b_only", "both") else small_er
        assert self_loop_case(factor_a, factor_b) == case
        part = partition_sources(factor_a, factor_b, 1)[0]
        blocks = list(iter_rank_edge_blocks(factor_a, factor_b, part,
                                            a_edges_per_block=block))
        edges = np.concatenate([b.edges for b in blocks])
        edge_t = np.concatenate([b.edge_triangles for b in blocks])
        delta = kron_edge_triangles(factor_a, factor_b)
        assert np.array_equal(edges, KroneckerGraph(factor_a, factor_b).edges())
        assert np.array_equal(edge_t, np.asarray(delta[edges[:, 0], edges[:, 1]]).ravel())


class TestStreamingAggregates:
    @pytest.mark.parametrize("n_ranks", [1, 4, 13])
    @pytest.mark.parametrize("streamed", [True, False])
    def test_streamed_equals_materialized(self, weblike_small, delta_le_one_factor,
                                          n_ranks, streamed):
        """Acceptance: streamed == materialized aggregates at every rank count."""
        reference = _total_aggregate(
            distributed_generate(weblike_small, delta_le_one_factor, 4))
        if streamed:
            result = distributed_generate(weblike_small, delta_le_one_factor, n_ranks,
                                          streaming=True, a_edges_per_block=7)
            candidate = result.total
            bound = 7 * delta_le_one_factor.nnz
            assert result.max_block_edges <= bound
            for acc in result.rank_aggregates:
                assert acc.max_block_edges <= bound
        else:
            candidate = _total_aggregate(
                distributed_generate(weblike_small, delta_le_one_factor, n_ranks))
        assert candidate.summary() == reference.summary()

    def test_blocking_schedule_is_invisible(self, small_er, triangle):
        summaries = [
            distributed_generate(small_er, triangle, ranks, streaming=True,
                                 a_edges_per_block=block).total.summary()
            for ranks, block in ((1, 1000), (3, 2), (5, 1))
        ]
        assert summaries[0] == summaries[1] == summaries[2]

    def test_allreduce_through_simulated_comm(self, small_er, triangle):
        parts = partition_sources(small_er, triangle, 3)
        stats = KroneckerTriangleStats.from_factors(small_er, triangle)
        accs = [stream_rank_aggregate(small_er, triangle, part, stats=stats,
                                      a_edges_per_block=4)
                for part in parts]
        comm = SimulatedComm(3)
        total = None
        for acc in accs:
            total = comm.allreduce_sum("agg", acc.rank, acc)
        assert total.n_edges == small_er.nnz * triangle.nnz
        assert total.summary() == (accs[0] + accs[1] + accs[2]).summary()

    def test_process_pool_matches_sequential(self, small_er, triangle):
        sequential = distributed_generate(small_er, triangle, 3, streaming=True,
                                          a_edges_per_block=5)
        parallel = distributed_generate(small_er, triangle, 3, streaming=True,
                                        a_edges_per_block=5,
                                        use_processes=True, max_workers=2)
        assert parallel.total.summary() == sequential.total.summary()
        for seq, par in zip(sequential.rank_aggregates, parallel.rank_aggregates):
            assert par.rank == seq.rank
            assert par.summary() == seq.summary()

    def test_accumulator_holds_no_edges(self, small_er, triangle):
        """The bounded-memory contract: aggregates only, never edge arrays."""
        result = distributed_generate(small_er, triangle, 2, streaming=True,
                                      a_edges_per_block=4)
        acc = result.total
        # Everything the accumulator holds is in its pickled state, 8 bytes
        # per table entry: fewer entries than edges means value/count tables,
        # not the edge list.
        assert len(pickle.dumps(acc)) < 8 * acc.n_edges

    def test_merge_work_is_amortized(self, monkeypatch):
        """Folding many small blocks must not re-merge the whole table per
        block: over 2,400 blocks of 10 new sources each, the merge step
        handles O(N log N) table entries for N folded rows (a per-block
        re-sort of the accumulated table handles O(blocks · N))."""
        handled = []
        original = streaming._merge_value_counts

        def counting(*tables):
            handled.append(sum(np.size(table) for table in tables))
            return original(*tables)

        monkeypatch.setattr(streaming, "_merge_value_counts", counting)
        rng = np.random.default_rng(5)
        acc = StreamingRankAccumulator(0)
        n_blocks, per_block, rows_per_source = 2_400, 10, 3
        blocks = []
        for b in range(n_blocks):
            src = np.repeat(np.arange(b * per_block, (b + 1) * per_block), rows_per_source)
            blocks.append((np.stack([src, rng.integers(0, 10**6, src.size)], axis=1),
                           rng.integers(0, 50, src.size), rng.integers(2, 6, src.size)))
            acc.update(*blocks[-1])
        summary = acc.summary()
        n = n_blocks * per_block * rows_per_source
        assert sum(handled) <= n * np.log2(n)
        whole = StreamingRankAccumulator(0)
        whole.update(*(np.concatenate(parts) for parts in zip(*blocks)))
        assert summary == whole.summary()

    def test_trussness_census_streamed(self, weblike_small, delta_le_one_factor):
        result = distributed_generate(weblike_small, delta_le_one_factor, 3,
                                      streaming=True, a_edges_per_block=6,
                                      with_trussness=True)
        truss = kron_truss_decomposition(weblike_small, delta_le_one_factor)
        reference = _total_aggregate(
            distributed_generate(weblike_small, delta_le_one_factor, 3),
            trussness_fn=lambda e: truss.edge_trussness_batch(e[:, 0], e[:, 1]))
        assert result.total.trussness_census() == reference.trussness_census()
        census = result.total.trussness_census()
        assert sum(census.values()) == result.n_edges
        assert set(census) >= {2}

    def test_trussness_requires_streaming(self, small_er, triangle):
        with pytest.raises(ValueError, match="streaming"):
            distributed_generate(small_er, triangle, 2, with_trussness=True)


class TestValidationAccumulator:
    def test_streamed_run_validates(self, weblike_small, delta_le_one_factor):
        result = distributed_generate(weblike_small, delta_le_one_factor, 4,
                                      streaming=True, a_edges_per_block=9,
                                      with_trussness=True)
        report = ValidationAccumulator(weblike_small, delta_le_one_factor).validate(
            result.total)
        assert report.passed
        assert set(report.checks) == {"edge_count", "degree_histogram",
                                      "triangle_total", "triangle_histogram",
                                      "trussness_census"}

    def test_validates_without_statistics(self, small_er, triangle):
        result = distributed_generate(small_er, triangle, 2, streaming=True,
                                      with_statistics=False)
        report = ValidationAccumulator(small_er, triangle).validate(result.total)
        assert report.passed
        assert set(report.checks) == {"edge_count", "degree_histogram"}

    def test_validates_with_self_loops(self, small_er_loops, small_er):
        result = distributed_generate(small_er_loops, small_er, 3, streaming=True,
                                      a_edges_per_block=5)
        report = ValidationAccumulator(small_er_loops, small_er).validate(result.total)
        assert report.passed

    def test_dropped_block_is_caught(self, small_er, triangle):
        """Corruption: losing one block must fail at least the edge count."""
        parts = partition_sources(small_er, triangle, 3)
        stats = KroneckerTriangleStats.from_factors(small_er, triangle)
        total = None
        for index, part in enumerate(parts):
            acc = StreamingRankAccumulator(part.rank, with_statistics=True)
            for b_index, block in enumerate(iter_rank_edge_blocks(
                    small_er, triangle, part, a_edges_per_block=4, stats=stats)):
                if index == 1 and b_index == 0:
                    continue  # rank 1 silently drops its first block
                acc.update(block.edges, block.edge_triangles)
            total = acc if total is None else total + acc
        report = ValidationAccumulator(small_er, triangle).validate(total)
        assert not report.passed
        assert not report.checks["edge_count"]

    def test_duplicated_block_is_caught(self, small_er, triangle):
        result = distributed_generate(small_er, triangle, 2, streaming=True,
                                      a_edges_per_block=4)
        part = partition_sources(small_er, triangle, 2)[0]
        duplicate = stream_rank_aggregate(small_er, triangle, part,
                                          a_edges_per_block=4)
        corrupted = result.total + duplicate
        report = ValidationAccumulator(small_er, triangle).validate(corrupted)
        assert not report.passed

    def test_tampered_payload_is_caught(self, small_er, triangle):
        """A slice whose triangle payload was corrupted fails the triangle checks."""
        outputs = distributed_generate(small_er, triangle, 2)
        total = None
        for index, out in enumerate(outputs):
            acc = StreamingRankAccumulator(out.rank)
            payload = out.edge_triangles.copy()
            if index == 0:
                payload[0] += 1
            acc.update(out.edges, payload)
            total = acc if total is None else total + acc
        report = ValidationAccumulator(small_er, triangle).validate(total)
        assert not report.passed
        assert not report.checks["triangle_total"]

    def test_tampered_edge_source_is_caught(self, small_er, triangle):
        """Rewiring one edge's source breaks the degree histogram."""
        outputs = distributed_generate(small_er, triangle, 2, with_statistics=False)
        edges = outputs[0].edges.copy()
        # move every edge of the first source onto the second source
        sources = np.unique(edges[:, 0])
        edges[edges[:, 0] == sources[0], 0] = sources[1]
        total = StreamingRankAccumulator(0)
        total.update(edges)
        acc1 = StreamingRankAccumulator(1)
        acc1.update(outputs[1].edges)
        report = ValidationAccumulator(small_er, triangle).validate(total + acc1)
        assert not report.passed
        assert not report.checks["degree_histogram"]


class TestSpillSink:
    def test_shards_reassemble_product(self, tmp_path, weblike_small, triangle):
        sink = NpyShardSink(tmp_path / "shards")
        result = distributed_generate(weblike_small, triangle, 3, streaming=True,
                                      a_edges_per_block=8, sink=sink)
        product = KroneckerGraph(weblike_small, triangle)
        edges = load_edge_shards(tmp_path / "shards")
        assert edges.shape[0] == result.n_edges == product.nnz
        merged = merge_rank_outputs(
            [type("O", (), {"edges": edges})()], product.n_vertices)
        assert (merged != product.materialize_adjacency()).nnz == 0

    def test_manifest_records_blocks(self, tmp_path, small_er, triangle):
        sink = NpyShardSink(tmp_path / "shards", name="test", n_vertices=48)
        distributed_generate(small_er, triangle, 2, streaming=True,
                             a_edges_per_block=4, sink=sink)
        manifest = read_shard_manifest(tmp_path / "shards")
        assert manifest["kind"] == "edge-shards"
        assert manifest["n_vertices"] == 48
        assert manifest["total_edges"] == small_er.nnz * triangle.nnz
        assert sum(s["n_edges"] for s in manifest["shards"]) == manifest["total_edges"]
        assert all(s["n_edges"] <= 4 * triangle.nnz for s in manifest["shards"])

    def test_callable_sink(self, small_er, triangle):
        seen = []
        distributed_generate(small_er, triangle, 2, streaming=True,
                             a_edges_per_block=4,
                             sink=lambda rank, block, edges: seen.append(
                                 (rank, block, edges.shape[0])))
        assert sum(m for _, _, m in seen) == small_er.nnz * triangle.nnz
        assert {rank for rank, _, _ in seen} == {0, 1}

    def test_sink_under_process_pool(self, tmp_path, small_er, triangle):
        sink = NpyShardSink(tmp_path / "shards")
        result = distributed_generate(small_er, triangle, 3, streaming=True,
                                      a_edges_per_block=4, sink=sink,
                                      use_processes=True, max_workers=2)
        edges = load_edge_shards(tmp_path / "shards")
        assert edges.shape[0] == result.n_edges


class TestVectorizedTsv:
    def test_byte_identical_to_legacy_savetxt(self, tmp_path, small_er, triangle):
        """Regression: the vectorized TSV writer reproduces the old np.savetxt
        per-row loop byte for byte."""
        from repro.parallel import stream_edges_to_file

        product = KroneckerGraph(small_er, triangle)
        new_path = tmp_path / "new.tsv"
        stream_edges_to_file(product, new_path, a_edges_per_block=7)

        legacy_path = tmp_path / "legacy.tsv"
        with legacy_path.open("w") as handle:
            handle.write(
                f"# kronecker product {product.name} n_vertices={product.n_vertices}\n")
            for block in product.iter_edge_blocks(a_edges_per_block=7):
                np.savetxt(handle, block, fmt="%d", delimiter="\t")
        assert new_path.read_bytes() == legacy_path.read_bytes()

    def test_format_edge_block_empty(self):
        from repro.parallel import format_edge_block_tsv

        assert format_edge_block_tsv(np.zeros((0, 2), dtype=np.int64)) == ""


class TestStreamingOnlyArguments:
    def test_sink_requires_streaming(self, small_er, triangle):
        with pytest.raises(ValueError, match="sink requires streaming"):
            distributed_generate(small_er, triangle, 2, sink=lambda r, b, e: None)

    def test_block_size_requires_streaming(self, small_er, triangle):
        with pytest.raises(ValueError, match="a_edges_per_block requires streaming"):
            distributed_generate(small_er, triangle, 2, a_edges_per_block=8)

    def test_result_exposes_shared_stats(self, small_er, triangle):
        result = distributed_generate(small_er, triangle, 2, streaming=True)
        assert result.stats is not None
        report = ValidationAccumulator(small_er, triangle,
                                      stats=result.stats).validate(result.total)
        assert report.passed
        assert distributed_generate(small_er, triangle, 2, streaming=True,
                                    with_statistics=False).stats is None

    def test_zero_block_size_rejected(self, small_er, triangle):
        with pytest.raises(ValueError, match="a_edges_per_block"):
            distributed_generate(small_er, triangle, 2, a_edges_per_block=0)
        with pytest.raises(ValueError, match=">= 1"):
            distributed_generate(small_er, triangle, 2, streaming=True,
                                 a_edges_per_block=0)

    def test_single_rank_total_is_detached(self, small_er, triangle):
        """Size-1 allreduce must not alias the rank's own accumulator."""
        result = distributed_generate(small_er, triangle, 1, streaming=True)
        assert result.total is not result.rank_aggregates[0]
        assert result.total.rank == -1
        assert result.total.summary() == result.rank_aggregates[0].summary()
