"""Tests for the streaming rank pipeline: bounded blocks, aggregates, validation.

The pipeline contract under test (the paper's trillion-edge use case scaled
down): a rank streams its slice in bounded blocks, folds them into
factor-free aggregates, the aggregates allreduce across ranks, and the
reduced aggregate validates against the closed-form factor statistics — all
without any rank ever materializing its slice or the driver merging edge
lists.
"""

import numpy as np
import pytest

from repro import generators
from repro.core import (
    KroneckerGraph,
    KroneckerTriangleStats,
    ValidationAccumulator,
    kron_truss_decomposition,
)
from repro.graphs import NpyShardSink, load_edge_shards, read_shard_manifest
from repro.parallel import (
    SimulatedComm,
    StreamingRankAccumulator,
    distributed_generate,
    generate_rank_edges,
    iter_rank_edge_blocks,
    merge_rank_outputs,
    partition_edges,
    partition_vertex_blocks,
    stream_rank_aggregate,
)

LAYOUTS = ("edges", "vertex-blocks")


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
        parts = partition_edges(weblike_small.nnz, delta_le_one_factor.nnz, 3)
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
        part = partition_edges(small_er.nnz, triangle.nnz, 1)[0]
        bound = 4 * triangle.nnz
        for block in iter_rank_edge_blocks(small_er, triangle, part,
                                           a_edges_per_block=4,
                                           with_statistics=False):
            assert block.edges.shape[0] <= bound

    def test_vertex_block_partition_accepted(self, weblike_small, triangle):
        row_nnz = np.diff(weblike_small.adjacency.indptr)
        parts = partition_vertex_blocks(row_nnz, triangle.n_vertices, triangle.nnz, 4)
        total = 0
        for part in parts:
            for block in iter_rank_edge_blocks(weblike_small, triangle, part,
                                               a_edges_per_block=6,
                                               with_statistics=False):
                # every source vertex lies in the rank's product-vertex range
                if block.edges.shape[0]:
                    assert block.edges[:, 0].min() >= part.product_vertex_start
                    assert block.edges[:, 0].max() < part.product_vertex_stop
                total += block.edges.shape[0]
        assert total == weblike_small.nnz * triangle.nnz

    def test_gatherer_matches_edge_values(self, small_er_loops, small_er):
        stats = KroneckerTriangleStats.from_factors(small_er_loops, small_er)
        product = KroneckerGraph(small_er_loops, small_er)
        edges = product.edges()
        gatherer = stats.gatherer()
        assert np.array_equal(gatherer.edge_values(edges[:, 0], edges[:, 1]),
                              stats.edge_values(edges[:, 0], edges[:, 1]))


class TestStreamingAggregates:
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("streamed", [True, False])
    def test_all_four_combinations_agree(self, weblike_small, delta_le_one_factor,
                                         layout, streamed):
        """Acceptance: streamed == materialized aggregates for every layout."""
        reference = _total_aggregate(
            distributed_generate(weblike_small, delta_le_one_factor, 4))
        if streamed:
            result = distributed_generate(weblike_small, delta_le_one_factor, 4,
                                          layout=layout, streaming=True,
                                          a_edges_per_block=7)
            candidate = result.total
            bound = 7 * delta_le_one_factor.nnz
            assert result.max_block_edges <= bound
            for acc in result.rank_aggregates:
                assert acc.max_block_edges <= bound
        else:
            candidate = _total_aggregate(
                distributed_generate(weblike_small, delta_le_one_factor, 4,
                                     layout=layout))
        assert candidate.summary() == reference.summary()

    def test_blocking_schedule_is_invisible(self, small_er, triangle):
        summaries = [
            distributed_generate(small_er, triangle, ranks, streaming=True,
                                 a_edges_per_block=block).total.summary()
            for ranks, block in ((1, 1000), (3, 2), (5, 1))
        ]
        assert summaries[0] == summaries[1] == summaries[2]

    def test_allreduce_through_simulated_comm(self, small_er, triangle):
        parts = partition_edges(small_er.nnz, triangle.nnz, 3)
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
        n_held = sum(
            np.asarray(getattr(acc, slot)).size
            for slot in acc.__slots__
            if isinstance(getattr(acc, slot), np.ndarray)
        )
        assert n_held < acc.n_edges  # value/count tables, not the edge list

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
        parts = partition_edges(small_er.nnz, triangle.nnz, 3)
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
        part = partition_edges(small_er.nnz, triangle.nnz, 2)[0]
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

    def test_sequential_run_builds_one_gatherer(self, small_er, triangle, monkeypatch):
        from repro.core import TriangleStatsGatherer

        calls = []
        original = TriangleStatsGatherer.__init__

        def counting_init(self, stats):
            calls.append(1)
            original(self, stats)

        monkeypatch.setattr(TriangleStatsGatherer, "__init__", counting_init)
        distributed_generate(small_er, triangle, 4, streaming=True,
                             a_edges_per_block=4)
        assert len(calls) == 1
