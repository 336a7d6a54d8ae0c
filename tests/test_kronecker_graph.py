"""Tests for the implicit KroneckerGraph product object."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import generators
from repro.core import KroneckerGraph
from repro.graphs import DirectedGraph, Graph, VertexLabeledGraph
from repro.graphs.adjacency import to_csr


class TestSizes:
    def test_vertex_and_entry_counts(self, k4, k5):
        product = KroneckerGraph(k4, k5)
        assert product.n_factor_a == 4
        assert product.n_factor_b == 5
        assert product.n_vertices == 20
        assert product.nnz == k4.nnz * k5.nnz

    def test_edge_count_matches_materialized(self, small_er, triangle):
        product = KroneckerGraph(small_er, triangle)
        assert product.n_edges == product.materialize().n_edges

    def test_edge_count_with_self_loops(self, small_er_loops):
        looped = generators.looped_clique(3)
        product = KroneckerGraph(small_er_loops, looped)
        assert product.n_edges == product.materialize().n_edges
        assert product.n_self_loops == product.materialize().n_self_loops

    def test_self_loops_require_both_factors(self, k4):
        looped = generators.looped_clique(3)
        assert not KroneckerGraph(k4, looped).has_self_loops
        assert KroneckerGraph(looped, looped).has_self_loops

    def test_undirectedness(self, k4, directed_small):
        assert KroneckerGraph(k4, k4).is_undirected
        assert not KroneckerGraph(directed_small, k4).is_undirected

    def test_n_edges_rejected_for_directed(self, directed_small, k4):
        with pytest.raises(ValueError):
            _ = KroneckerGraph(directed_small, k4).n_edges

    def test_name_defaults(self, k4, k5):
        assert KroneckerGraph(k4, k5).name == "K4⊗K5"
        assert KroneckerGraph(k4, k5, name="C").name == "C"

    def test_repr(self, k4, k5):
        assert "n_vertices=20" in repr(KroneckerGraph(k4, k5))


class TestIndexing:
    def test_factor_indices_round_trip(self, k4, k5):
        product = KroneckerGraph(k4, k5)
        p = np.arange(product.n_vertices)
        i, k = product.factor_indices(p)
        assert np.array_equal(product.product_index(i, k), p)

    def test_entry_identity(self, small_er, triangle):
        product = KroneckerGraph(small_er, triangle)
        dense_c = np.kron(small_er.to_dense(), triangle.to_dense())
        rng = np.random.default_rng(0)
        for _ in range(50):
            p, q = rng.integers(0, product.n_vertices, size=2)
            assert product.has_edge(int(p), int(q)) == bool(dense_c[p, q])


class TestLocalQueries:
    def test_degrees_match_materialized(self, small_er, k4):
        product = KroneckerGraph(small_er, k4)
        assert np.array_equal(product.degrees(), product.materialize().degrees())

    def test_degree_scalar_matches_vector(self, small_er, k4):
        product = KroneckerGraph(small_er, k4)
        degrees = product.degrees()
        for p in (0, 5, 17, product.n_vertices - 1):
            assert product.degree(p) == degrees[p]

    def test_degrees_with_self_loops(self):
        a = generators.looped_clique(3)
        b = generators.erdos_renyi(5, 0.6, seed=1, self_loops=True)
        product = KroneckerGraph(a, b)
        assert np.array_equal(product.degrees(), Graph(product.materialize_adjacency(), validate=False).degrees())

    def test_neighbors_match_materialized(self, small_er, triangle):
        product = KroneckerGraph(small_er, triangle)
        materialized = product.materialize()
        for p in (0, 3, 20, 44):
            assert product.neighbors(p).tolist() == materialized.neighbors(p).tolist()

    def test_neighbors_empty_for_isolated(self):
        a = Graph.from_edges([(0, 1)], n_vertices=3)  # vertex 2 isolated
        b = generators.complete_graph(2)
        product = KroneckerGraph(a, b)
        assert product.neighbors(product.product_index(2, 0)).size == 0

    def test_subgraph_matches_materialized(self, small_er, triangle):
        product = KroneckerGraph(small_er, triangle)
        materialized = product.materialize()
        vertices = [0, 1, 5, 9, 13, 30]
        assert product.subgraph(vertices) == materialized.subgraph(vertices)

    def test_subgraph_adjacency_out_of_range(self, k4, k5):
        with pytest.raises(IndexError):
            KroneckerGraph(k4, k5).subgraph_adjacency([0, 100])

    def test_subgraph_rejected_for_directed(self, directed_small, k4):
        with pytest.raises(ValueError):
            KroneckerGraph(directed_small, k4).subgraph([0, 1])


class TestMaterializationAndStreaming:
    def test_materialize_equals_scipy_kron(self, k4, k5):
        product = KroneckerGraph(k4, k5)
        expected = sp.kron(k4.adjacency, k5.adjacency, format="csr")
        assert (product.materialize_adjacency() != expected).nnz == 0

    def test_materialize_type_dispatch(self, k4, directed_small, labeled_small):
        assert isinstance(KroneckerGraph(k4, k4).materialize(), Graph)
        assert isinstance(KroneckerGraph(directed_small, k4).materialize(), DirectedGraph)
        labeled = KroneckerGraph(labeled_small, k4).materialize()
        assert isinstance(labeled, VertexLabeledGraph)

    def test_materialize_guard(self, weblike_small):
        product = KroneckerGraph(weblike_small, weblike_small)
        with pytest.raises(MemoryError):
            product.materialize(max_nnz=10)

    def test_edges_guard(self, weblike_small):
        product = KroneckerGraph(weblike_small, weblike_small)
        with pytest.raises(MemoryError):
            product.edges(max_nnz=10)

    def test_edges_match_materialized(self, k4, triangle):
        product = KroneckerGraph(k4, triangle)
        edges = product.edges()
        rebuilt = sp.csr_matrix(
            (np.ones(edges.shape[0], dtype=np.int64), (edges[:, 0], edges[:, 1])),
            shape=(product.n_vertices, product.n_vertices),
        )
        assert (rebuilt != product.materialize_adjacency()).nnz == 0

    def test_edges_in_csr_order(self, small_er_loops, directed_small):
        """edges() walks sources in order, each source's destinations in
        order: exactly the (row, col) sequence of the materialized CSR."""
        for factor_a, factor_b in ((small_er_loops, small_er_loops),
                                   (directed_small, small_er_loops)):
            product = KroneckerGraph(factor_a, factor_b)
            adj = product.materialize_adjacency()
            edges = product.edges()
            assert np.array_equal(edges[:, 0], np.repeat(np.arange(adj.shape[0]),
                                                         np.diff(adj.indptr)))
            assert np.array_equal(edges[:, 1], adj.indices)

    def test_source_offsets_and_inverse(self, small_er_loops, directed_small):
        """source_offsets(p) is where source p's rows start in CSR order
        (nnz(C) for p = n_C); sources_at(t) is the source holding row t."""
        product = KroneckerGraph(directed_small, small_er_loops)
        indptr = product.materialize_adjacency().indptr
        n = product.n_vertices
        assert np.array_equal(product.source_offsets(np.arange(n + 1)), indptr)
        assert np.array_equal(product.sources_at(np.arange(product.nnz)),
                              product.edges()[:, 0])

    def test_iter_edge_blocks_source_range(self, small_er, triangle):
        product = KroneckerGraph(small_er, triangle)
        edges = product.edges()
        lo, hi = 7, 29
        blocks = list(product.iter_edge_blocks(a_edges_per_block=2,
                                               src_start=lo, src_stop=hi))
        inside = edges[(edges[:, 0] >= lo) & (edges[:, 0] < hi)]
        assert np.array_equal(np.concatenate(blocks), inside)
        with pytest.raises(ValueError, match="source range"):
            next(product.iter_edge_blocks(src_start=5, src_stop=product.n_vertices + 1))

    def test_iter_edge_blocks_cover_all_edges(self, small_er, triangle):
        product = KroneckerGraph(small_er, triangle)
        total = sum(block.shape[0] for block in product.iter_edge_blocks(a_edges_per_block=7))
        assert total == product.nnz

    def test_iter_edge_blocks_respects_block_size(self, small_er, triangle):
        product = KroneckerGraph(small_er, triangle)
        for block in product.iter_edge_blocks(a_edges_per_block=5):
            assert block.shape[0] <= 5 * triangle.nnz

    def test_iter_entry_blocks_pair_factor_entries(self, directed_small, small_er_loops,
                                                   weblike_small, triangle):
        """Row t of an entry block is the product of the A entry at a_pos[t]
        and the B entry at b_pos[t]; the blocks are those of
        iter_edge_blocks, hub split included (one A edge per block)."""
        for factor_a, factor_b, block in ((directed_small, small_er_loops, 2),
                                          (weblike_small, triangle, 1)):
            product = KroneckerGraph(factor_a, factor_b)
            adj_a, adj_b = to_csr(factor_a.adjacency), to_csr(factor_b.adjacency)
            rows_a = np.repeat(np.arange(adj_a.shape[0]), np.diff(adj_a.indptr))
            rows_b = np.repeat(np.arange(adj_b.shape[0]), np.diff(adj_b.indptr))
            n_b = product.n_factor_b
            for (src, a_pos, b_pos), edges in zip(
                    product.iter_entry_blocks(a_edges_per_block=block),
                    product.iter_edge_blocks(a_edges_per_block=block), strict=True):
                assert src.dtype == a_pos.dtype == b_pos.dtype == np.int64
                assert np.array_equal(src, edges[:, 0])
                assert np.array_equal(rows_a[a_pos] * n_b + rows_b[b_pos], src)
                assert np.array_equal(adj_a.indices[a_pos] * n_b + adj_b.indices[b_pos],
                                      edges[:, 1])
                assert np.array_equal(product.entry_destinations(a_pos, b_pos),
                                      edges[:, 1])


class TestLabels:
    def test_label_inheritance(self, labeled_small, k4):
        product = KroneckerGraph(labeled_small, k4)
        assert product.is_labeled
        labels = product.labels()
        for p in (0, 7, 19, 33):
            i = p // k4.n_vertices
            assert labels[p] == labeled_small.label_of(i)
            assert product.label_of(p) == labeled_small.label_of(i)

    def test_unlabeled_product_raises(self, k4, k5):
        product = KroneckerGraph(k4, k5)
        assert not product.is_labeled
        with pytest.raises(ValueError):
            product.labels()
        with pytest.raises(ValueError):
            product.n_labels

    def test_n_labels(self, labeled_small, k4):
        assert KroneckerGraph(labeled_small, k4).n_labels == labeled_small.n_labels


class TestConvenienceFormulas:
    def test_vertex_triangles_method(self, small_er, triangle):
        from repro.triangles import vertex_triangles

        product = KroneckerGraph(small_er, triangle)
        assert np.array_equal(product.vertex_triangles(), vertex_triangles(product.materialize()))

    def test_edge_triangles_method(self, k4, triangle):
        from repro.triangles import edge_triangles

        product = KroneckerGraph(k4, triangle)
        assert (product.edge_triangles() != edge_triangles(product.materialize())).nnz == 0

    def test_triangle_count_method(self, small_er, triangle):
        from repro.triangles import total_triangles

        product = KroneckerGraph(small_er, triangle)
        assert product.triangle_count() == total_triangles(product.materialize())

    def test_kron_degrees_method(self, small_er, k4):
        product = KroneckerGraph(small_er, k4)
        assert np.array_equal(product.kron_degrees(), product.materialize().degrees())
