"""Tests for the lazy factored statistics payload (KroneckerTriangleStats)."""

import numpy as np
import pytest

from repro import generators
from repro.core import (
    KroneckerGraph,
    KroneckerTriangleStats,
    kron_edge_triangles,
    kron_triangle_count,
    kron_vertex_triangles,
)
from repro.analysis import histogram


FACTOR_PAIRS = [
    (generators.erdos_renyi(10, 0.4, seed=1), generators.complete_graph(4)),
    (generators.webgraph_like(12, seed=2), generators.looped_clique(3)),
    (generators.erdos_renyi(8, 0.5, seed=3, self_loops=True),
     generators.erdos_renyi(7, 0.5, seed=4, self_loops=True)),
]


@pytest.mark.parametrize("factor_a,factor_b", FACTOR_PAIRS)
class TestAgainstFullEvaluation:
    def test_vertex_array(self, factor_a, factor_b):
        stats = KroneckerTriangleStats.from_factors(factor_a, factor_b)
        assert np.array_equal(stats.vertex_array(), kron_vertex_triangles(factor_a, factor_b))

    def test_vertex_point_queries(self, factor_a, factor_b):
        stats = KroneckerTriangleStats.from_factors(factor_a, factor_b)
        full = kron_vertex_triangles(factor_a, factor_b)
        idx = np.arange(0, full.size, 3)
        assert np.array_equal(stats.vertex_value(idx), full[idx])
        assert stats.vertex_value(1) == full[1]

    def test_total(self, factor_a, factor_b):
        stats = KroneckerTriangleStats.from_factors(factor_a, factor_b)
        assert stats.total_triangles() == kron_triangle_count(factor_a, factor_b)

    def test_edge_matrix(self, factor_a, factor_b):
        stats = KroneckerTriangleStats.from_factors(factor_a, factor_b)
        assert (stats.edge_matrix() != kron_edge_triangles(factor_a, factor_b)).nnz == 0

    def test_edge_point_queries(self, factor_a, factor_b):
        stats = KroneckerTriangleStats.from_factors(factor_a, factor_b)
        full = kron_edge_triangles(factor_a, factor_b).tocoo()
        for p, q, value in list(zip(full.row, full.col, full.data))[:15]:
            assert stats.edge_value(int(p), int(q)) == value

    def test_edge_values_at_entry_positions(self, factor_a, factor_b):
        """Every product row, addressed by its factor entry positions, reads
        Δ_C from the entry vectors: equal to edge_values and to the
        materialized Δ_C."""
        stats = KroneckerTriangleStats.from_factors(factor_a, factor_b)
        product = KroneckerGraph(factor_a, factor_b)
        src, a_pos, b_pos = (np.concatenate(parts) for parts in
                             zip(*product.iter_entry_blocks(a_edges_per_block=3)))
        dst = product.entry_destinations(a_pos, b_pos)
        values = stats.edge_values_at(a_pos, b_pos)
        assert values.dtype == np.int64
        assert np.array_equal(values, stats.edge_values(src, dst))
        full = kron_edge_triangles(factor_a, factor_b)
        assert np.array_equal(values, np.asarray(full[src, dst]).ravel())

    def test_vertex_histogram(self, factor_a, factor_b):
        stats = KroneckerTriangleStats.from_factors(factor_a, factor_b)
        expected = histogram(kron_vertex_triangles(factor_a, factor_b))
        assert stats.vertex_histogram() == expected

    def test_edge_histogram_nonzero_values(self, factor_a, factor_b):
        stats = KroneckerTriangleStats.from_factors(factor_a, factor_b)
        full = kron_edge_triangles(factor_a, factor_b)
        expected = histogram(full.data[full.data != 0])
        assert stats.edge_histogram() == expected


def test_entry_components_drop_vanishing_terms():
    """Only components non-zero on both factors keep entry vectors: with
    loop-free factors that is (A∘A²) ⊗ (B∘B²) alone; with loops in both,
    all five."""
    loop_free = KroneckerTriangleStats.from_factors(*FACTOR_PAIRS[0])
    assert [coef for coef, _, _ in loop_free.entry_components] == [1]
    looped = KroneckerTriangleStats.from_factors(*FACTOR_PAIRS[2])
    assert [coef for coef, _, _ in looped.entry_components] == [1, -1, -1, 2, -1]


class TestScalability:
    def test_no_product_sized_allocation_needed(self):
        """Totals and histograms are available even when the product would be huge."""
        factor = generators.webgraph_like(400, seed=7)
        stats = KroneckerTriangleStats.from_factors(factor, factor)
        n_c = factor.n_vertices ** 2
        assert n_c == 160_000
        total = stats.total_triangles()
        assert total > 0
        hist = stats.vertex_histogram()
        assert sum(hist.values()) == n_c

    def test_histogram_consistent_with_total(self):
        factor_a = generators.webgraph_like(60, seed=1)
        factor_b = generators.webgraph_like(50, seed=2)
        stats = KroneckerTriangleStats.from_factors(factor_a, factor_b)
        hist = stats.vertex_histogram()
        assert sum(v * c for v, c in hist.items()) == 3 * stats.total_triangles()

    def test_requires_undirected_factors(self):
        directed = generators.random_directed_graph(8, seed=1)
        with pytest.raises(TypeError):
            KroneckerTriangleStats.from_factors(directed, generators.complete_graph(3))
