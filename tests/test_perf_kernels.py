"""Property tests for the vectorized kernel layer (:mod:`repro.perf`).

The contract under test: every batched kernel is *exactly* equivalent to the
scalar/dense reference it replaces — on random sparse matrices including
self-loop, empty-row, and empty-matrix cases — so the fast path can never
silently diverge from the formulas.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import generators
from repro.core import (
    KroneckerTriangleStats,
    kron_degree_at,
    kron_edge_triangles,
    kron_local_clustering,
    kron_local_clustering_at,
    kron_vertex_triangles,
)
from repro.perf import csr_gather, csr_gather_entries, csr_has_entry, ragged_range, ragged_take

KERNEL_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def sparse_matrices(draw):
    """Random small sparse matrices: rectangular, self loops, empty rows allowed."""
    n_rows = draw(st.integers(min_value=1, max_value=24))
    n_cols = draw(st.integers(min_value=1, max_value=24))
    density = draw(st.floats(min_value=0.0, max_value=0.6))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    mat = sp.random(n_rows, n_cols, density=density, format="csr", random_state=rng)
    mat.data = np.round(mat.data * 9).astype(np.int64) + 1  # no accidental zeros
    mat.eliminate_zeros()
    mat.sort_indices()
    return mat


class TestCsrGather:
    @given(matrix=sparse_matrices(), seed=st.integers(min_value=0, max_value=2**31 - 1))
    @KERNEL_SETTINGS
    def test_matches_dense_indexing(self, matrix, seed):
        rng = np.random.default_rng(seed)
        dense = matrix.toarray()
        n_queries = int(rng.integers(0, 100))
        rows = rng.integers(0, matrix.shape[0], n_queries)
        cols = rng.integers(0, matrix.shape[1], n_queries)
        assert np.array_equal(csr_gather(matrix, rows, cols), dense[rows, cols])

    @given(matrix=sparse_matrices(), seed=st.integers(min_value=0, max_value=2**31 - 1))
    @KERNEL_SETTINGS
    def test_scalar_queries_and_membership(self, matrix, seed):
        rng = np.random.default_rng(seed)
        dense = matrix.toarray()
        for _ in range(10):
            i = int(rng.integers(0, matrix.shape[0]))
            j = int(rng.integers(0, matrix.shape[1]))
            assert csr_gather(matrix, i, j) == dense[i, j]
            assert csr_has_entry(matrix, i, j) == (dense[i, j] != 0)

    def test_self_loop_diagonal(self):
        graph = generators.erdos_renyi(12, 0.35, seed=7, self_loops=True)
        adj = graph.adjacency
        diag = np.arange(12)
        assert np.array_equal(csr_gather(adj, diag, diag), adj.diagonal())

    def test_empty_matrix_and_empty_rows(self):
        empty = sp.csr_matrix((6, 6), dtype=np.int64)
        assert csr_gather(empty, 3, 3) == 0
        assert not csr_has_entry(empty, 3, 3)
        queries = np.array([0, 5]), np.array([5, 0])
        assert np.array_equal(csr_gather(empty, *queries), [0, 0])
        # one stored row, all other rows empty
        one_row = sp.csr_matrix(([7], ([2], [4])), shape=(6, 6))
        assert csr_gather(one_row, 2, 4) == 7
        assert np.array_equal(csr_gather(one_row, np.arange(6), np.full(6, 4)),
                              [0, 0, 7, 0, 0, 0])

    def test_empty_query_batch(self):
        mat = sp.identity(4, format="csr")
        empty_idx = np.zeros(0, dtype=np.int64)
        assert csr_gather(mat, empty_idx, empty_idx).shape == (0,)

    def test_broadcasting(self):
        mat = sp.identity(5, format="csr", dtype=np.int64)
        assert np.array_equal(csr_gather(mat, np.arange(5), 2),
                              np.asarray([0, 0, 1, 0, 0]))

    def test_out_of_range_raises(self):
        mat = sp.identity(4, format="csr")
        with pytest.raises(IndexError):
            csr_gather(mat, 4, 0)
        with pytest.raises(IndexError):
            csr_gather(mat, np.array([0]), np.array([4]))

    def test_non_csr_input_coerced(self):
        coo = sp.coo_matrix(([3.0], ([1], [2])), shape=(4, 4))
        assert csr_gather(coo, 1, 2) == 3.0

    def test_non_sparse_input_rejected(self):
        with pytest.raises(TypeError):
            csr_gather(np.eye(3), 0, 0)


class TestEntryKernels:
    @given(matrix=sparse_matrices(), support=sparse_matrices())
    @KERNEL_SETTINGS
    def test_gather_entries_matches_dense(self, matrix, support):
        """csr_gather_entries reads *matrix* at each stored entry of
        *support*, in support's entry order (0 where matrix has none)."""
        shape = (min(matrix.shape[0], support.shape[0]),
                 min(matrix.shape[1], support.shape[1]))
        matrix = matrix[:shape[0], :shape[1]].tocsr()
        support = support[:shape[0], :shape[1]].tocsr()
        rows = np.repeat(np.arange(shape[0]), np.diff(support.indptr))
        values = csr_gather_entries(matrix, support)
        assert values.dtype == np.int64
        assert np.array_equal(values, matrix.toarray()[rows, support.indices])

    @given(bounds=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 6)), max_size=12))
    @KERNEL_SETTINGS
    def test_ragged_range_concatenates_ranges(self, bounds):
        lefts = np.asarray([lo for lo, _ in bounds], dtype=np.int64)
        rights = lefts + np.asarray([width for _, width in bounds], dtype=np.int64)
        expected = [t for lo, hi in zip(lefts, rights) for t in range(lo, hi)]
        assert np.array_equal(ragged_range(lefts, rights), expected)
        arr = np.arange(40) * 3
        assert np.array_equal(ragged_take(arr, lefts, rights), arr[expected])


class TestEdgeValuesEquivalence:
    """``edge_values(ps, qs)`` ≡ ``[edge_value(p, q) for ...]`` — satellite property."""

    @pytest.mark.parametrize("factor_pair", [
        ("er", "k3"), ("er_loops", "k3"), ("er", "er_loops"), ("weblike", "pa"),
    ])
    def test_batched_equals_scalar_on_all_edges(self, factor_pair):
        factories = {
            "er": lambda: generators.erdos_renyi(14, 0.35, seed=1),
            "er_loops": lambda: generators.erdos_renyi(9, 0.4, seed=2, self_loops=True),
            "k3": lambda: generators.complete_graph(3),
            "weblike": lambda: generators.webgraph_like(24, seed=3),
            "pa": lambda: generators.triangle_constrained_pa(12, seed=13),
        }
        factor_a = factories[factor_pair[0]]()
        factor_b = factories[factor_pair[1]]()
        stats = KroneckerTriangleStats.from_factors(factor_a, factor_b)
        full = kron_edge_triangles(factor_a, factor_b).tocoo()
        ps = full.row.astype(np.int64)
        qs = full.col.astype(np.int64)
        batched = stats.edge_values(ps, qs)
        scalar = np.asarray([stats.edge_value(int(p), int(q)) for p, q in zip(ps, qs)])
        assert np.array_equal(batched, scalar)
        assert np.array_equal(batched, full.data)

    def test_non_edges_evaluate_to_formula_zero(self, small_er, triangle):
        stats = KroneckerTriangleStats.from_factors(small_er, triangle)
        n_c = small_er.n_vertices * 3
        rng = np.random.default_rng(5)
        ps = rng.integers(0, n_c, 64)
        qs = rng.integers(0, n_c, 64)
        batched = stats.edge_values(ps, qs)
        scalar = np.asarray([stats.edge_value(int(p), int(q)) for p, q in zip(ps, qs)])
        assert np.array_equal(batched, scalar)


class TestVectorizedHistogram:
    @pytest.mark.parametrize("loops_a,loops_b", [(False, False), (False, True), (True, True)])
    def test_vertex_histogram_matches_full_vector(self, loops_a, loops_b):
        factor_a = generators.erdos_renyi(11, 0.35, seed=3, self_loops=loops_a)
        factor_b = generators.erdos_renyi(8, 0.4, seed=4, self_loops=loops_b)
        stats = KroneckerTriangleStats.from_factors(factor_a, factor_b)
        full = kron_vertex_triangles(factor_a, factor_b)
        values, counts = np.unique(full, return_counts=True)
        assert stats.vertex_histogram() == {int(v): int(c) for v, c in zip(values, counts)}


class TestBatchedFormulaQueries:
    def test_local_clustering_point_query(self, small_er, triangle):
        full = kron_local_clustering(small_er, triangle)
        ps = np.arange(small_er.n_vertices * 3)
        assert np.allclose(kron_local_clustering_at(small_er, triangle, ps), full)
        assert kron_local_clustering_at(small_er, triangle, 0) == pytest.approx(full[0])

    def test_degree_point_query_accepts_sequences(self, small_er, triangle):
        from repro.core import kron_degrees
        full = kron_degrees(small_er, triangle)
        assert np.array_equal(kron_degree_at(small_er, triangle, [0, 5, 9]),
                              full[[0, 5, 9]])
        assert kron_degree_at(small_er, triangle, 7) == int(full[7])
