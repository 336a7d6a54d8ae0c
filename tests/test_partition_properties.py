"""Property-based tests (hypothesis) for the source-range partition.

The partition must be a *disjoint cover*: every product source owned by
exactly one rank, the ranges contiguous and in rank order, with the per-rank
``product_edges`` accounting equal to the closed-form offset difference and
summing to ``nnz(C)`` — the property the communication-free generation and
the sorted spill rest on.  The adversarial degree profiles here (heavy-tailed
rows, all-zero rows, more ranks than sources with edges) yield empty ranks;
those must be handled, never crash, and the load balance measured against
the best any contiguous partitioner could do (``bounded_imbalance``, with
the largest source out-degree as the indivisible unit) must stay ≤ 2.
"""

import time

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import KroneckerGraph, KroneckerTriangleStats, kron_truss_decomposition
from repro.graphs import DirectedGraph, Graph
from repro.parallel import (
    balance_statistics,
    distributed_generate,
    iter_rank_edge_blocks,
    partition_sources,
)

PARTITION_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def degree_profiles(draw, max_rows=30):
    """Adversarial row-nnz profiles: skewed, sparse-with-zeros, or flat."""
    n_rows = draw(st.integers(min_value=0, max_value=max_rows))
    kind = draw(st.sampled_from(["flat", "skewed", "zero-heavy", "one-hot"]))
    if kind == "flat":
        profile = draw(st.lists(st.integers(0, 6), min_size=n_rows, max_size=n_rows))
    elif kind == "skewed":
        profile = [draw(st.integers(0, 3)) for _ in range(n_rows)]
        if n_rows:
            hub = draw(st.integers(0, n_rows - 1))
            profile[hub] = n_rows
    elif kind == "zero-heavy":
        profile = [0] * n_rows
        for _ in range(draw(st.integers(0, max(1, n_rows // 4)))):
            if n_rows:
                profile[draw(st.integers(0, n_rows - 1))] = draw(st.integers(1, 4))
    else:  # one-hot
        profile = [0] * n_rows
        if n_rows:
            profile[draw(st.integers(0, n_rows - 1))] = draw(st.integers(1, n_rows))
    return np.minimum(np.asarray(profile, dtype=np.int64), n_rows)


def _factor(profile: np.ndarray) -> DirectedGraph:
    """A factor whose row ``i`` holds ``profile[i]`` entries."""
    n = profile.shape[0]
    indptr = np.concatenate([[0], np.cumsum(profile)])
    indices = (np.concatenate([np.arange(d) for d in profile])
               if n else np.zeros(0, dtype=np.int64))
    return DirectedGraph(sp.csr_matrix((np.ones(indices.size), indices, indptr),
                                       shape=(n, n)))


def _source_degrees(factor_a, factor_b) -> np.ndarray:
    """Out-degree of every product source (test-sized products only)."""
    return np.kron(np.diff(factor_a.adjacency.indptr),
                   np.diff(factor_b.adjacency.indptr)).astype(np.int64)


class TestSourcePartitionProperties:
    @PARTITION_SETTINGS
    @given(profile_a=degree_profiles(), profile_b=degree_profiles(max_rows=8),
           n_ranks=st.integers(1, 64))
    def test_disjoint_cover_and_accounting(self, profile_a, profile_b, n_ranks):
        factor_a, factor_b = _factor(profile_a), _factor(profile_b)
        n = factor_a.n_vertices * factor_b.n_vertices
        degrees = _source_degrees(factor_a, factor_b)
        parts = partition_sources(factor_a, factor_b, n_ranks)
        assert [p.rank for p in parts] == list(range(n_ranks))
        assert parts[0].src_start == 0
        assert parts[-1].src_stop == n
        for prev, cur in zip(parts, parts[1:]):
            assert prev.src_stop == cur.src_start  # disjoint, contiguous
        for p in parts:
            assert 0 <= p.src_start <= p.src_stop <= n
            assert p.product_edges == int(degrees[p.src_start:p.src_stop].sum())
        assert sum(p.product_edges for p in parts) == int(degrees.sum())

    @PARTITION_SETTINGS
    @given(profile_a=degree_profiles(), profile_b=degree_profiles(max_rows=8),
           n_ranks=st.integers(1, 64))
    def test_product_edges_are_offset_differences(self, profile_a, profile_b,
                                                  n_ranks):
        factor_a, factor_b = _factor(profile_a), _factor(profile_b)
        product = KroneckerGraph(factor_a, factor_b)
        parts = partition_sources(factor_a, factor_b, n_ranks)
        if product.nnz == 0:
            assert all(p.product_edges == 0 for p in parts)
            return
        for p in parts:
            start, stop = product.source_offsets([p.src_start, p.src_stop])
            assert p.product_edges == stop - start

    @PARTITION_SETTINGS
    @given(profile_a=degree_profiles(), profile_b=degree_profiles(max_rows=8),
           n_ranks=st.integers(1, 64))
    def test_bounded_imbalance_le_2_adversarial(self, profile_a, profile_b,
                                                n_ranks):
        """Nearest-offset cuts miss each share by at most half a source."""
        factor_a, factor_b = _factor(profile_a), _factor(profile_b)
        degrees = _source_degrees(factor_a, factor_b)
        atom = int(degrees.max()) if degrees.size else 0
        parts = partition_sources(factor_a, factor_b, n_ranks)
        stats = balance_statistics(parts, max_atom_load=atom)
        assert stats["bounded_imbalance"] <= 2.0
        nnz = int(degrees.sum())
        if nnz:
            offsets = np.concatenate([[0], np.cumsum(degrees)])
            for p in parts:
                miss = n_ranks * int(offsets[p.src_start]) - p.rank * nnz
                assert 2 * abs(miss) <= n_ranks * atom

    def test_more_ranks_than_sources_with_edges_yields_empty_ranks(self, triangle):
        single = _factor(np.asarray([1, 0, 0]))  # one source row with one entry
        parts = partition_sources(single, triangle, 10)
        assert len(parts) == 10
        empty = [p for p in parts if p.product_edges == 0]
        assert len(empty) >= 7  # handled, not crashed
        assert sum(p.product_edges for p in parts) == triangle.nnz

    def test_all_zero_factor(self, triangle):
        parts = partition_sources(_factor(np.zeros(6, dtype=np.int64)), triangle, 3)
        assert sum(p.product_edges for p in parts) == 0
        assert (parts[0].src_start, parts[-1].src_stop) == (0, 18)
        stats = balance_statistics(parts, max_atom_load=0)
        assert stats["bounded_imbalance"] == 1.0

    def test_empty_factor(self, triangle):
        parts = partition_sources(_factor(np.zeros(0, dtype=np.int64)), triangle, 4)
        assert len(parts) == 4
        assert all(p.src_start == p.src_stop == 0 for p in parts)
        assert all(p.product_edges == 0 for p in parts)

    @pytest.mark.parametrize("streaming", [False, True])
    def test_zero_ranks_rejected(self, small_er, triangle, streaming):
        with pytest.raises(ValueError, match="ranks"):
            partition_sources(small_er, triangle, 0)
        with pytest.raises(ValueError, match="ranks"):
            distributed_generate(small_er, triangle, 0, streaming=streaming)

    def test_ten_billion_sources_stay_factor_sized(self):
        """n_C = 10^10: an n_C-length array would need 80 GB, so both the
        partitioner and the enumerator must work from the factors alone."""
        n = 100_000
        ring = np.arange(n)
        hub = np.zeros(n // 10, dtype=np.int64)  # vertex 0 is a hub
        rows = np.concatenate([ring, (ring + 1) % n, hub, np.arange(1, n // 10 + 1)])
        cols = np.concatenate([(ring + 1) % n, ring, np.arange(1, n // 10 + 1), hub])
        factor = Graph(sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n)))
        start = time.perf_counter()
        parts = partition_sources(factor, factor, 16)
        assert time.perf_counter() - start < 5.0
        assert parts[-1].src_stop == n * n == 10**10
        assert sum(p.product_edges for p in parts) == factor.nnz ** 2
        degree_atom = int(np.diff(factor.adjacency.indptr).max()) ** 2
        stats = balance_statistics(parts, max_atom_load=degree_atom)
        assert stats["bounded_imbalance"] <= 2.0
        product = KroneckerGraph(factor, factor)
        first = next(product.iter_edge_blocks(a_edges_per_block=1,
                                              src_start=parts[7].src_start,
                                              src_stop=parts[7].src_stop))
        assert first.shape[0] <= factor.nnz
        assert first[0, 0] >= parts[7].src_start
        assert np.all(np.diff(first[:, 0]) >= 0)

    def test_ten_billion_sources_payloads_stay_factor_sized(self):
        """n_C = 10^10 with both payloads: the statistics, the Theorem 3
        transfer and the entry vectors are factor-sized, and a streamed block
        reads the same payloads as the random-access evaluators.  Disjoint
        triangles are loop-free with Δ = 1, so Theorem 3 applies."""
        n = 99_999
        tri = np.arange(n).reshape(-1, 3)
        rows = np.concatenate([tri[:, 0], tri[:, 1], tri[:, 2], tri[:, 1], tri[:, 2], tri[:, 0]])
        cols = np.concatenate([tri[:, 1], tri[:, 2], tri[:, 0], tri[:, 0], tri[:, 1], tri[:, 2]])
        factor = Graph(sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n)))
        stats = KroneckerTriangleStats.from_factors(factor, factor)
        truss = kron_truss_decomposition(factor, factor)
        parts = partition_sources(factor, factor, 16)
        assert parts[-1].src_stop == n * n
        block = next(iter_rank_edge_blocks(factor, factor, parts[7],
                                           a_edges_per_block=1, stats=stats))
        ps, qs = block.edges[:, 0], block.edges[:, 1]
        assert 0 < ps.size <= factor.nnz
        assert ps[0] >= parts[7].src_start
        assert np.array_equal(block.edge_triangles, stats.edge_values(ps, qs))
        assert np.array_equal(truss.edge_trussness_at(block.a_pos, block.b_pos),
                              truss.edge_trussness_batch(ps, qs))
