"""Tests for Theorem 3: Kronecker transfer of the truss decomposition."""

import numpy as np
import pytest

from repro import generators
from repro.core import (
    KroneckerGraph,
    check_truss_factor_assumptions,
    kron_truss_decomposition,
)
from repro.truss import truss_decomposition


@pytest.fixture
def factor_a():
    """Scale-free left factor with a non-trivial truss structure."""
    return generators.webgraph_like(40, edges_per_vertex=3, triad_probability=0.7, seed=41)


@pytest.fixture
def factor_b():
    """Right factor satisfying Δ_B ≤ 1 (Theorem 3 hypothesis)."""
    return generators.triangle_constrained_pa(18, seed=42)


class TestAssumptions:
    def test_accepts_valid_pair(self, factor_a, factor_b):
        check_truss_factor_assumptions(factor_a, factor_b)

    def test_rejects_delta_b_greater_than_one(self, factor_a, k5):
        with pytest.raises(ValueError):
            check_truss_factor_assumptions(factor_a, k5)

    def test_rejects_self_loops(self, factor_b):
        looped = generators.looped_clique(4)
        with pytest.raises(ValueError):
            check_truss_factor_assumptions(looped, factor_b)
        with pytest.raises(ValueError):
            check_truss_factor_assumptions(factor_b, looped)

    def test_rejects_directed_factor(self, factor_b, directed_small):
        with pytest.raises(TypeError):
            check_truss_factor_assumptions(directed_small, factor_b)

    def test_kron_truss_decomposition_enforces_assumptions(self, factor_a, k5):
        with pytest.raises(ValueError):
            kron_truss_decomposition(factor_a, k5)


class TestTransferCorrectness:
    def test_trussness_matrix_matches_direct_peeling(self, factor_a, factor_b):
        transferred = kron_truss_decomposition(factor_a, factor_b)
        product = KroneckerGraph(factor_a, factor_b).materialize()
        direct = truss_decomposition(product)
        assert transferred.max_truss == direct.max_truss
        assert (transferred.trussness_matrix() != direct.trussness).nnz == 0

    def test_truss_sizes_match_direct(self, factor_a, factor_b):
        transferred = kron_truss_decomposition(factor_a, factor_b)
        product = KroneckerGraph(factor_a, factor_b).materialize()
        direct = truss_decomposition(product)
        assert transferred.truss_sizes() == direct.truss_sizes()

    def test_edge_trussness_point_queries(self, factor_a, factor_b):
        transferred = kron_truss_decomposition(factor_a, factor_b)
        product = KroneckerGraph(factor_a, factor_b).materialize()
        direct = truss_decomposition(product)
        coo = direct.trussness.tocoo()
        rng = np.random.default_rng(1)
        picks = rng.choice(coo.nnz, size=min(40, coo.nnz), replace=False)
        for idx in picks:
            p, q = int(coo.row[idx]), int(coo.col[idx])
            assert transferred.edge_trussness(p, q) == int(coo.data[idx])

    def test_trussness_at_entry_positions(self, factor_a, factor_b):
        """Every product row, addressed by its factor entry positions,
        reads the same trussness as edge_trussness_batch."""
        transferred = kron_truss_decomposition(factor_a, factor_b)
        product = KroneckerGraph(factor_a, factor_b)
        src, a_pos, b_pos = (np.concatenate(parts) for parts in
                             zip(*product.iter_entry_blocks(a_edges_per_block=4)))
        dst = product.entry_destinations(a_pos, b_pos)
        assert np.array_equal(transferred.edge_trussness_at(a_pos, b_pos),
                              transferred.edge_trussness_batch(src, dst))

    def test_nonexistent_edge_trussness_zero(self, factor_a, factor_b):
        transferred = kron_truss_decomposition(factor_a, factor_b)
        # A vertex paired with itself is never an edge (no self loops anywhere).
        assert transferred.edge_trussness(0, 0) == 0

    def test_triangle_free_b_gives_trivial_decomposition(self, factor_a):
        b = generators.cycle_graph(6)  # triangle-free, Δ_B = 0 ≤ 1
        transferred = kron_truss_decomposition(factor_a, b)
        assert transferred.max_truss == 2
        assert transferred.truss_sizes() == {}
        product = KroneckerGraph(factor_a, b).materialize()
        direct = truss_decomposition(product)
        assert direct.truss_sizes() == {}

    def test_smaller_random_pair(self):
        a = generators.erdos_renyi(12, 0.35, seed=44)
        b = generators.triangle_constrained_pa(10, seed=45)
        transferred = kron_truss_decomposition(a, b)
        product = KroneckerGraph(a, b).materialize()
        direct = truss_decomposition(product)
        assert (transferred.trussness_matrix() != direct.trussness).nnz == 0


class TestGeneratorWorkflow:
    def test_generate_graph_with_known_truss_decomposition(self, factor_a, factor_b):
        """The paper's contribution (e): emit a large graph plus its exact truss classes."""
        transferred = kron_truss_decomposition(factor_a, factor_b)
        sizes = transferred.truss_sizes()
        assert sizes, "factor pair should produce a non-trivial decomposition"
        # Size identity: |T(κ)_C| = 2 |T(κ)_A| |T(3)_B| (undirected counts).
        from repro.truss import truss_decomposition as direct_decomp

        sizes_a = direct_decomp(factor_a).truss_sizes()
        b_triangle_edges = transferred.b_triangle_edges.nnz // 2
        for k, size in sizes.items():
            assert size == 2 * sizes_a[k] * b_triangle_edges

    def test_reduce_to_delta_le_one_enables_transfer(self):
        """Strategy (a): reducing an arbitrary graph makes it a valid right factor."""
        raw = generators.webgraph_like(30, seed=46)
        reduced = generators.reduce_to_delta_le_one(raw)
        a = generators.erdos_renyi(10, 0.4, seed=47)
        transferred = kron_truss_decomposition(a, reduced)
        product = KroneckerGraph(a, reduced).materialize()
        direct = truss_decomposition(product)
        assert (transferred.trussness_matrix() != direct.trussness).nnz == 0

    def test_example2_violates_hypothesis(self, hub_cycle):
        """Example 2 (hub-cycle ⊗ hub-cycle) is exactly the case Theorem 3 excludes."""
        with pytest.raises(ValueError):
            kron_truss_decomposition(hub_cycle, hub_cycle)
