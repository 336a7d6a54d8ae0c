"""Kronecker truss decomposition under the Theorem 3 assumptions.

Example 2 of the paper shows that the truss decomposition of ``C = A ⊗ B``
does **not** follow from the factor decompositions in general (the hub-cycle
square has a 4-truss even though neither factor does).  Theorem 3 identifies
a sufficient condition on the right factor — every edge of ``B`` participates
in at most one triangle (``Δ_B ≤ 1``) — under which the decomposition
transfers exactly:

    ``(p, q) ∈ T(κ)_C``  ⟺  ``(i, j) ∈ T(κ)_A`` and ``(k, l) ∈ T(3)_B``,

with ``(i, k) / (j, l)`` the factor indices of ``p / q``.  Equivalently, the
trussness of a product edge is the trussness of its ``A``-side edge when its
``B``-side edge lies in a triangle, and 2 otherwise.

This module checks the hypotheses, evaluates the transferred decomposition
(both lazily per edge and as a materialized trussness matrix), and exposes the
generator-side helper that pairs an arbitrary scale-free ``A`` with a
``Δ ≤ 1`` factor from :mod:`repro.generators.power_law` to produce graphs
with *known* truss decomposition — contribution (e) of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.core.index_maps import factor_indices
from repro.graphs.adjacency import Graph, hadamard, to_csr
from repro.perf.kernels import csr_gather, csr_gather_entries
from repro.triangles.linear_algebra import edge_triangles
from repro.truss.decomposition import TrussDecomposition, truss_decomposition

__all__ = [
    "check_truss_factor_assumptions",
    "KroneckerTrussDecomposition",
    "kron_truss_decomposition",
]


def check_truss_factor_assumptions(factor_a: Graph, factor_b: Graph) -> None:
    """Validate the hypotheses of Theorem 3.

    Both factors undirected and loop-free, and ``max Δ_B ≤ 1``.  Raises
    ``ValueError`` with a specific message otherwise.
    """
    for name, factor in (("A", factor_a), ("B", factor_b)):
        if not isinstance(factor, Graph):
            raise TypeError(f"factor {name} must be an undirected Graph")
        if factor.has_self_loops:
            raise ValueError(f"Theorem 3 requires factor {name} to have no self loops")
    delta_b = edge_triangles(factor_b)
    if delta_b.nnz and int(delta_b.data.max()) > 1:
        raise ValueError(
            "Theorem 3 requires every edge of B to participate in at most one "
            f"triangle, but max Δ_B = {int(delta_b.data.max())}"
        )


@dataclass(frozen=True)
class KroneckerTrussDecomposition:
    """Truss decomposition of ``C = A ⊗ B`` in factored (Theorem 3) form.

    Attributes
    ----------
    factor_a_decomposition:
        Direct truss decomposition of the left factor.
    b_triangle_edges:
        0/1 sparse matrix marking the edges of ``B`` in ``T(3)_B`` (those that
        participate in a triangle).
    b_adjacency:
        Adjacency of ``B`` (needed to distinguish "trussness 2" product edges
        from non-edges).
    n_factor_b:
        ``n_B``, for index mapping.
    a_entry_trussness, b_entry_triangles:
        ``A``'s trussness at each stored entry of ``A`` and the ``T(3)_B``
        marks at each stored entry of ``B`` (:meth:`edge_trussness_at`).
    """

    factor_a_decomposition: TrussDecomposition
    b_triangle_edges: sp.csr_matrix
    b_adjacency: sp.csr_matrix
    n_factor_b: int
    a_entry_trussness: np.ndarray
    b_entry_triangles: np.ndarray

    @property
    def max_truss(self) -> int:
        """Largest ``κ`` with a non-empty ``κ``-truss in the product.

        Equal to the factor's maximum whenever ``B`` has at least one
        triangle edge, otherwise 2.
        """
        if self.b_triangle_edges.nnz == 0:
            return 2
        return self.factor_a_decomposition.max_truss

    def edge_trussness(self, p: int, q: int) -> int:
        """Trussness of product edge ``(p, q)`` (0 when the edge does not exist)."""
        return int(self.edge_trussness_batch(np.asarray([p]), np.asarray([q]))[0])

    def edge_trussness_batch(self, ps: np.ndarray, qs: np.ndarray) -> np.ndarray:
        """Trussness of a whole batch of product edges at once.

        The vectorized sibling of :meth:`edge_trussness`: one CSR gather per
        factor-side matrix (``A`` trussness, ``B`` adjacency, ``T(3)_B``
        marks), then a branch-free combination — no per-edge Python loop.
        """
        n_b = self.n_factor_b
        i, k = factor_indices(np.asarray(ps, dtype=np.int64), n_b)
        j, l = factor_indices(np.asarray(qs, dtype=np.int64), n_b)
        a_truss = np.asarray(csr_gather(self.factor_a_decomposition.trussness, i, j),
                             dtype=np.int64)
        b_edge = np.asarray(csr_gather(self.b_adjacency, k, l), dtype=np.int64)
        b_triangle = np.asarray(csr_gather(self.b_triangle_edges, k, l), dtype=np.int64)
        return _transfer(a_truss, b_edge, b_triangle)

    def edge_trussness_at(self, a_pos: np.ndarray, b_pos: np.ndarray) -> np.ndarray:
        """Trussness at the product rows (all edges of ``C``) of factor entry
        positions *a_pos* and *b_pos*
        (:meth:`~repro.core.KroneckerGraph.iter_entry_blocks`): the rule of
        :meth:`edge_trussness_batch`, read from the entry vectors, not searched."""
        return _transfer(self.a_entry_trussness[a_pos], 1,
                         self.b_entry_triangles[b_pos])

    def trussness_matrix(self) -> sp.csr_matrix:
        """Materialized trussness matrix of the whole product (use with care).

        Entries ``>= 3`` come from the Theorem 3 transfer; remaining product
        edges carry trussness 2.
        """
        truss_a = self.factor_a_decomposition.trussness
        high_a = truss_a.copy()
        high_a.data = np.where(high_a.data >= 3, high_a.data, 0)
        high_a.eliminate_zeros()
        transferred = sp.kron(high_a, self.b_triangle_edges, format="csr")

        a_pattern = sp.csr_matrix(truss_a, copy=True)
        a_pattern.data = np.ones_like(a_pattern.data)
        support = sp.kron(a_pattern, self.b_adjacency, format="csr")
        support.data = np.ones_like(support.data)

        transferred_pattern = sp.csr_matrix(transferred, copy=True)
        transferred_pattern.data = np.ones_like(transferred_pattern.data)
        base = (support - transferred_pattern) * 2
        out = sp.csr_matrix(base + transferred)
        out.eliminate_zeros()
        out.sort_indices()
        return out.astype(np.int64)

    def truss_sizes(self) -> Dict[int, int]:
        """Undirected edge count of each product ``κ``-truss, from factor data only.

        ``|T(κ)_C| = 2 |T(κ)_A| · |T(3)_B|`` for ``κ >= 3`` (unordered-edge
        counts; both factors are loop-free so no self loops arise in the
        product).  Empty when ``B`` has no triangle edges, matching the
        direct peeling of the product.
        """
        b_triangle_edge_count = self.b_triangle_edges.nnz // 2
        if b_triangle_edge_count == 0:
            return {}
        sizes_a = self.factor_a_decomposition.truss_sizes()
        return {k: 2 * count * b_triangle_edge_count for k, count in sizes_a.items()}


def _transfer(a_truss: np.ndarray, b_edge, b_triangle: np.ndarray) -> np.ndarray:
    """Theorem 3 at product pairs: ``A``'s trussness where the ``B`` edge is
    in a triangle and that trussness is ``>= 3``, 2 otherwise, and 0 off the
    support (no ``A`` edge or no ``B`` edge)."""
    out = np.where((b_triangle != 0) & (a_truss >= 3), a_truss, 2)
    return np.where((a_truss == 0) | (b_edge == 0), 0, out)


def kron_truss_decomposition(factor_a: Graph, factor_b: Graph) -> KroneckerTrussDecomposition:
    """Theorem 3: transfer the truss decomposition of ``A`` to ``C = A ⊗ B``.

    Raises ``ValueError`` when the hypotheses (loop-free factors, ``Δ_B ≤ 1``)
    do not hold — in that case only the direct peeling of the materialized
    product (:func:`repro.truss.truss_decomposition`) is exact, as Example 2
    demonstrates.
    """
    check_truss_factor_assumptions(factor_a, factor_b)
    decomp_a = truss_decomposition(factor_a)
    delta_b = edge_triangles(factor_b)
    t3_b = sp.csr_matrix(delta_b, copy=True)
    t3_b.data = (t3_b.data >= 1).astype(np.int64)
    t3_b.eliminate_zeros()
    return KroneckerTrussDecomposition(
        factor_a_decomposition=decomp_a,
        b_triangle_edges=t3_b,
        b_adjacency=factor_b.adjacency,
        n_factor_b=factor_b.n_vertices,
        a_entry_trussness=csr_gather_entries(decomp_a.trussness,
                                             to_csr(factor_a.adjacency)),
        b_entry_triangles=csr_gather_entries(t3_b, to_csr(factor_b.adjacency)),
    )
