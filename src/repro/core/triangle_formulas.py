"""Kronecker formulas for undirected triangle participation (Thms. 1-2, Cors. 1-2).

These are the paper's headline results: for ``C = A ⊗ B`` with undirected
factors, the triangle participation at every vertex and at every edge of the
(possibly trillion-edge) product is an explicit Kronecker combination of
small per-factor quantities:

=============================  =====================================================
Self-loop situation            Formula
=============================  =====================================================
neither factor has loops       ``t_C = 2 t_A ⊗ t_B``,  ``Δ_C = Δ_A ⊗ Δ_B``
loops in ``B`` only            ``t_C = t_A ⊗ diag(B³)``, ``Δ_C = Δ_A ⊗ (B ∘ B²)``
loops in ``A`` only            ``t_C = diag(A³) ⊗ t_B``, ``Δ_C = (A ∘ A²) ⊗ Δ_B``
loops in both factors          the general expansions of Section III.B/III.C
=============================  =====================================================

The general expansions (which reduce to all special cases) are

.. math::

    t_C = \\tfrac12\\bigl[\\mathrm{diag}(A^3)\\otimes\\mathrm{diag}(B^3)
        - 2\\,\\mathrm{diag}(A^2 D_A)\\otimes\\mathrm{diag}(B^2 D_B)
        - \\mathrm{diag}(A D_A A)\\otimes\\mathrm{diag}(B D_B B)
        + 2\\,\\mathrm{diag}(D_A)\\otimes\\mathrm{diag}(D_B)\\bigr],

    Δ_C = (A∘A^2)\\otimes(B∘B^2) - (D_A A)\\otimes(D_B B) - (A D_A)\\otimes(B D_B)
        + 2 D_A\\otimes D_B - (D_A∘A^2)\\otimes(D_B∘B^2),

with ``D_X = I ∘ X`` the self-loop diagonal of factor ``X``.

Besides the dense/sparse "full product" evaluators, the module exposes a lazy
:class:`KroneckerTriangleStats` object that stores only per-factor component
vectors/matrices and answers point queries, totals and histograms without
ever allocating length-``n_C`` arrays — this is the object a distributed
generator would ship alongside the compressed graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.core.index_maps import factor_indices
from repro.graphs.adjacency import Graph, hadamard, to_csr
from repro.perf.kernels import csr_gather, csr_gather_entries
from repro.triangles.linear_algebra import edge_triangles, vertex_triangles

__all__ = [
    "diag_of_cube",
    "self_loop_case",
    "thm1_vertex_triangles",
    "cor1_vertex_triangles",
    "thm2_edge_triangles",
    "cor2_edge_triangles",
    "kron_vertex_triangles",
    "kron_edge_triangles",
    "kron_triangle_count",
    "kron_vertex_triangles_at",
    "kron_edge_triangles_at",
    "KroneckerTriangleStats",
]


# ---------------------------------------------------------------------------
# Per-factor ingredient vectors / matrices
# ---------------------------------------------------------------------------
def diag_of_cube(graph: Union[Graph, sp.spmatrix]) -> np.ndarray:
    """``diag(A³)`` as a dense vector, without forming ``A³``.

    Uses ``diag(A³) = (A ∘ (A²)ᵗ) 1`` which needs a single sparse product.
    Self loops are **kept** — this is the raw quantity appearing in
    Corollary 1 and Theorems 4/6.
    """
    adj = graph.adjacency if isinstance(graph, Graph) else sp.csr_matrix(graph)
    squared = (adj @ adj).T.tocsr()
    masked = hadamard(adj, squared)
    return np.asarray(masked.sum(axis=1)).ravel().astype(np.int64)


def _loop_matrix(adj: sp.csr_matrix) -> sp.csr_matrix:
    """``D_A = I ∘ A`` — the diagonal matrix of self loops."""
    return sp.diags(adj.diagonal(), format="csr", dtype=np.int64)


def _vertex_components(factor_a: Graph, factor_b: Graph) -> List[Tuple[float, np.ndarray, np.ndarray]]:
    """Per-factor components ``(coef, x_A, x_B)`` with ``t_C = Σ coef · x_A ⊗ x_B``."""
    comps: List[Tuple[float, np.ndarray, np.ndarray]] = []
    per_factor = []
    for factor in (factor_a, factor_b):
        adj = factor.adjacency
        loops = (adj.diagonal() != 0).astype(np.int64)
        diag_cube = diag_of_cube(factor)
        # diag(A² D_A)_i = (A²)_ii · s_i ; (A²)_ii = Σ_j A_ij A_ji = (A ∘ Aᵗ) 1.
        diag_sq = np.asarray(hadamard(adj, adj.T).sum(axis=1)).ravel().astype(np.int64)
        diag_sq_loop = diag_sq * loops
        # diag(A D_A A)_i = Σ_j A_ij s_j A_ji = ((A ∘ Aᵗ) s)_i.
        diag_mid_loop = np.asarray(hadamard(adj, adj.T) @ loops).ravel().astype(np.int64)
        per_factor.append((diag_cube, diag_sq_loop, diag_mid_loop, loops))
    (a3, a2d, adxa, sa), (b3, b2d, bdxb, sb) = per_factor
    comps.append((0.5, a3, b3))
    comps.append((-1.0, a2d, b2d))
    comps.append((-0.5, adxa, bdxb))
    comps.append((1.0, sa.astype(np.int64), sb.astype(np.int64)))
    return comps


def _edge_components(factor_a: Graph, factor_b: Graph) -> List[Tuple[int, sp.csr_matrix, sp.csr_matrix]]:
    """Per-factor components ``(coef, M_A, M_B)`` with ``Δ_C = Σ coef · M_A ⊗ M_B``."""
    per_factor = []
    for factor in (factor_a, factor_b):
        adj = factor.adjacency
        loop_mat = _loop_matrix(adj)
        squared = (adj @ adj).tocsr()
        masked = hadamard(adj, squared)          # A ∘ A²
        loop_rows = (loop_mat @ adj).tocsr()     # D_A A
        loop_cols = (adj @ loop_mat).tocsr()     # A D_A
        loop_masked = hadamard(loop_mat, squared)  # D_A ∘ A²
        components = (masked, loop_rows, loop_cols, loop_mat, loop_masked)
        for mat in components:
            # Canonicalize once here so the batched point-query gathers on
            # these (long-lived, shared) matrices never have to copy.
            mat.sum_duplicates()
        per_factor.append(components)
    return list(zip((1, -1, -1, 2, -1), *per_factor))


def _entry_components(edge_components, factor_a: Graph, factor_b: Graph
                      ) -> Tuple[Tuple[int, np.ndarray, np.ndarray], ...]:
    """Each edge component ``(coef, M_A, M_B)`` as ``(coef, v_A, v_B)``, its
    matrices at every stored entry of ``A`` and of ``B`` in the CSR order
    :class:`~repro.core.KroneckerGraph` enumerates.  Each ``M_X`` lies on
    the support of ``X``, so ``Δ_C = Σ coef · v_A[a] · v_B[b]`` at the row of
    entries ``(a, b)``.  Components all zero on either side are dropped
    (with loop-free factors only ``(A∘A²) ⊗ (B∘B²)`` remains)."""
    support_a, support_b = to_csr(factor_a.adjacency), to_csr(factor_b.adjacency)
    out = []
    for coef, ma, mb in edge_components:
        va, vb = csr_gather_entries(ma, support_a), csr_gather_entries(mb, support_b)
        if va.any() and vb.any():
            out.append((coef, va, vb))
    return tuple(out)


def self_loop_case(factor_a: Graph, factor_b: Graph) -> str:
    """Classify the factor pair: ``"none"``, ``"b_only"``, ``"a_only"``, or ``"both"``."""
    a_loops = factor_a.has_self_loops
    b_loops = factor_b.has_self_loops
    if not a_loops and not b_loops:
        return "none"
    if not a_loops and b_loops:
        return "b_only"
    if a_loops and not b_loops:
        return "a_only"
    return "both"


def _edge_census_point_query(a_counts, b_masked: sp.csr_matrix, n_b: int, p, q):
    """Shared batched kernel for the per-type edge censuses (Thms. 5 and 7).

    Evaluates ``Δ^(τ)_C[p, q] = Δ^(τ)_A[i, j] · (B ∘ B²)[k, l]`` for every
    type in *a_counts* with one vectorized CSR gather per side; used by the
    directed and labeled ``kron_*_edge_triangles_at`` front-ends.
    """
    scalar_input = np.isscalar(p) and np.isscalar(q)
    i, k = factor_indices(np.asarray(p, dtype=np.int64), n_b)
    j, l = factor_indices(np.asarray(q, dtype=np.int64), n_b)
    b_vals = np.asarray(csr_gather(b_masked, k, l), dtype=np.int64)
    out = {}
    for key, mat in a_counts.items():
        value = np.asarray(csr_gather(mat, i, j), dtype=np.int64) * b_vals
        out[key] = int(value) if scalar_input else value
    return out


def _require_undirected(factor_a: Graph, factor_b: Graph) -> None:
    for name, factor in (("A", factor_a), ("B", factor_b)):
        if not isinstance(factor, Graph):
            raise TypeError(f"factor {name} must be an undirected Graph, got {type(factor)!r}")


# ---------------------------------------------------------------------------
# Named theorem/corollary evaluators (with precondition checks)
# ---------------------------------------------------------------------------
def thm1_vertex_triangles(factor_a: Graph, factor_b: Graph) -> np.ndarray:
    """Theorem 1: ``t_C = 2 t_A ⊗ t_B`` (both factors loop-free)."""
    _require_undirected(factor_a, factor_b)
    if factor_a.has_self_loops or factor_b.has_self_loops:
        raise ValueError("Theorem 1 requires both factors to have no self loops")
    return 2 * np.kron(vertex_triangles(factor_a), vertex_triangles(factor_b))


def cor1_vertex_triangles(factor_a: Graph, factor_b: Graph) -> np.ndarray:
    """Corollary 1: ``t_C = t_A ⊗ diag(B³)`` (loops allowed in ``B`` only)."""
    _require_undirected(factor_a, factor_b)
    if factor_a.has_self_loops:
        raise ValueError("Corollary 1 requires the left factor to have no self loops")
    return np.kron(vertex_triangles(factor_a), diag_of_cube(factor_b))


def thm2_edge_triangles(factor_a: Graph, factor_b: Graph) -> sp.csr_matrix:
    """Theorem 2: ``Δ_C = Δ_A ⊗ Δ_B`` (both factors loop-free)."""
    _require_undirected(factor_a, factor_b)
    if factor_a.has_self_loops or factor_b.has_self_loops:
        raise ValueError("Theorem 2 requires both factors to have no self loops")
    return sp.kron(edge_triangles(factor_a), edge_triangles(factor_b), format="csr")


def cor2_edge_triangles(factor_a: Graph, factor_b: Graph) -> sp.csr_matrix:
    """Corollary 2: ``Δ_C = Δ_A ⊗ (B ∘ B²)`` (loops allowed in ``B`` only)."""
    _require_undirected(factor_a, factor_b)
    if factor_a.has_self_loops:
        raise ValueError("Corollary 2 requires the left factor to have no self loops")
    adj_b = factor_b.adjacency
    b_masked = hadamard(adj_b, adj_b @ adj_b)
    return sp.kron(edge_triangles(factor_a), b_masked, format="csr")


# ---------------------------------------------------------------------------
# General evaluators (valid for every self-loop case)
# ---------------------------------------------------------------------------
def kron_vertex_triangles(factor_a: Graph, factor_b: Graph) -> np.ndarray:
    """Exact ``t_C`` for any combination of self loops in the undirected factors.

    Evaluates the general Section III.B expansion; for loop-free factors it
    equals Theorem 1, with loops only in ``B`` it equals Corollary 1, etc.
    The result has length ``n_A · n_B``.
    """
    _require_undirected(factor_a, factor_b)
    comps = _vertex_components(factor_a, factor_b)
    n_c = factor_a.n_vertices * factor_b.n_vertices
    total = np.zeros(n_c, dtype=np.float64)
    for coef, xa, xb in comps:
        total += coef * np.kron(xa, xb).astype(np.float64)
    out = np.rint(total).astype(np.int64)
    return out


def kron_edge_triangles(factor_a: Graph, factor_b: Graph) -> sp.csr_matrix:
    """Exact ``Δ_C`` for any combination of self loops in the undirected factors."""
    _require_undirected(factor_a, factor_b)
    comps = _edge_components(factor_a, factor_b)
    n_c = factor_a.n_vertices * factor_b.n_vertices
    total = sp.csr_matrix((n_c, n_c), dtype=np.float64)
    for coef, ma, mb in comps:
        total = total + coef * sp.kron(ma, mb, format="csr").astype(np.float64)
    total = sp.csr_matrix(total)
    total.eliminate_zeros()
    out = total.astype(np.int64)
    out.eliminate_zeros()
    out.sort_indices()
    return out


def kron_triangle_count(factor_a: Graph, factor_b: Graph) -> int:
    """Exact ``τ(C)`` from per-factor sums only (no length-``n_C`` allocation).

    Uses ``Σ (x ⊗ y) = (Σ x)(Σ y)`` on the vertex components and
    ``τ = (1/3) Σ_p t_C[p]``; for loop-free factors this reduces to the
    paper's ``τ(C) = 6 τ(A) τ(B)``.
    """
    _require_undirected(factor_a, factor_b)
    comps = _vertex_components(factor_a, factor_b)
    total = 0.0
    for coef, xa, xb in comps:
        total += coef * float(xa.sum()) * float(xb.sum())
    total_int = int(round(total))
    if total_int % 3 != 0:  # pragma: no cover - formula always yields 3τ
        raise ArithmeticError("Kronecker vertex triangle sum is not a multiple of 3")
    return total_int // 3


def kron_vertex_triangles_at(
    factor_a: Graph, factor_b: Graph, p: Union[int, np.ndarray]
) -> Union[int, np.ndarray]:
    """Triangle participation of selected product vertices without full vectors."""
    stats = KroneckerTriangleStats.from_factors(factor_a, factor_b)
    return stats.vertex_value(p)


def kron_edge_triangles_at(
    factor_a: Graph,
    factor_b: Graph,
    p: Union[int, np.ndarray],
    q: Union[int, np.ndarray],
) -> Union[int, np.ndarray]:
    """Triangle participation of one or many product edges ``(p, q)``."""
    stats = KroneckerTriangleStats.from_factors(factor_a, factor_b)
    if np.isscalar(p) and np.isscalar(q):
        return stats.edge_value(int(p), int(q))
    return stats.edge_values(p, q)


# ---------------------------------------------------------------------------
# Lazy statistics object
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class KroneckerTriangleStats:
    """Ground-truth triangle statistics of ``C = A ⊗ B`` in factored form.

    Stores only per-factor component vectors/matrices (size ``O(n_A + n_B)``
    and ``O(nnz_A + nnz_B)``), yet can answer point queries, global totals,
    and value histograms for the full product — the "validation payload" a
    large-scale generator would publish next to the compressed graph.
    ``entry_components`` are the edge components over the factors' stored
    entries, which :meth:`edge_values_at` indexes by entry position.
    """

    n_factor_b: int
    vertex_components: Tuple[Tuple[float, np.ndarray, np.ndarray], ...]
    edge_components: Tuple[Tuple[int, sp.csr_matrix, sp.csr_matrix], ...]
    entry_components: Tuple[Tuple[int, np.ndarray, np.ndarray], ...]

    @classmethod
    def from_factors(cls, factor_a: Graph, factor_b: Graph) -> "KroneckerTriangleStats":
        """Build the factored statistics from two undirected factors."""
        _require_undirected(factor_a, factor_b)
        edge_components = tuple(_edge_components(factor_a, factor_b))
        return cls(
            n_factor_b=factor_b.n_vertices,
            vertex_components=tuple(_vertex_components(factor_a, factor_b)),
            edge_components=edge_components,
            entry_components=_entry_components(edge_components, factor_a, factor_b),
        )

    # -- vertex side ----------------------------------------------------
    def vertex_value(self, p: Union[int, np.ndarray]) -> Union[int, np.ndarray]:
        """``t_C[p]`` for a scalar or array of product vertex ids."""
        i = np.asarray(p, dtype=np.int64) // self.n_factor_b
        k = np.asarray(p, dtype=np.int64) % self.n_factor_b
        total = np.zeros(np.shape(i), dtype=np.float64)
        for coef, xa, xb in self.vertex_components:
            total = total + coef * xa[i].astype(np.float64) * xb[k].astype(np.float64)
        out = np.rint(total).astype(np.int64)
        return out if isinstance(p, np.ndarray) else int(out)

    def vertex_array(self) -> np.ndarray:
        """The full ``t_C`` vector (length ``n_A · n_B``); allocate with care."""
        n_a = self.vertex_components[0][1].shape[0]
        total = np.zeros(n_a * self.n_factor_b, dtype=np.float64)
        for coef, xa, xb in self.vertex_components:
            total += coef * np.kron(xa, xb).astype(np.float64)
        return np.rint(total).astype(np.int64)

    def total_triangles(self) -> int:
        """``τ(C)`` from component sums only."""
        total = 0.0
        for coef, xa, xb in self.vertex_components:
            total += coef * float(xa.sum()) * float(xb.sum())
        return int(round(total)) // 3

    def vertex_histogram(self) -> Dict[int, int]:
        """Histogram ``{triangle count: number of product vertices}``.

        Product vertices are all pairs ``(i, k)``, so the histogram is the
        convolution of the per-factor component tabulations
        (:func:`_pair_histogram`).
        """
        return _pair_histogram(self.vertex_components)

    # -- edge side --------------------------------------------------------
    def edge_value(self, p: int, q: int) -> int:
        """``Δ_C[p, q]`` for a single product edge.

        Scalar reference implementation; batches should always go through
        :meth:`edge_values`, which evaluates the same components with
        vectorized CSR gathers.
        """
        i, k = int(p) // self.n_factor_b, int(p) % self.n_factor_b
        j, l = int(q) // self.n_factor_b, int(q) % self.n_factor_b
        total = 0.0
        for coef, ma, mb in self.edge_components:
            total += coef * float(csr_gather(ma, i, j)) * float(csr_gather(mb, k, l))
        return int(round(total))

    def edge_values(self, ps: np.ndarray, qs: np.ndarray) -> np.ndarray:
        """``Δ_C[ps[t], qs[t]]`` for a whole batch of product edges at once.

        The vectorized sibling of :meth:`edge_value`: every component pair is
        evaluated with one :func:`~repro.perf.kernels.csr_gather` per factor —
        a simultaneous binary search over the factor CSR arrays — so the cost
        is ``O(batch · log nnz_factor)`` with no per-edge Python loop.  This
        is the kernel behind ``generate_rank_edges(..., with_statistics=True)``.
        """
        ps = np.asarray(ps, dtype=np.int64)
        qs = np.asarray(qs, dtype=np.int64)
        i, k = factor_indices(ps, self.n_factor_b)
        j, l = factor_indices(qs, self.n_factor_b)
        total = np.zeros(np.broadcast_shapes(ps.shape, qs.shape), dtype=np.float64)
        for coef, ma, mb in self.edge_components:
            a_vals = np.asarray(csr_gather(ma, i, j), dtype=np.float64)
            b_vals = np.asarray(csr_gather(mb, k, l), dtype=np.float64)
            total += coef * a_vals * b_vals
        return np.rint(total).astype(np.int64)

    def edge_values_at(self, a_pos: np.ndarray, b_pos: np.ndarray) -> np.ndarray:
        """``Δ_C`` at the product rows of factor entry positions *a_pos* and
        *b_pos* (:meth:`~repro.core.KroneckerGraph.iter_entry_blocks`), equal
        to :meth:`edge_values` on those rows: two reads per entry component,
        no search, and integer coefficients keep the sum in ``int64``."""
        total = np.zeros(np.broadcast_shapes(np.shape(a_pos), np.shape(b_pos)),
                         dtype=np.int64)
        for coef, va, vb in self.entry_components:
            total += coef * va[a_pos] * vb[b_pos]
        return total

    def edge_matrix(self) -> sp.csr_matrix:
        """The full ``Δ_C`` matrix; allocate with care (``nnz ≈ nnz_A · nnz_B``)."""
        total = None
        for coef, ma, mb in self.edge_components:
            term = coef * sp.kron(ma, mb, format="csr").astype(np.float64)
            total = term if total is None else total + term
        out = sp.csr_matrix(total)
        out.eliminate_zeros()
        out = out.astype(np.int64)
        out.eliminate_zeros()
        out.sort_indices()
        return out

    def edge_histogram(self) -> Dict[int, int]:
        """Histogram ``{triangle count: number of directed product edges}``
        over the non-zero counts.

        Product edges are all pairs of an ``A`` entry and a ``B`` entry, so
        this is the convolution of the per-entry component vectors
        (:func:`_pair_histogram`), without the zero bin.
        """
        if not self.entry_components:
            return {}
        hist = _pair_histogram(self.entry_components)
        hist.pop(0, None)
        return hist


def _pair_histogram(components) -> Dict[int, int]:
    """``{value: count}`` of ``Σ coef · x_A[a] · x_B[b]`` over every index
    pair ``(a, b)`` of the component vectors ``(coef, x_A, x_B)``.

    The distinct per-factor component-value tuples are tabulated with their
    multiplicity, every ``(A-tuple, B-tuple)`` pair is combined in one outer
    product, and the values are tabulated with ``np.unique`` — no Python
    double loop.  The distinct tuples stay few for real factors.
    """
    coefs = np.asarray([c for c, _, _ in components], dtype=np.float64)
    a_unique, a_counts = np.unique(np.stack([xa for _, xa, _ in components], axis=1),
                                   axis=0, return_counts=True)
    b_unique, b_counts = np.unique(np.stack([xb for _, _, xb in components], axis=1),
                                   axis=0, return_counts=True)
    values = np.rint(
        np.einsum("c,rc,sc->rs", coefs,
                  a_unique.astype(np.float64), b_unique.astype(np.float64))
    ).astype(np.int64)
    multiplicities = np.multiply.outer(a_counts.astype(np.int64), b_counts.astype(np.int64))
    uniq, inverse = np.unique(values.ravel(), return_inverse=True)
    sums = np.zeros(uniq.shape[0], dtype=np.int64)
    np.add.at(sums, inverse, multiplicities.ravel())
    return {int(v): int(c) for v, c in zip(uniq, sums)}
