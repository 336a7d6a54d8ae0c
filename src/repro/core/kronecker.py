"""The implicit Kronecker product graph ``C = A ⊗ B``.

This is the generator object of the paper: the product graph is *never*
stored explicitly — it is fully described by its two small factors, which is
what makes trillion-edge benchmark graphs shareable and their ground-truth
statistics computable.  :class:`KroneckerGraph` supports

* index bookkeeping between product vertices and factor-vertex pairs,
* local queries (degree, neighbours, edge membership, induced subgraphs /
  egonets) that touch only factor rows,
* full materialization via ``scipy.sparse.kron`` for validation at small
  scale, with an explicit size guard, and
* vertex-label inheritance from the left factor (Section V construction).

The closed-form statistics themselves (degrees, triangle participation,
directed/labeled censuses, truss classes) live in the sibling ``*_formulas``
modules and are re-exported on this class as convenience methods.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.core import index_maps
from repro.graphs.adjacency import Graph, hadamard, to_csr
from repro.graphs.directed import DirectedGraph
from repro.graphs.labeled import VertexLabeledGraph
from repro.perf.kernels import csr_has_entry, ragged_range

__all__ = ["KroneckerGraph"]

FactorType = Union[Graph, DirectedGraph, VertexLabeledGraph]

#: Refuse to materialize products with more stored entries than this unless
#: the caller explicitly raises the limit.
DEFAULT_MATERIALIZE_LIMIT = 50_000_000


class KroneckerGraph:
    """The (implicit) Kronecker product graph of two factor graphs.

    Parameters
    ----------
    factor_a, factor_b:
        The left and right factors.  Any mix of :class:`Graph`,
        :class:`DirectedGraph` and :class:`VertexLabeledGraph` is accepted;
        the product is undirected exactly when both factor adjacency matrices
        are symmetric.  When ``factor_a`` is vertex-labeled the product
        inherits its labels (``f_C(p) = f_A(p // n_B)``).
    name:
        Optional human-readable name (defaults to ``"A⊗B"`` built from the
        factor names).
    """

    __slots__ = ("factor_a", "factor_b", "_adj_a", "_adj_b", "name")

    def __init__(self, factor_a: FactorType, factor_b: FactorType, *, name: str = ""):
        self.factor_a = factor_a
        self.factor_b = factor_b
        self._adj_a = to_csr(factor_a.adjacency)
        self._adj_b = to_csr(factor_b.adjacency)
        if not name:
            a_name = factor_a.name or "A"
            b_name = factor_b.name or "B"
            name = f"{a_name}⊗{b_name}"
        self.name = name

    # ------------------------------------------------------------------
    # Size bookkeeping
    # ------------------------------------------------------------------
    @property
    def n_factor_a(self) -> int:
        """Number of vertices of the left factor ``n_A``."""
        return self._adj_a.shape[0]

    @property
    def n_factor_b(self) -> int:
        """Number of vertices of the right factor ``n_B``."""
        return self._adj_b.shape[0]

    @property
    def n_vertices(self) -> int:
        """``n_C = n_A · n_B``."""
        return self.n_factor_a * self.n_factor_b

    @property
    def nnz(self) -> int:
        """Stored non-zeros of ``C``: ``nnz(A) · nnz(B)`` (directed edge count)."""
        return self._adj_a.nnz * self._adj_b.nnz

    @property
    def n_self_loops(self) -> int:
        """Self loops of ``C``: one per pair of self-looped factor vertices."""
        loops_a = int(np.count_nonzero(self._adj_a.diagonal()))
        loops_b = int(np.count_nonzero(self._adj_b.diagonal()))
        return loops_a * loops_b

    @property
    def has_self_loops(self) -> bool:
        """Whether ``C`` has any self loop (requires loops in *both* factors)."""
        return self.n_self_loops > 0

    @property
    def is_undirected(self) -> bool:
        """Whether ``C`` is undirected (both factors symmetric)."""
        sym_a = (self._adj_a != self._adj_a.T).nnz == 0
        sym_b = (self._adj_b != self._adj_b.T).nnz == 0
        return sym_a and sym_b

    @property
    def n_edges(self) -> int:
        """Undirected edge count of ``C`` (unordered pairs, self loops once).

        Only meaningful for undirected products; for directed products use
        :attr:`nnz`.
        """
        if not self.is_undirected:
            raise ValueError("n_edges is defined for undirected products; use nnz")
        loops = self.n_self_loops
        return (self.nnz - loops) // 2 + loops

    @property
    def is_labeled(self) -> bool:
        """Whether the product carries vertex labels (left factor labeled)."""
        return isinstance(self.factor_a, VertexLabeledGraph)

    @property
    def n_labels(self) -> int:
        """Label-alphabet size inherited from the left factor."""
        if not self.is_labeled:
            raise ValueError("product is unlabeled (left factor has no labels)")
        return self.factor_a.n_labels

    # ------------------------------------------------------------------
    # Index maps
    # ------------------------------------------------------------------
    def factor_indices(self, p):
        """Map product vertex ``p`` (scalar or array) to ``(i, k)`` factor indices."""
        return index_maps.factor_indices(p, self.n_factor_b)

    def product_index(self, i, k):
        """Map factor pair ``(i, k)`` to the product vertex id ``i * n_B + k``."""
        return index_maps.product_index(i, k, self.n_factor_b)

    def label_of(self, p: int) -> int:
        """Inherited label of product vertex ``p`` (``f_C(p) = f_A(i(p))``)."""
        if not self.is_labeled:
            raise ValueError("product is unlabeled (left factor has no labels)")
        i, _ = self.factor_indices(int(p))
        return self.factor_a.label_of(int(i))

    def labels(self) -> np.ndarray:
        """Full label vector of the product (length ``n_C``)."""
        if not self.is_labeled:
            raise ValueError("product is unlabeled (left factor has no labels)")
        return np.repeat(self.factor_a.labels, self.n_factor_b)

    # ------------------------------------------------------------------
    # Local queries (never materialize C)
    # ------------------------------------------------------------------
    def has_edge(self, p: int, q: int) -> bool:
        """Whether ``C[p, q] = A[i(p), i(q)] · B[k(p), k(q)]`` is non-zero.

        Two binary searches on the factor ``indptr``/``indices`` arrays — no
        sparse temporaries are allocated.
        """
        i, k = self.factor_indices(int(p))
        j, l = self.factor_indices(int(q))
        return csr_has_entry(self._adj_a, i, j) and csr_has_entry(self._adj_b, k, l)

    def degree(self, p: int) -> int:
        """Degree of product vertex ``p`` (self loop excluded), from factor rows.

        Row sum of ``C`` at ``p`` is ``rowsum_A(i) · rowsum_B(k)``; a self loop
        exists only when both factor vertices have one and contributes one.
        The self-loop probe is a direct ``indptr``/``indices`` lookup.
        """
        i, k = self.factor_indices(int(p))
        row_a = int(self._adj_a.indptr[i + 1] - self._adj_a.indptr[i])
        row_b = int(self._adj_b.indptr[k + 1] - self._adj_b.indptr[k])
        loop = int(csr_has_entry(self._adj_a, i, i) and csr_has_entry(self._adj_b, k, k))
        return row_a * row_b - loop

    def degrees(self) -> np.ndarray:
        """Full degree vector of ``C`` (length ``n_C``); see also
        :func:`repro.core.degree_formulas.kron_degrees` for the formula view."""
        row_a = np.diff(self._adj_a.indptr).astype(np.int64)
        row_b = np.diff(self._adj_b.indptr).astype(np.int64)
        loops_a = (self._adj_a.diagonal() != 0).astype(np.int64)
        loops_b = (self._adj_b.diagonal() != 0).astype(np.int64)
        return np.kron(row_a, row_b) - np.kron(loops_a, loops_b)

    def neighbors(self, p: int, *, include_self_loop: bool = False) -> np.ndarray:
        """Sorted neighbour ids of product vertex ``p`` (computed from factor rows)."""
        i, k = self.factor_indices(int(p))
        a_nbrs = self._adj_a.indices[self._adj_a.indptr[i]:self._adj_a.indptr[i + 1]]
        b_nbrs = self._adj_b.indices[self._adj_b.indptr[k]:self._adj_b.indptr[k + 1]]
        if a_nbrs.size == 0 or b_nbrs.size == 0:
            return np.zeros(0, dtype=np.int64)
        qs = (a_nbrs[:, None].astype(np.int64) * self.n_factor_b + b_nbrs[None, :]).ravel()
        qs.sort()
        if not include_self_loop:
            qs = qs[qs != p]
        return qs

    def subgraph_adjacency(self, vertices: Sequence[int]) -> sp.csr_matrix:
        """Induced adjacency of ``C`` on *vertices*, without materializing ``C``.

        Entry ``(s, t)`` equals ``A[i_s, i_t] · B[k_s, k_t]``, i.e. the
        Hadamard product of the two factor submatrices indexed by the
        factor-index arrays of the selected vertices.
        """
        ps = np.asarray(vertices, dtype=np.int64)
        if ps.size and (ps.min() < 0 or ps.max() >= self.n_vertices):
            raise IndexError("product vertex id out of range")
        i_idx, k_idx = self.factor_indices(ps)
        sub_a = self._adj_a[i_idx][:, i_idx]
        sub_b = self._adj_b[k_idx][:, k_idx]
        return hadamard(sub_a, sub_b)

    def subgraph(self, vertices: Sequence[int]) -> Graph:
        """Induced subgraph of ``C`` on *vertices* as a :class:`Graph`.

        Requires the product to be undirected (use
        :meth:`subgraph_adjacency` for directed products).
        """
        sub = self.subgraph_adjacency(vertices)
        if not self.is_undirected:
            raise ValueError("subgraph() requires an undirected product; "
                             "use subgraph_adjacency()")
        return Graph(sub, name=f"{self.name}[sub]", validate=False)

    # ------------------------------------------------------------------
    # Edge iteration / materialization
    # ------------------------------------------------------------------
    def source_offsets(self, ps) -> np.ndarray:
        """Index of each source's first row in the CSR order of ``C``, for
        sources ``0 <= p <= n_C``.

        Source ``p = i·n_B + k`` owns ``deg_A(i)·deg_B(k)`` consecutive rows
        starting at ``indptr_A[i]·nnz(B) + deg_A(i)·indptr_B[k]``;
        ``p = n_C`` gives ``nnz(C)``.  The work is per entry of *ps*:
        nothing of length ``n_C`` is built.
        """
        ps = np.asarray(ps, dtype=np.int64)
        i, k = np.divmod(ps, self.n_factor_b)
        ptr_a = self._adj_a.indptr
        first = ptr_a[i].astype(np.int64)
        # i = n_A only for p = n_C, which owns no rows.
        deg_a = ptr_a[np.minimum(i + 1, self.n_factor_a)] - first
        return first * self._adj_b.nnz + deg_a * self._adj_b.indptr[k]

    def sources_at(self, ts) -> np.ndarray:
        """The source holding row ``t`` of ``C`` (CSR order), for rows in
        ``[0, nnz(C))``: the last source whose offset is ``<= t``.

        The inverse of :meth:`source_offsets` in two binary searches over
        the factor ``indptr`` arrays: ``i`` is the last ``A`` row with
        ``indptr_A[i]·nnz(B) <= t``, then ``k`` the last ``B`` row with
        ``deg_A(i)·indptr_B[k] <= t - indptr_A[i]·nnz(B)``.
        """
        ts = np.asarray(ts, dtype=np.int64)
        ptr_a, ptr_b = self._adj_a.indptr, self._adj_b.indptr
        i = np.searchsorted(ptr_a[:-1], ts // self._adj_b.nnz, side="right") - 1
        first = ptr_a[i].astype(np.int64)
        rest = ts - first * self._adj_b.nnz
        k = np.searchsorted(ptr_b[:-1], rest // (ptr_a[i + 1] - first),
                            side="right") - 1
        return i * self.n_factor_b + k

    def _source_entries(self, sources: np.ndarray, a_lo: np.ndarray,
                        a_hi: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Rows of each source ``p = i·n_B + k`` in *sources* for the ``A``
        entries ``[a_lo, a_hi)`` of row ``i``, in ``(src, dst)`` order:
        ``(src, a_seg, seg_rows, b_pos)`` — each row's source and ``B``
        entry, and each ``(source, A entry)`` segment's entry and rows."""
        ptr_b = self._adj_b.indptr
        ks = sources % self.n_factor_b
        b_lo, b_hi = ptr_b[ks].astype(np.int64), ptr_b[ks + 1].astype(np.int64)
        a_count = a_hi - a_lo
        # One segment of deg_B(k) rows per (source, A entry) pair.
        seg_rows = np.repeat(b_hi - b_lo, a_count)
        b_pos = ragged_range(np.repeat(b_lo, a_count), np.repeat(b_hi, a_count))
        src = np.repeat(sources, a_count * (b_hi - b_lo))
        return src, ragged_range(a_lo, a_hi), seg_rows, b_pos

    def _entry_segments(self, a_edges_per_block: int, src_start: int,
                        src_stop: Optional[int]) -> Iterator[Tuple[np.ndarray, ...]]:
        """The one block enumerator: :meth:`_source_entries` of every block,
        under the bound and the hub split of :meth:`iter_entry_blocks`."""
        n = self.n_vertices
        stop = n if src_stop is None else int(src_stop)
        if not 0 <= src_start <= stop <= n:
            raise ValueError(f"source range [{src_start}, {stop}) outside [0, {n}]")
        if a_edges_per_block < 1:
            raise ValueError(f"a_edges_per_block must be >= 1, got {a_edges_per_block}")
        nnz, n_b = self.nnz, self.n_factor_b
        bound = int(a_edges_per_block) * self._adj_b.nnz
        ptr_a = self._adj_a.indptr.astype(np.int64)
        p = int(src_start)
        while p < stop:
            first = int(self.source_offsets(p))
            if first == nnz:
                return  # only sources without rows remain
            p = int(self.sources_at(first))  # skip sources without rows
            if p >= stop:
                return
            limit = first + bound
            q = min(n if limit >= nnz else int(self.sources_at(limit)),
                    stop, p + bound)
            if q > p:
                sources = np.arange(p, q, dtype=np.int64)
                rows_a = sources // n_b
                yield self._source_entries(sources, ptr_a[rows_a], ptr_a[rows_a + 1])
                p = q
            else:
                # Source p alone holds more than `bound` rows: cut its A entries.
                i, k = divmod(p, n_b)
                deg_b = int(self._adj_b.indptr[k + 1] - self._adj_b.indptr[k])
                step = max(1, bound // deg_b)
                for lo in range(int(ptr_a[i]), int(ptr_a[i + 1]), step):
                    hi = min(lo + step, int(ptr_a[i + 1]))
                    yield self._source_entries(np.asarray([p], dtype=np.int64),
                                               np.asarray([lo]), np.asarray([hi]))
                p += 1

    def iter_entry_blocks(
        self,
        *,
        a_edges_per_block: int = 1024,
        src_start: int = 0,
        src_stop: Optional[int] = None,
    ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Stream the rows of ``C`` in bounded blocks of factor entry positions.

        Each block is three ``int64`` arrays ``(src, a_pos, b_pos)``: row
        ``t`` is the product of the ``A`` entry and the ``B`` entry at those
        positions in the factors' CSR ``indices``, the edge ``(src[t],
        indices_A[a_pos[t]]·n_B + indices_B[b_pos[t]])``
        (:meth:`entry_destinations`).  So ``Σ coef · M_A ⊗ M_B`` at a row is
        two reads per component of vectors over the factor entries.

        Concatenated, the blocks are exactly the rows of ``C`` whose source
        lies in ``[src_start, src_stop)`` (default: every source), in
        strictly increasing ``(src, dst)`` order — the CSR order of
        :meth:`materialize_adjacency`.  A block holds the rows of a range of
        whole sources: at most ``bound = a_edges_per_block · nnz(B)`` rows,
        spanning at most ``bound`` sources.  A source with more than
        ``bound`` rows is split into runs of ``max(1, ⌊bound / deg_B(k)⌋)``
        of its ``A`` entries, which keeps both the order and the bound.
        Blocks without rows are not yielded.  Peak memory is one block
        regardless of ``nnz(C)``, and nothing of length ``n_C`` is built.

        This is the single-rank version of the communication-free
        distributed generation in :mod:`repro.parallel`: a rank passes its
        source range, and consecutive ranges concatenate in order.
        """
        for src, a_seg, seg_rows, b_pos in self._entry_segments(
                a_edges_per_block, src_start, src_stop):
            yield src, np.repeat(a_seg, seg_rows), b_pos

    def iter_edge_blocks(
        self,
        *,
        a_edges_per_block: int = 1024,
        src_start: int = 0,
        src_stop: Optional[int] = None,
    ) -> Iterator[np.ndarray]:
        """The ``(src, dst)`` view of :meth:`iter_entry_blocks`: the same
        blocks as ``(m, 2)`` edge arrays, the ``A`` side of ``dst`` read once
        per ``(source, A entry)`` segment and repeated over its rows."""
        cols_a, cols_b, n_b = self._adj_a.indices, self._adj_b.indices, self.n_factor_b
        for src, a_seg, seg_rows, b_pos in self._entry_segments(
                a_edges_per_block, src_start, src_stop):
            dst = np.repeat(cols_a[a_seg].astype(np.int64) * n_b, seg_rows)
            dst += cols_b[b_pos]
            yield np.stack([src, dst], axis=1)

    def entry_destinations(self, a_pos: np.ndarray, b_pos: np.ndarray) -> np.ndarray:
        """Destinations ``indices_A[a_pos]·n_B + indices_B[b_pos]`` of the
        rows at factor entry positions (:meth:`iter_entry_blocks`)."""
        return (self._adj_a.indices[a_pos].astype(np.int64) * self.n_factor_b
                + self._adj_b.indices[b_pos])

    def edges(self, *, max_nnz: int = DEFAULT_MATERIALIZE_LIMIT) -> np.ndarray:
        """All directed edges of ``C`` as an array (guarded by ``max_nnz``).

        The ``(nnz, 2)`` output is preallocated and filled block by block from
        :meth:`iter_edge_blocks`, so peak memory is one output array plus one
        block — not the doubled list-append-then-concatenate footprint.
        """
        if self.nnz > max_nnz:
            raise MemoryError(
                f"product has {self.nnz} stored entries, above the limit {max_nnz}; "
                "use iter_edge_blocks() or repro.parallel streaming instead"
            )
        out = np.empty((self.nnz, 2), dtype=np.int64)
        filled = 0
        for block in self.iter_edge_blocks():
            out[filled:filled + block.shape[0]] = block
            filled += block.shape[0]
        return out

    def materialize_adjacency(self, *, max_nnz: int = DEFAULT_MATERIALIZE_LIMIT) -> sp.csr_matrix:
        """Materialize ``C = A ⊗ B`` as a CSR matrix (guarded by ``max_nnz``)."""
        if self.nnz > max_nnz:
            raise MemoryError(
                f"product has {self.nnz} stored entries, above the limit {max_nnz}; "
                "raise max_nnz explicitly if you really want to materialize it"
            )
        return sp.kron(self._adj_a, self._adj_b, format="csr").astype(np.int64)

    def materialize(self, *, max_nnz: int = DEFAULT_MATERIALIZE_LIMIT):
        """Materialize ``C`` with the most specific graph type available.

        Returns a :class:`VertexLabeledGraph` when the product is labeled, a
        :class:`Graph` when it is undirected, and a :class:`DirectedGraph`
        otherwise.
        """
        adj = self.materialize_adjacency(max_nnz=max_nnz)
        if self.is_labeled and self.is_undirected:
            return VertexLabeledGraph(adj, self.labels(), n_labels=self.n_labels,
                                      name=self.name, validate=False)
        if self.is_undirected:
            return Graph(adj, name=self.name, validate=False)
        return DirectedGraph(adj, name=self.name)

    # ------------------------------------------------------------------
    # Convenience: formula front-ends (implemented in sibling modules)
    # ------------------------------------------------------------------
    def vertex_triangles(self) -> np.ndarray:
        """Exact triangle participation at every product vertex (Thm 1 / Cor 1 / general)."""
        from repro.core.triangle_formulas import kron_vertex_triangles

        return kron_vertex_triangles(self.factor_a, self.factor_b)

    def edge_triangles(self) -> sp.csr_matrix:
        """Exact triangle participation at every product edge (Thm 2 / Cor 2 / general)."""
        from repro.core.triangle_formulas import kron_edge_triangles

        return kron_edge_triangles(self.factor_a, self.factor_b)

    def triangle_count(self) -> int:
        """Exact total triangle count ``τ(C)`` without materializing ``C``."""
        from repro.core.triangle_formulas import kron_triangle_count

        return kron_triangle_count(self.factor_a, self.factor_b)

    def kron_degrees(self) -> np.ndarray:
        """Exact degree vector via the Kronecker degree formula."""
        from repro.core.degree_formulas import kron_degrees

        return kron_degrees(self.factor_a, self.factor_b)

    def __repr__(self) -> str:
        kind = "undirected" if self.is_undirected else "directed"
        return (
            f"KroneckerGraph({self.name!r}, {kind}, n_vertices={self.n_vertices}, "
            f"nnz={self.nnz}, factors=({self.n_factor_a}, {self.n_factor_b}))"
        )
