"""Batched CSR point-lookup kernels.

These primitives replace scalar ``scipy.sparse`` ``__getitem__`` calls —
which allocate a 1×1 sparse temporary per query — with vectorized binary
searches over the raw ``indptr``/``indices`` arrays.  They are the substrate
of every batched ground-truth evaluator in :mod:`repro.core` and of the
rank-parallel generator in :mod:`repro.parallel`.

All kernels treat absent entries as 0 (the adjacency-matrix convention) and
require *canonical* CSR input (sorted indices); non-canonical or non-CSR
matrices are converted once on entry.
"""

from __future__ import annotations

from typing import Union

import numpy as np
import scipy.sparse as sp

__all__ = ["csr_gather", "csr_has_entry", "ragged_take", "CsrGatherer"]

IndexLike = Union[int, np.ndarray]


def _sorted_has_duplicates(csr: sp.csr_matrix) -> bool:
    """Whether a sorted-indices CSR stores the same ``(row, col)`` twice."""
    if csr.nnz < 2:
        return False
    same = csr.indices[1:] == csr.indices[:-1]
    row_starts = csr.indptr[1:-1]
    row_starts = row_starts[(row_starts > 0) & (row_starts < csr.nnz)]
    same[row_starts - 1] = False  # adjacent pair spans a row boundary
    return bool(same.any())


def _as_canonical_csr(matrix: sp.spmatrix) -> sp.csr_matrix:
    """Coerce to canonical CSR (sorted indices, duplicates summed).

    Copies only when actual work is needed: scipy leaves the canonical flag
    unset on many operation results that are in fact canonical (e.g. sparse
    matmuls), so a verified-clean matrix just gets its flag set — caching the
    verdict on the object so repeated gathers skip the scan.
    """
    if not sp.issparse(matrix):
        raise TypeError(f"csr_gather expects a scipy sparse matrix, got {type(matrix)!r}")
    csr = matrix if isinstance(matrix, sp.csr_matrix) else sp.csr_matrix(matrix)
    if csr.has_canonical_format:
        return csr
    if csr.has_sorted_indices and not _sorted_has_duplicates(csr):
        csr.has_canonical_format = True
        return csr
    csr = csr.copy()
    csr.sum_duplicates()  # sorts indices and merges duplicate entries
    return csr


def _rowwise_lower_bound(
    indices: np.ndarray, starts: np.ndarray, stops: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Vectorized per-row ``searchsorted``: first position in each row slice
    ``indices[starts[t]:stops[t]]`` that is ``>= cols[t]``.

    A classic branch-free binary search run simultaneously for all queries;
    the Python ``while`` executes only ``O(log max_row_nnz)`` iterations,
    never once per query.
    """
    lo = starts.astype(np.int64, copy=True)
    hi = stops.astype(np.int64, copy=True)
    active = lo < hi
    while active.any():
        mid = (lo + hi) >> 1
        probe = np.zeros(lo.shape, dtype=bool)
        probe[active] = indices[mid[active]] < cols[active]
        go_right = active & probe
        lo = np.where(go_right, mid + 1, lo)
        hi = np.where(active & ~probe, mid, hi)
        active = lo < hi
    return lo


def _validate_indices(rows_flat: np.ndarray, cols_flat: np.ndarray, shape) -> None:
    """Raise ``IndexError`` for any index outside ``[0, n)`` (no negative wrap)."""
    n_rows, n_cols = shape
    if rows_flat.size:
        if rows_flat.min() < 0 or rows_flat.max() >= n_rows:
            raise IndexError(f"row index out of range for shape {tuple(shape)}")
        if cols_flat.min() < 0 or cols_flat.max() >= n_cols:
            raise IndexError(f"column index out of range for shape {tuple(shape)}")


def csr_gather(matrix: sp.spmatrix, rows: IndexLike, cols: IndexLike) -> Union[int, float, np.ndarray]:
    """Vectorized point lookup ``matrix[rows[t], cols[t]]`` with zeros for absent entries.

    Parameters
    ----------
    matrix:
        Any scipy sparse matrix; converted to canonical CSR once.
    rows, cols:
        Integer scalars or arrays (broadcast against each other).  Out-of-range
        indices raise ``IndexError``.

    Returns
    -------
    An array of ``matrix.dtype`` with the broadcast shape of ``rows``/``cols``;
    when both inputs are Python scalars, a Python scalar.

    Notes
    -----
    Runs one simultaneous binary search over the CSR ``indices`` within each
    queried row slice — ``O(q · log max_row_nnz)`` total work with no
    per-query Python loop and no sparse temporaries.  This is the batched
    sibling of scalar ``matrix[i, j]`` and the kernel behind
    ``KroneckerTriangleStats.edge_values``.
    """
    csr = _as_canonical_csr(matrix)
    scalar_input = np.isscalar(rows) and np.isscalar(cols)
    rows_arr = np.asarray(rows, dtype=np.int64)
    cols_arr = np.asarray(cols, dtype=np.int64)
    shape = np.broadcast_shapes(rows_arr.shape, cols_arr.shape)
    rows_flat = np.broadcast_to(rows_arr, shape).ravel()
    cols_flat = np.broadcast_to(cols_arr, shape).ravel()

    _validate_indices(rows_flat, cols_flat, csr.shape)
    out = np.zeros(rows_flat.shape, dtype=csr.dtype)
    if csr.nnz and rows_flat.size:
        starts = csr.indptr[rows_flat]
        stops = csr.indptr[rows_flat + 1]
        pos = _rowwise_lower_bound(csr.indices, starts, stops, cols_flat)
        in_row = pos < stops
        safe = np.where(in_row, pos, 0)
        hit = in_row & (csr.indices[safe] == cols_flat)
        out[hit] = csr.data[pos[hit]]
    out = out.reshape(shape)
    if scalar_input:
        return out.item()
    return out


def ragged_take(arr: np.ndarray, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
    """Concatenate ``arr[lefts[i]:rights[i]]`` slices without a Python loop."""
    lengths = rights - lefts
    total = int(lengths.sum())
    if total == 0:
        return arr[:0]
    # Output row t, inside slice i, is arr[lefts[i] + t - (where slice i
    # starts in the output)].
    starts = np.cumsum(lengths) - lengths
    return arr[np.repeat(lefts - starts, lengths) + np.arange(total)]


def csr_has_entry(matrix: sp.csr_matrix, row: int, col: int) -> bool:
    """Whether ``matrix[row, col]`` is a stored entry — no sparse temporary.

    The scalar fast path used by ``Graph.has_edge`` and the
    ``KroneckerGraph`` self-loop probes; a single ``searchsorted`` on the
    row's index slice.  *matrix* must be canonical CSR (sorted indices).
    Indices must be in ``[0, n)`` — negative indices raise ``IndexError``
    rather than silently wrapping or answering ``False``.
    """
    n_rows, n_cols = matrix.shape
    if not (0 <= row < n_rows and 0 <= col < n_cols):
        raise IndexError(f"index ({row}, {col}) out of range for shape {matrix.shape}")
    start, stop = int(matrix.indptr[row]), int(matrix.indptr[row + 1])
    if start == stop:
        return False
    pos = int(np.searchsorted(matrix.indices[start:stop], col))
    return pos < stop - start and int(matrix.indices[start + pos]) == int(col)


class CsrGatherer:
    """Reusable batched point lookup on one CSR matrix.

    Precomputes the globally sorted row-major key array
    ``key = row · n_cols + col`` over the stored entries, after which every
    batch of queries is a single ``np.searchsorted`` — amortizing the
    ``O(nnz)`` setup across many gathers on the same matrix (e.g. one factor
    component queried by every rank of a generation run).
    """

    __slots__ = ("_csr", "_keys", "_n_cols")

    def __init__(self, matrix: sp.spmatrix):
        self._csr = _as_canonical_csr(matrix)
        n_rows, n_cols = self._csr.shape
        row_of_entry = np.repeat(
            np.arange(n_rows, dtype=np.int64), np.diff(self._csr.indptr)
        )
        # Row-major keys of a sorted-indices CSR are globally sorted.
        self._keys = row_of_entry * np.int64(n_cols) + self._csr.indices.astype(np.int64)
        self._n_cols = np.int64(n_cols)

    @property
    def matrix(self) -> sp.csr_matrix:
        """The canonical CSR matrix the gatherer answers queries for."""
        return self._csr

    def gather(self, rows: IndexLike, cols: IndexLike) -> np.ndarray:
        """``matrix[rows[t], cols[t]]`` as an array (0 for absent entries).

        Out-of-range indices raise ``IndexError`` (they would otherwise alias
        a different entry through the row-major key arithmetic).
        """
        rows_arr = np.asarray(rows, dtype=np.int64)
        cols_arr = np.asarray(cols, dtype=np.int64)
        shape = np.broadcast_shapes(rows_arr.shape, cols_arr.shape)
        rows_flat = np.broadcast_to(rows_arr, shape).ravel()
        cols_flat = np.broadcast_to(cols_arr, shape).ravel()
        _validate_indices(rows_flat, cols_flat, self._csr.shape)
        queries = rows_flat * self._n_cols + cols_flat
        out = np.zeros(queries.shape, dtype=self._csr.dtype)
        if self._keys.size and queries.size:
            pos = np.searchsorted(self._keys, queries)
            in_range = pos < self._keys.size
            safe = np.where(in_range, pos, 0)
            hit = in_range & (self._keys[safe] == queries)
            out[hit] = self._csr.data[pos[hit]]
        return out.reshape(shape)
