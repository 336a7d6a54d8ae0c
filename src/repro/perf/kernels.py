"""Batched CSR point-lookup kernels.

These primitives replace scalar ``scipy.sparse`` ``__getitem__`` calls —
which allocate a 1×1 sparse temporary per query — with vectorized binary
searches over the raw ``indptr``/``indices`` arrays.  They are the substrate
of every batched ground-truth evaluator in :mod:`repro.core` and of the
rank-parallel generator in :mod:`repro.parallel`.

All kernels treat absent entries as 0 (the adjacency-matrix convention) and
require *canonical* CSR input (sorted indices); non-canonical or non-CSR
matrices are converted once on entry.  scipy is imported where a matrix
is converted, not at module level: the shard store imports the ragged
gathers below without loading scipy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["csr_gather", "csr_gather_entries", "csr_has_entry", "ragged_range",
           "ragged_take"]

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
    import scipy.sparse as sp

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

    if rows_flat.size:  # no negative wrap: an index outside [0, n) raises
        if rows_flat.min() < 0 or rows_flat.max() >= csr.shape[0]:
            raise IndexError(f"row index out of range for shape {csr.shape}")
        if cols_flat.min() < 0 or cols_flat.max() >= csr.shape[1]:
            raise IndexError(f"column index out of range for shape {csr.shape}")
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


def ragged_range(lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
    """Concatenate ``np.arange(lefts[i], rights[i])`` ranges without a Python
    loop — the positions :func:`ragged_take` reads."""
    lengths = rights - lefts
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    # Output t, inside range i, is lefts[i] + t - (where range i starts in
    # the output).
    starts = np.cumsum(lengths) - lengths
    return np.repeat(lefts - starts, lengths) + np.arange(total)


def ragged_take(arr: np.ndarray, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
    """Concatenate ``arr[lefts[i]:rights[i]]`` slices without a Python loop."""
    positions = ragged_range(lefts, rights)
    # An empty slice: cheaper than an empty gather on a memory-mapped shard.
    return arr[positions] if positions.size else arr[:0]


def csr_gather_entries(matrix: sp.spmatrix, support: sp.csr_matrix) -> np.ndarray:
    """*matrix* at every stored entry of the canonical CSR *support*, in
    *support*'s entry order (0 where *matrix* has no entry), as ``int64``: a
    vector indexed by entry position
    (:meth:`repro.core.KroneckerGraph.iter_entry_blocks`), not searched."""
    rows = np.repeat(np.arange(support.shape[0], dtype=np.int64), np.diff(support.indptr))
    return np.asarray(csr_gather(matrix, rows, support.indices), dtype=np.int64)


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
