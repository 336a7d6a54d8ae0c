"""Vectorized kernel layer for batch-oriented ground-truth evaluation.

The paper's scaling story rests on every ground-truth statistic of
``C = A ⊗ B`` being a small Kronecker combination of factor-local
quantities; evaluating those combinations one product edge at a time with
scalar ``scipy`` indexing turns an O(1)-per-edge formula into a
Python-interpreter-bound loop.  This subpackage provides the batch
primitives the formula modules build on:

* :func:`~repro.perf.kernels.csr_gather` — vectorized point lookup
  ``M[rows[t], cols[t]]`` on a CSR matrix (binary search over
  ``indptr``/``indices``, no per-query Python loop);
* :func:`~repro.perf.kernels.csr_gather_entries` — a matrix at every stored
  entry of a factor: the vector a streamed payload indexes by entry position;
* :func:`~repro.perf.kernels.csr_has_entry` — scalar membership probe
  without allocating a sparse temporary;
* :func:`~repro.perf.kernels.ragged_range` / ``ragged_take`` — many
  ``lo:hi`` ranges, or ``arr[lo:hi]`` slices, concatenated as one gather.

Conventions (recorded in ROADMAP.md "Performance notes"): hot-path APIs are
batch-first — they accept index *arrays* and return value arrays — and no
per-edge Python loop is permitted between a generator and its statistics.
Streamed payloads index per-entry vectors by the enumerator's entry
positions; random-access callers use :func:`~repro.perf.kernels.csr_gather`.
"""

from repro.perf.kernels import (
    csr_gather,
    csr_gather_entries,
    csr_has_entry,
    ragged_range,
    ragged_take,
)

__all__ = ["csr_gather", "csr_gather_entries", "csr_has_entry", "ragged_range",
           "ragged_take"]
