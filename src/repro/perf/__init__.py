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
* :func:`~repro.perf.kernels.csr_has_entry` — scalar membership probe
  without allocating a sparse temporary;
* :func:`~repro.perf.kernels.ragged_take` — concatenation of many
  ``arr[lo:hi]`` slices as one gather (CSR row expansion, shard slicing);
* :class:`~repro.perf.kernels.CsrGatherer` — a reusable gatherer that
  caches the row expansion of one matrix across many batched gathers.

Conventions (recorded in ROADMAP.md "Performance notes"): hot-path APIs are
batch-first — they accept index *arrays* and return value arrays — and no
per-edge Python loop is permitted between a generator and its statistics.
"""

from repro.perf.kernels import CsrGatherer, csr_gather, csr_has_entry, ragged_take

__all__ = ["csr_gather", "csr_has_entry", "ragged_take", "CsrGatherer"]
