"""Perf — streaming rank pipeline vs. materialized per-rank generation.

Compares the two execution modes of :func:`repro.parallel.distributed_generate`
on the same factor pair and rank count:

* **materialized** — each rank allocates its whole edge slice (plus
  payloads) at once;
* **streamed** — each rank folds bounded ``a_edges_per_block × nnz(B)``
  blocks into a :class:`~repro.parallel.streaming.StreamingRankAccumulator`
  and never holds more than one block.

Reported: generation throughput (edges/s) of both modes and the peak
per-rank allocation (largest rank slice vs. largest streamed block).  In
every mode the streamed aggregates are asserted equal to the materialized
ones and validated against the closed-form factor statistics, so tier-1
cannot let the two paths diverge.

Runs in two modes:

* **smoke** — swept into the tier-1 ``pytest`` run by
  ``benchmarks/conftest.py``: small sizes, equality/validation assertions
  only;
* **full** — ``pytest -m slow benchmarks/bench_streaming.py``: the
  Section VI-scale factor pair (~450k product edges), plus the
  bounded-memory assertion that the peak streamed block is a small fraction
  of the materialized peak.
"""

from __future__ import annotations

import time

import pytest

from repro import generators
from repro.core import KroneckerTriangleStats, ValidationAccumulator
from repro.parallel import StreamingRankAccumulator, distributed_generate
from benchmarks._report import print_section

N_RANKS = 8
BLOCK = 32


def _materialized_aggregate(outputs) -> StreamingRankAccumulator:
    total = None
    for out in outputs:
        acc = StreamingRankAccumulator.from_rank_output(out)
        total = acc if total is None else total + acc
    return total


def _compare_modes(factor_a, factor_b, *, n_ranks: int, block: int, label: str):
    """Run both modes, assert agreement, and return the measured numbers."""
    start = time.perf_counter()
    outputs = distributed_generate(factor_a, factor_b, n_ranks)
    materialized_time = time.perf_counter() - start
    peak_slice = max(out.n_edges for out in outputs)

    start = time.perf_counter()
    result = distributed_generate(factor_a, factor_b, n_ranks,
                                  streaming=True, a_edges_per_block=block)
    streamed_time = time.perf_counter() - start

    n_edges = result.n_edges
    block_bound = block * factor_b.nnz
    assert result.max_block_edges <= block_bound, \
        "streamed rank held more than one block"
    assert result.total.summary() == _materialized_aggregate(outputs).summary(), \
        "streamed aggregates diverge from the materialized path"
    report = ValidationAccumulator(factor_a, factor_b,
                                   stats=result.stats).validate(result.total)
    assert report.passed, report.summary()

    print_section(f"Perf — streaming vs materialized generation ({label})")
    print(f"  product: {n_edges:,} directed edges over {n_ranks} ranks, "
          f"block = {block} A-entries")
    print(f"  materialized: {n_edges / materialized_time:,.0f} edges/s "
          f"({materialized_time * 1e3:.1f} ms), peak rank slice {peak_slice:,} edges")
    print(f"  streamed:     {n_edges / streamed_time:,.0f} edges/s "
          f"({streamed_time * 1e3:.1f} ms), peak block {result.max_block_edges:,} "
          f"edges (bound {block_bound:,})")
    return peak_slice, result.max_block_edges, materialized_time, streamed_time


def test_streaming_smoke():
    """Tier-1 smoke: both modes agree exactly on a small factor pair."""
    factor_a = generators.webgraph_like(60, edges_per_vertex=3,
                                        triad_probability=0.6, seed=3)
    factor_b = generators.triangle_constrained_pa(20, seed=13)
    peak_slice, peak_block, _, _ = _compare_modes(
        factor_a, factor_b, n_ranks=N_RANKS, block=8, label="smoke")
    assert peak_block <= peak_slice


def test_streaming_smoke_shares_statistics(monkeypatch):
    """The streamed path builds the factored statistics exactly once per run."""
    import repro.parallel.distributed as distributed_mod

    factor_a = generators.webgraph_like(40, edges_per_vertex=3,
                                        triad_probability=0.6, seed=5)
    factor_b = generators.triangle_constrained_pa(15, seed=13)
    calls = []
    original = KroneckerTriangleStats.from_factors.__func__

    def counting_from_factors(cls, a, b):
        calls.append(1)
        return original(cls, a, b)

    monkeypatch.setattr(distributed_mod.KroneckerTriangleStats, "from_factors",
                        classmethod(counting_from_factors))
    distributed_generate(factor_a, factor_b, 6, streaming=True, a_edges_per_block=8)
    assert len(calls) == 1


@pytest.mark.slow
def test_streaming_throughput_full():
    """Full sizes: bounded blocks must be a small fraction of the rank slice."""
    factor_a = generators.webgraph_like(320, edges_per_vertex=3,
                                        triad_probability=0.6, seed=3)
    factor_b = generators.triangle_constrained_pa(90, seed=13)
    peak_slice, peak_block, materialized_time, streamed_time = _compare_modes(
        factor_a, factor_b, n_ranks=N_RANKS, block=BLOCK, label="full")
    ratio = (materialized_time / streamed_time) if streamed_time else float("inf")
    print(f"  streamed/materialized wall-time ratio: {1 / ratio:.2f}×")
    # The point of streaming is memory, not speed — but it must not collapse.
    assert peak_block * 4 <= peak_slice, \
        "streamed peak should be well under the materialized rank slice"
    assert streamed_time <= materialized_time * 10, \
        "streaming overhead blew past 10× the materialized path"
