"""Communication-free distributed generation of ``C = A ⊗ B`` (simulated ranks).

Each rank holds both (small) factors and a partition descriptor; it emits its
slice of the product edge list, plus — because the Kronecker formulas are
local — the exact triangle ground truth for everything it emitted, without
ever talking to another rank.  The driver verifies that the union of the
per-rank outputs is exactly the product's edge set and that per-rank
statistics sum to the global formula values, which is the property the paper
relies on when calling the generation "essentially communication-free".

Two execution modes are provided:

* **materialized** (default) — each rank returns its whole slice as one
  :class:`RankOutput`; peak memory per rank is the full
  ``(stop - start) · nnz(B)`` edge array.
* **streaming** (``streaming=True``) — each rank walks its slice in
  ``a_edges_per_block · nnz(B)``-edge blocks
  (:func:`iter_rank_edge_blocks`), folds them into a
  :class:`~repro.parallel.streaming.StreamingRankAccumulator`, optionally
  spills each block to a sink (e.g.
  :class:`repro.graphs.io.NpyShardSink`), and returns only the aggregates.
  The driver sum-reduces the accumulators through
  :class:`~repro.parallel.comm.SimulatedComm` — the single-node stand-in for
  writing a trillion-edge graph to a parallel file system while validating
  it on the fly, without the product ever existing in memory.

Performance contract: the factored statistics object is built **once** per
generation run and shared (read-only) by every rank; batched payloads go
through :meth:`~repro.core.triangle_formulas.KroneckerTriangleStats.edge_values`
(materialized path) or the cached-key
:class:`~repro.core.triangle_formulas.TriangleStatsGatherer` (streaming path,
one gatherer reused across all blocks) — no per-edge Python loop anywhere.
Ranks run sequentially by default; pass ``use_processes=True`` to fan them
out on a ``multiprocessing`` pool.

Under an active :mod:`repro.obs.trace` context a streaming run records a
``stream.run`` span with one ``stream.rank`` child per in-process rank
(block counts and edge totals attached) — process-pool ranks run in other
interpreters and are not spanned.  Without an active trace the calls are
no-ops.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.core.kronecker import KroneckerGraph
from repro.core.triangle_formulas import KroneckerTriangleStats, TriangleStatsGatherer
from repro.core.truss_formulas import KroneckerTrussDecomposition, kron_truss_decomposition
from repro.graphs.adjacency import Graph
from repro.graphs.io import normalize_payload_columns
from repro.obs import trace
from repro.parallel.comm import SimulatedComm
from repro.parallel.partition import (
    EdgePartition,
    VertexBlockPartition,
    entry_range,
    partition_edges,
    partition_vertex_blocks,
)
from repro.parallel.streaming import StreamingRankAccumulator

__all__ = [
    "KNOWN_PAYLOAD_COLUMNS",
    "RankOutput",
    "RankEdgeBlock",
    "StreamingGenerateResult",
    "generate_rank_edges",
    "iter_rank_edge_blocks",
    "stream_rank_aggregate",
    "distributed_generate",
    "merge_rank_outputs",
]

PartitionType = Union[EdgePartition, VertexBlockPartition]

#: Sink protocol: either an object with ``write(rank, block_index, edges)``
#: (and optionally ``finalize()``) or a plain callable with that signature.
SinkType = Union[Callable[[int, int, np.ndarray], None], object]


@dataclass(frozen=True)
class RankOutput:
    """What one rank produces: its product edges and their ground-truth statistics.

    Attributes
    ----------
    rank:
        Rank id.
    edges:
        ``(m, 2)`` array of directed product edges emitted by this rank.
    edge_triangles:
        Length-``m`` vector with the exact triangle participation of each
        emitted edge (from the factored statistics — no global data needed).
    source_vertex_triangles:
        Exact triangle participation of each emitted edge's source vertex.
    """

    rank: int
    edges: np.ndarray
    edge_triangles: np.ndarray
    source_vertex_triangles: np.ndarray

    @property
    def n_edges(self) -> int:
        """Number of directed product edges emitted by this rank."""
        return int(self.edges.shape[0])


class RankEdgeBlock(NamedTuple):
    """One bounded block of a rank's stream: edges plus their exact
    triangle payload."""

    edges: np.ndarray
    edge_triangles: np.ndarray


def _rank_entry_range(factor_a: Graph, partition: PartitionType) -> Tuple[int, int]:
    return entry_range(partition, factor_a.adjacency.indptr)


def generate_rank_edges(
    factor_a: Graph,
    factor_b: Graph,
    partition: PartitionType,
    *,
    with_statistics: bool = True,
    stats: Optional[KroneckerTriangleStats] = None,
) -> RankOutput:
    """Generate the product edges owned by one rank, as a single slice.

    Every ``A`` entry in the rank's slice is paired with every ``B`` entry;
    the statistics are evaluated from the factored
    :class:`~repro.core.triangle_formulas.KroneckerTriangleStats` — via its
    batched ``edge_values``/``vertex_value`` kernels, never one edge at a
    time — using only factor-sized data.  Both partition layouts are
    accepted: a :class:`~repro.parallel.partition.VertexBlockPartition` is
    mapped to its contiguous CSR entry range first.

    Parameters
    ----------
    stats:
        Pre-built factored statistics to share across ranks.  When ``None``
        and ``with_statistics`` is set, the rank builds its own copy — a
        driver generating many ranks should build it once and pass it in
        (:func:`distributed_generate` does exactly that).
    """
    coo_a = factor_a.adjacency.tocoo()
    coo_b = factor_b.adjacency.tocoo()
    n_b = factor_b.n_vertices
    start, stop = _rank_entry_range(factor_a, partition)
    a_rows = coo_a.row[start:stop].astype(np.int64)
    a_cols = coo_a.col[start:stop].astype(np.int64)
    b_rows = coo_b.row.astype(np.int64)
    b_cols = coo_b.col.astype(np.int64)
    rows = (a_rows[:, None] * n_b + b_rows[None, :]).ravel()
    cols = (a_cols[:, None] * n_b + b_cols[None, :]).ravel()
    edges = np.stack([rows, cols], axis=1)

    if not with_statistics:
        empty = np.zeros(0, dtype=np.int64)
        return RankOutput(rank=partition.rank, edges=edges,
                          edge_triangles=empty, source_vertex_triangles=empty)

    if stats is None:
        stats = KroneckerTriangleStats.from_factors(factor_a, factor_b)
    vertex_t = np.asarray(stats.vertex_value(rows), dtype=np.int64)
    edge_t = stats.edge_values(rows, cols)
    return RankOutput(rank=partition.rank, edges=edges,
                      edge_triangles=edge_t, source_vertex_triangles=vertex_t)


def iter_rank_edge_blocks(
    factor_a: Graph,
    factor_b: Graph,
    partition: PartitionType,
    *,
    a_edges_per_block: int = 1024,
    with_statistics: bool = True,
    stats: Optional[KroneckerTriangleStats] = None,
    gatherer: Optional[TriangleStatsGatherer] = None,
) -> Iterator[RankEdgeBlock]:
    """Stream one rank's slice as bounded, statistics-annotated blocks.

    The fused streaming sibling of :func:`generate_rank_edges`: at most
    ``a_edges_per_block · nnz(B)`` edges exist at a time, and every block's
    triangle payload is evaluated through a single
    :class:`~repro.core.triangle_formulas.TriangleStatsGatherer` — the
    cached-key :class:`~repro.perf.kernels.CsrGatherer` kernels are built
    once per call (or shared via *gatherer*), then reused for every block.
    """
    product = KroneckerGraph(factor_a, factor_b)
    if with_statistics and gatherer is None:
        if stats is None:
            stats = KroneckerTriangleStats.from_factors(factor_a, factor_b)
        gatherer = stats.gatherer()
    empty = np.zeros(0, dtype=np.int64)
    for edges in product.iter_rank_edge_blocks(partition,
                                               a_edges_per_block=a_edges_per_block):
        if not with_statistics:
            yield RankEdgeBlock(edges, empty)
            continue
        edge_t = gatherer.edge_values(edges[:, 0], edges[:, 1])
        yield RankEdgeBlock(edges, edge_t)


#: Per-edge ground-truth columns a streamed spill can carry, in the
#: spelling the manifest records.  This module is their one home: each name
#: maps to a run flag in :func:`_check_payload_columns` and to the per-block
#: array that evaluates it in :func:`_payload_extras`, so a new payload
#: touches those three places and nothing outside this module.
KNOWN_PAYLOAD_COLUMNS = ("triangles", "trussness")


def _check_payload_columns(payload_columns: Sequence[str], *,
                           with_statistics: bool, with_trussness: bool
                           ) -> Tuple[str, ...]:
    """Validate spill payload columns against the evaluators this run builds."""
    columns = normalize_payload_columns(payload_columns)
    for name in columns:
        if name not in KNOWN_PAYLOAD_COLUMNS:
            raise ValueError(
                f"unknown payload column {name!r}; evaluable columns are "
                f"{list(KNOWN_PAYLOAD_COLUMNS)}")
        if name == "triangles" and not with_statistics:
            raise ValueError("payload column 'triangles' requires "
                             "with_statistics=True")
        if name == "trussness" and not with_trussness:
            raise ValueError("payload column 'trussness' requires "
                             "with_trussness=True")
    return columns


def _payload_extras(block: "RankEdgeBlock", trussness: Optional[np.ndarray],
                    payload_columns: Sequence[str]) -> List[np.ndarray]:
    """The per-block array behind each payload column — already evaluated
    once for the aggregates, so the spill costs no second evaluation."""
    sources = {"triangles": block.edge_triangles, "trussness": trussness}
    return [sources[name] for name in payload_columns]


def stream_rank_aggregate(
    factor_a: Graph,
    factor_b: Graph,
    partition: PartitionType,
    *,
    a_edges_per_block: int = 1024,
    with_statistics: bool = True,
    stats: Optional[KroneckerTriangleStats] = None,
    gatherer: Optional[TriangleStatsGatherer] = None,
    truss: Optional[KroneckerTrussDecomposition] = None,
    sink: Optional[SinkType] = None,
    payload_columns: Sequence[str] = (),
) -> StreamingRankAccumulator:
    """Fold one rank's streamed blocks into aggregates (and optionally a sink).

    This is the whole per-rank streaming pipeline: generate a block, evaluate
    its exact payloads, fold it into the
    :class:`~repro.parallel.streaming.StreamingRankAccumulator`, spill it to
    *sink* if given, release it, repeat.  The rank never holds more than one
    block and returns only factor-free aggregates.

    With *payload_columns* the spilled blocks are widened to ``(m, 2 + k)``:
    the named per-edge ground-truth values — already evaluated once per block
    for the aggregates, through the single per-pass gatherer — are stacked
    onto the edges before ``sink.write``, so the spill carries exact payloads
    at no extra evaluation cost.  ``"triangles"`` requires
    ``with_statistics``; ``"trussness"`` requires *truss*.
    """
    payload_columns = _check_payload_columns(
        payload_columns, with_statistics=with_statistics,
        with_trussness=truss is not None)
    acc = StreamingRankAccumulator(partition.rank,
                                   with_statistics=with_statistics,
                                   with_trussness=truss is not None)
    write = getattr(sink, "write", sink)
    for block_index, block in enumerate(
        iter_rank_edge_blocks(factor_a, factor_b, partition,
                              a_edges_per_block=a_edges_per_block,
                              with_statistics=with_statistics, stats=stats,
                              gatherer=gatherer)
    ):
        trussness = None
        if truss is not None:
            trussness = truss.edge_trussness_batch(block.edges[:, 0], block.edges[:, 1])
        acc.update(block.edges,
                   block.edge_triangles if with_statistics else None,
                   trussness)
        if write is not None:
            out = block.edges
            if payload_columns:
                extras = _payload_extras(block, trussness, payload_columns)
                out = np.concatenate([out, np.stack(extras, axis=1)], axis=1)
            write(partition.rank, block_index, out)
    return acc


@dataclass(frozen=True)
class StreamingGenerateResult:
    """Outcome of a ``streaming=True`` distributed run.

    Attributes
    ----------
    rank_aggregates:
        One :class:`~repro.parallel.streaming.StreamingRankAccumulator` per
        rank, in rank order.
    total:
        The allreduced (summed) aggregate across all ranks.
    partitions:
        The partition descriptors the run used.
    stats:
        The factored statistics the run built (``None`` when
        ``with_statistics=False``) — pass them to
        :class:`~repro.core.validation.ValidationAccumulator` so validation
        does not rebuild them.
    """

    rank_aggregates: List[StreamingRankAccumulator]
    total: StreamingRankAccumulator
    partitions: List[PartitionType]
    stats: Optional[KroneckerTriangleStats] = None

    @property
    def n_edges(self) -> int:
        """Total directed product edges generated across all ranks."""
        return self.total.n_edges

    @property
    def max_block_edges(self) -> int:
        """Largest single block any rank ever held (the peak-memory bound)."""
        return self.total.max_block_edges


def _build_partitions(factor_a: Graph, factor_b: Graph, n_ranks: int,
                      layout: str) -> List[PartitionType]:
    if layout == "edges":
        return partition_edges(factor_a.nnz, factor_b.nnz, n_ranks)
    if layout == "vertex-blocks":
        row_nnz = np.diff(factor_a.adjacency.indptr)
        return partition_vertex_blocks(row_nnz, factor_b.n_vertices,
                                       factor_b.nnz, n_ranks)
    raise ValueError(f"unknown layout {layout!r}; choose 'edges' or 'vertex-blocks'")


#: Per-worker shared state (factors + statistics + streaming config), shipped
#: once per process via the pool initializer instead of being re-pickled into
#: every task.
_WORKER_STATE: Optional[tuple] = None


def _worker_init(factor_a: Graph, factor_b: Graph, with_statistics: bool,
                 stats: Optional[KroneckerTriangleStats],
                 truss: Optional[KroneckerTrussDecomposition] = None,
                 sink: Optional[SinkType] = None,
                 a_edges_per_block: int = 1024,
                 payload_columns: Tuple[str, ...] = ()) -> None:
    global _WORKER_STATE
    _WORKER_STATE = (factor_a, factor_b, with_statistics, stats,
                     truss, sink, a_edges_per_block, payload_columns)


def _rank_worker(partition: PartitionType) -> RankOutput:
    """Module-level worker (picklable); reads the shared per-process state."""
    factor_a, factor_b, with_statistics, stats = _WORKER_STATE[:4]
    return generate_rank_edges(factor_a, factor_b, partition,
                               with_statistics=with_statistics, stats=stats)


def _stream_worker(partition: PartitionType) -> StreamingRankAccumulator:
    """Module-level streaming worker; folds a rank's blocks in the pool process."""
    (factor_a, factor_b, with_statistics, stats,
     truss, sink, block, payload_columns) = _WORKER_STATE
    return stream_rank_aggregate(factor_a, factor_b, partition,
                                 a_edges_per_block=block,
                                 with_statistics=with_statistics, stats=stats,
                                 truss=truss, sink=sink,
                                 payload_columns=payload_columns)


def distributed_generate(
    factor_a: Graph,
    factor_b: Graph,
    n_ranks: int,
    *,
    with_statistics: bool = True,
    use_processes: bool = False,
    max_workers: Optional[int] = None,
    layout: str = "edges",
    streaming: bool = False,
    a_edges_per_block: Optional[int] = None,
    sink: Optional[SinkType] = None,
    with_trussness: bool = False,
    payload_columns: Sequence[str] = (),
) -> Union[List[RankOutput], StreamingGenerateResult]:
    """Run the communication-free generation over ``n_ranks`` simulated ranks.

    The factored statistics are built exactly once and shared by every rank
    (they are immutable, so sharing is safe in-process and cheap to ship to
    workers).  With ``use_processes=True`` the ranks run concurrently on a
    ``multiprocessing`` pool — the single-node stand-in for the paper's MPI
    ranks; results are returned in rank order either way.

    Parameters
    ----------
    layout:
        ``"edges"`` (contiguous ``A``-entry slices) or ``"vertex-blocks"``
        (contiguous ``A``-row blocks with near-even edge load).  Both layouts
        cover the product exactly once, so they merge to the same graph.
    streaming:
        When set, ranks fold their slice block-by-block instead of
        materializing it, and a :class:`StreamingGenerateResult` of
        aggregates is returned; the per-rank accumulators are sum-reduced
        through :class:`~repro.parallel.comm.SimulatedComm` collectives.
    a_edges_per_block:
        Streamed block granularity: at most ``a_edges_per_block · nnz(B)``
        edges per rank in memory at a time (default 1024).
    sink:
        Optional spill target for streamed blocks — an object with
        ``write(rank, block_index, edges)`` (its ``finalize()`` is invoked by
        the driver once all ranks are done) or a bare callable.  Must be
        picklable under ``use_processes=True``
        (:class:`repro.graphs.io.NpyShardSink` is).
    with_trussness:
        Streamed runs only: additionally evaluate each edge's trussness via
        the Theorem 3 transfer and fold the census into the aggregates.
        Requires the factors to satisfy the theorem's hypotheses
        (``Δ_B ≤ 1``, loop-free).
    payload_columns:
        Streamed runs with a *sink* only: carry the named per-edge
        ground-truth columns (from :data:`KNOWN_PAYLOAD_COLUMNS`) in the
        spilled blocks, which become ``(m, 2 + k)`` — construct the sink
        with the matching ``payload_columns`` so its manifest records the
        layout.  Naming ``"trussness"`` implies ``with_trussness=True``.
    """
    payload_columns = normalize_payload_columns(payload_columns)
    if payload_columns:
        if not streaming or sink is None:
            raise ValueError("payload_columns requires streaming=True and a sink "
                             "(payloads are carried in the spilled shards)")
        # The trussness payload needs the Theorem 3 decomposition anyway;
        # folding the census into the aggregates comes for free.
        with_trussness = with_trussness or "trussness" in payload_columns
        # Reject an unknown column before any factor statistics are built.
        _check_payload_columns(payload_columns, with_statistics=with_statistics,
                               with_trussness=with_trussness)
    partitions = _build_partitions(factor_a, factor_b, n_ranks, layout)
    stats = KroneckerTriangleStats.from_factors(factor_a, factor_b) \
        if with_statistics else None

    if not streaming:
        if with_trussness:
            raise ValueError("with_trussness requires streaming=True")
        if sink is not None:
            raise ValueError("sink requires streaming=True")
        if a_edges_per_block is not None:
            raise ValueError("a_edges_per_block requires streaming=True")
        if not use_processes:
            return [
                generate_rank_edges(factor_a, factor_b, part,
                                    with_statistics=with_statistics, stats=stats)
                for part in partitions
            ]
        with ProcessPoolExecutor(
            max_workers=max_workers or min(n_ranks, 8),
            initializer=_worker_init,
            initargs=(factor_a, factor_b, with_statistics, stats),
        ) as pool:
            return list(pool.map(_rank_worker, partitions))

    truss = kron_truss_decomposition(factor_a, factor_b) if with_trussness else None
    block = 1024 if a_edges_per_block is None else int(a_edges_per_block)
    if block < 1:
        raise ValueError(f"a_edges_per_block must be >= 1, got {block}")
    with trace.span("stream.run", n_ranks=n_ranks, layout=layout,
                    use_processes=use_processes):
        if not use_processes:
            # One cached-key gatherer for the whole run — every rank's
            # blocks reuse the same sorted component keys.
            gatherer = stats.gatherer() if stats is not None else None
            rank_aggregates = []
            for part in partitions:
                with trace.span("stream.rank", rank=part.rank) as record:
                    acc = stream_rank_aggregate(
                        factor_a, factor_b, part,
                        a_edges_per_block=block,
                        with_statistics=with_statistics, stats=stats,
                        gatherer=gatherer, truss=truss, sink=sink,
                        payload_columns=payload_columns)
                    if record is not None:
                        record["n_edges"] = acc.n_edges
                        record["n_blocks"] = acc.n_blocks
                rank_aggregates.append(acc)
        else:
            # Pool ranks run in other interpreters; their work is visible
            # only through the enclosing stream.run span.
            with ProcessPoolExecutor(
                max_workers=max_workers or min(n_ranks, 8),
                initializer=_worker_init,
                initargs=(factor_a, factor_b, with_statistics, stats,
                          truss, sink, block, payload_columns),
            ) as pool:
                rank_aggregates = list(pool.map(_stream_worker, partitions))

        comm = SimulatedComm(n_ranks)
        total = None
        for acc in rank_aggregates:
            total = comm.allreduce_sum("streaming-aggregate", acc.rank, acc)
        if total.rank != -1:
            # A size-1 allreduce hands back the contributed object itself;
            # detach a merged copy so total never aliases a per-rank
            # accumulator.
            total = total + StreamingRankAccumulator(-1)
        finalize = getattr(sink, "finalize", None)
        if finalize is not None:
            finalize()
    return StreamingGenerateResult(rank_aggregates=rank_aggregates,
                                   total=total, partitions=partitions, stats=stats)


def merge_rank_outputs(outputs: Sequence[RankOutput], n_vertices: int) -> sp.csr_matrix:
    """Union of all per-rank edge lists as a CSR adjacency matrix.

    Used to verify that the distributed generation reproduces exactly the
    materialized product (no missing, duplicated, or spurious edges).
    """
    if not outputs:
        return sp.csr_matrix((n_vertices, n_vertices), dtype=np.int64)
    all_edges = np.concatenate([out.edges for out in outputs], axis=0)
    data = np.ones(all_edges.shape[0], dtype=np.int64)
    adj = sp.csr_matrix((data, (all_edges[:, 0], all_edges[:, 1])),
                        shape=(n_vertices, n_vertices))
    adj.sum_duplicates()
    return adj
