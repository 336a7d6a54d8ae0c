"""Partitioned, communication-free generation and streaming of Kronecker products.

Single-node simulation of the paper's distributed generation path: the
source-range partition (:mod:`repro.parallel.partition`), a minimal
communicator abstraction (:mod:`repro.parallel.comm`), per-rank edge
generation with local ground-truth statistics
(:mod:`repro.parallel.distributed`), and bounded-memory streaming consumers
plus the per-rank aggregate accumulator (:mod:`repro.parallel.streaming`).
"""

from repro.parallel.comm import RankContext, SimulatedComm, run_on_ranks
from repro.parallel.distributed import (
    KNOWN_PAYLOAD_COLUMNS,
    RankEdgeBlock,
    RankOutput,
    StreamingGenerateResult,
    distributed_generate,
    generate_rank_edges,
    iter_rank_edge_blocks,
    merge_rank_outputs,
    stream_rank_aggregate,
)
from repro.parallel.partition import SourcePartition, balance_statistics, partition_sources
from repro.parallel.streaming import (
    StreamingRankAccumulator,
    format_edge_block_tsv,
    stream_apply,
    stream_degree_histogram,
    stream_edge_count,
    stream_edges_to_file,
)

__all__ = [
    "SimulatedComm",
    "RankContext",
    "run_on_ranks",
    "SourcePartition",
    "partition_sources",
    "balance_statistics",
    "KNOWN_PAYLOAD_COLUMNS",
    "RankOutput",
    "RankEdgeBlock",
    "StreamingGenerateResult",
    "generate_rank_edges",
    "iter_rank_edge_blocks",
    "stream_rank_aggregate",
    "distributed_generate",
    "merge_rank_outputs",
    "StreamingRankAccumulator",
    "format_edge_block_tsv",
    "stream_apply",
    "stream_edge_count",
    "stream_degree_histogram",
    "stream_edges_to_file",
]
