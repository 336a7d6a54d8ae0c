"""Seeded inputs: the factor pair, the stores built from it, request streams.

Every input comes from the run's ``--seed``; the program under test only
ever sees the generated factors and requests.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.generators import triangle_constrained_pa, webgraph_like
from repro.graphs.io import NpyShardSink
from repro.parallel import distributed_generate
from repro.store import compact_shards

#: The paper's pipeline as every workload runs it.
N_RANKS = 6
A_EDGES_PER_BLOCK = 32
PAYLOAD = ("triangles", "trussness")

#: Served stores: F(320, 90), about 446k edges.  Every seed serves the same
#: graph and draws its own request streams: with the graph drawn per seed,
#: the hub blocks of the product moved the cost of a request by more than
#: 10% from seed to seed, which is workload noise, not program change.
SERVED_FACTORS = (320, 90)
SERVED_GRAPH_SEED = 0
#: Edges per shard of the scan-cold store (about 110 shards).
SCAN_SHARD_EDGES = 4096

#: Request classes, in the order their per-class metrics are reported.
OP_CLASSES = ("degree", "neighbors", "edge_payloads", "degrees", "egonet",
              "edges_in_range")

#: point-hot mix: (class, requests per block of 20).  Each block of 20
#: requests holds exactly this mix in seeded order, so a run's mix, and with
#: it its cost per request, does not drift with the seed.  Pairs and vertex
#: lists are Zipf-drawn from the hot set like the scalar ops.
POINT_MIX = (("degree", 8), ("neighbors", 6), ("edge_payloads", 3),
             ("degrees", 2), ("egonet", 1))
HOT_VERTICES = 1024
ZIPF_EXPONENT = 0.8
#: Each client's point stream draws a fresh hot set this many times.  The
#: few top Zipf ranks carry most requests, so one hot set per run would make
#: the run's cost per request follow a handful of random vertices' degrees.
HOT_SETS = 32
PAIRS_PER_LOOKUP = 16
VERTICES_PER_BATCH = 32
#: scan-cold range widths, in vertices: [64, 512).
SCAN_WIDTH = (64, 512)
#: Share of scan-cold range answers compared row for row (all are counted).
BULK_SAMPLE_SHARE = 0.125


class Op(NamedTuple):
    """One request: its class, its arguments, and whether a bulk answer is
    kept whole for the correctness gate."""

    kind: str
    args: tuple
    keep: bool = True


def factor_pair(size_a: int, size_b: int, seed: int):
    """F(a, b): ``webgraph_like(a, 3, 0.6)`` and ``triangle_constrained_pa(b)``
    (Δ ≤ 1, so the Theorem 3 trussness payload is defined)."""
    seed_a, seed_b = np.random.SeedSequence(seed).generate_state(2)
    factor_a = webgraph_like(size_a, edges_per_vertex=3, triad_probability=0.6,
                             seed=int(seed_a))
    factor_b = triangle_constrained_pa(size_b, seed=int(seed_b))
    return factor_a, factor_b


def spill_sink(directory: Path, factor_a, factor_b) -> NpyShardSink:
    """The per-block ``.npy`` spill sink with both payload columns."""
    return NpyShardSink(directory, name=f"F({factor_a.n_vertices},"
                                        f"{factor_b.n_vertices})",
                        n_vertices=factor_a.n_vertices * factor_b.n_vertices,
                        payload_columns=PAYLOAD)


def generate(factor_a, factor_b, sink):
    """Stream the product through *sink* with exact payloads."""
    return distributed_generate(factor_a, factor_b, N_RANKS, streaming=True,
                                a_edges_per_block=A_EDGES_PER_BLOCK, sink=sink,
                                payload_columns=PAYLOAD)


def compact(spill: Path, store: Path, target: Optional[int] = None) -> dict:
    """Compact a spill, at the compactor's default target unless given."""
    if target is None:
        return compact_shards(spill, store)
    return compact_shards(spill, store, target_shard_edges=target)


def build_store(work: Path, target: Optional[int] = None,
                sizes: Tuple[int, int] = SERVED_FACTORS,
                seed: int = SERVED_GRAPH_SEED) -> Path:
    """A served store, F(320, 90) unless *sizes* says otherwise, generated,
    spilled and compacted by the code under test."""
    factor_a, factor_b = factor_pair(*sizes, seed)
    spill, store = work / "spill", work / "store"
    generate(factor_a, factor_b, spill_sink(spill, factor_a, factor_b))
    compact(spill, store, target)
    return store


def _zipf_ranks(rng: np.random.Generator, size: int) -> np.ndarray:
    weights = np.arange(1, HOT_VERTICES + 1, dtype=float) ** -ZIPF_EXPONENT
    return rng.choice(HOT_VERTICES, size=size, p=weights / weights.sum())


def hot_set(store, rng: np.random.Generator
            ) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Random hot vertices (Zipf rank order) and each one's stored
    neighbours, from which ``edge_payloads`` pairs are drawn."""
    hot = rng.choice(store.n_vertices, size=HOT_VERTICES, replace=False)
    rows = store.edges_for_sources(hot)
    cuts = np.searchsorted(rows[:, 0], np.sort(hot))
    by_source = dict(zip(np.sort(hot).tolist(), np.split(rows[:, 1], cuts[1:])))
    return hot, [by_source[int(v)] for v in hot]


def point_stream(store, seed: int, thread: int, length: int) -> List[Op]:
    """point-hot / routed requests of one client thread: :data:`HOT_SETS`
    equal segments, each Zipf-drawn from its own hot set."""
    rng = np.random.default_rng([seed, 1, thread])
    block = [kind for kind, count in POINT_MIX for _ in range(count)]
    ops = []
    for position in range(length):
        if position % -(-length // HOT_SETS) == 0:
            hot, neighbors = hot_set(store, rng)
        if position % len(block) == 0:
            rng.shuffle(block)
        kind = block[position % len(block)]
        if kind == "edge_payloads":
            ranks = _zipf_ranks(rng, PAIRS_PER_LOOKUP)
            qs = [neighbors[r][rng.integers(len(neighbors[r]))] for r in ranks]
            args = (hot[ranks].astype(np.int64), np.asarray(qs, dtype=np.int64))
        elif kind == "degrees":
            args = (hot[_zipf_ranks(rng, VERTICES_PER_BATCH)].astype(np.int64),)
        else:
            args = (int(hot[_zipf_ranks(rng, 1)[0]]),)
        ops.append(Op(kind, args))
    return ops


#: Range starts step by the golden ratio from a seeded offset (a Weyl
#: sequence): uniform over the vertices like random draws but evenly
#: spread, so how many ranges land on the product's dense hub blocks, and
#: with it the rows per request, barely moves from seed to seed.
_GOLDEN = 0.6180339887498949


def scan_stream(n_vertices: int, seed: int, thread: int,
                length: int) -> List[Op]:
    """scan-cold requests of one client thread: range and batch-degree
    requests alternate (50% each, exactly), uniform over vertices."""
    rng = np.random.default_rng([seed, 2, thread])
    ops = []
    start = rng.random()
    for position in range(length):
        if position % 2 == 0:
            width = min(int(rng.integers(*SCAN_WIDTH)), n_vertices)
            start = (start + _GOLDEN) % 1.0
            lo = int(start * (n_vertices - width + 1))
            ops.append(Op("edges_in_range", (lo, lo + width),
                          keep=bool(rng.random() < BULK_SAMPLE_SHARE)))
        else:
            vs = rng.integers(0, n_vertices, size=VERTICES_PER_BATCH)
            ops.append(Op("degrees", (vs.astype(np.int64),)))
    return ops
