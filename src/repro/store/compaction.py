"""Shard compaction: per-block spills → source-sorted, size-targeted shards.

The streaming generation pipeline spills one ``.npy`` shard per
``(rank, block)`` pair (:class:`repro.graphs.io.NpyShardSink`): write-optimal,
but useless for queries — a consumer looking for one vertex's edges would have
to scan every shard.  :func:`compact_shards` turns that spill into a
*queryable* store with a bounded-memory external merge sort:

1. **run formation** — each input shard is loaded (one at a time), sorted by
   ``(src, dst)`` and written back as a sorted run; peak memory is one shard.
2. **k-way merge** — the runs are memory-mapped and merged in vectorized
   rounds: each round picks the smallest "chunk-end source" over all active
   runs as a watermark, drains every run up to it with one
   ``np.searchsorted`` per run, and lex-sorts the concatenated batch.  No
   per-edge Python loop; peak memory is ``n_runs × merge_chunk_edges`` edges
   plus one output shard.
3. **manifest v2** — output shards are cut at ``target_shard_edges`` and the
   manifest records each shard's ``[src_min, src_max]`` source-vertex range,
   which is what lets :class:`repro.store.ShardStore` binary-search its way to
   the one or two shards a query actually needs.

Payload columns ride along untouched: a spill whose manifest names extra
``payload_columns`` (``(m, 2 + k)`` shards) compacts to the same layout —
sort keys stay ``(src, dst)``, every merge and cut moves whole rows, and the
output manifest carries the column names forward.  Peak memory scales by the
row width, nothing else changes.

The manifest is published atomically (temp file + ``os.replace``) after the
shards, and any ``.npy`` file in the destination that the fresh manifest does
not list is deleted — a re-compaction with a coarser ``target_shard_edges``
cannot leave orphaned shards for directory globs to pick up.

Compacting an already-compacted store is idempotent (the sorted shards are
reused as merge runs directly, skipping phase 1) and re-sharding to a new
``target_shard_edges`` is just a re-run.

Under an active :mod:`repro.obs.trace` context the three phases record
timed spans (``compact.run_formation`` / ``compact.merge`` /
``compact.publish``) so a traced maintenance job shows where the wall
time went; without one the span calls are no-ops.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from repro.graphs.io import (
    SHARD_MANIFEST,
    NpyShardSink,
    read_edge_shard,
    read_shard_manifest,
    write_shard_manifest,
)
from repro.obs import trace

__all__ = ["compact_shards", "MANIFEST_V2"]

PathLike = Union[str, Path]

#: Format version written by :func:`compact_shards`.
MANIFEST_V2 = 2

#: Glob matching the shard files a compacted store holds.
_COMPACT_SHARD_GLOB = "shard-*.npy"

#: Glob matching per-block spill shards (cleared from a reused output dir);
#: the sink that writes them owns the pattern.
_BLOCK_SHARD_GLOB = NpyShardSink._SHARD_GLOB

#: Temporary directory (inside the destination) holding sorted runs.
_RUNS_DIR = "_compact-runs"


def _sort_edges(edges: np.ndarray) -> np.ndarray:
    """Rows in ``(src, dst)`` lexicographic order, as contiguous ``int64``.

    Sort keys are always the two endpoint columns; any payload columns ride
    along with their row.
    """
    edges = np.ascontiguousarray(edges, dtype=np.int64)
    if edges.shape[0] <= 1:
        return edges
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    return np.ascontiguousarray(edges[order])


class _ShardWriter:
    """Cuts a stream of sorted batches into ``target``-sized output shards."""

    def __init__(self, directory: Path, target: int):
        self.directory = directory
        self.target = target
        self.pending: List[np.ndarray] = []
        self.pending_edges = 0
        self.shards: List[dict] = []
        self.total_edges = 0

    def _flush(self, count: int) -> None:
        """Write the first *count* pending edges as one shard file."""
        block = np.concatenate(self.pending) if len(self.pending) > 1 \
            else self.pending[0]
        shard, rest = block[:count], block[count:]
        self.pending = [rest] if rest.shape[0] else []
        self.pending_edges = int(rest.shape[0])
        name = f"shard-{len(self.shards):06d}.npy"
        np.save(self.directory / name, np.ascontiguousarray(shard))
        self.shards.append({
            "file": name,
            "n_edges": int(shard.shape[0]),
            "src_min": int(shard[0, 0]),
            "src_max": int(shard[-1, 0]),
        })
        self.total_edges += int(shard.shape[0])

    def push(self, batch: np.ndarray) -> None:
        if batch.shape[0] == 0:
            return
        self.pending.append(batch)
        self.pending_edges += int(batch.shape[0])
        while self.pending_edges >= self.target:
            self._flush(self.target)

    def close(self) -> None:
        if self.pending_edges:
            self._flush(self.pending_edges)


def _merge_tie_group(segments: List[np.ndarray], writer: _ShardWriter,
                     merge_chunk_edges: int) -> None:
    """Merge same-source segments (one per run, sorted by dst) by destination.

    The second watermark level: a "hub" source whose edge group is larger
    than any chunk is merged with the same bounded-round scheme, keyed on the
    destination column, so even the hottest vertex never forces more than
    ``n_runs × merge_chunk_edges`` edges into one batch.
    """
    positions = [0] * len(segments)
    while True:
        active = [i for i, seg in enumerate(segments) if positions[i] < seg.shape[0]]
        if not active:
            return
        watermark = min(
            int(segments[i][min(positions[i] + merge_chunk_edges,
                                segments[i].shape[0]) - 1, 1])
            for i in active
        )
        parts = []
        for i in active:
            hi = int(np.searchsorted(segments[i][:, 1], watermark, side="right"))
            if hi > positions[i]:
                parts.append(np.asarray(segments[i][positions[i]:hi]))
                positions[i] = hi
        batch = parts[0] if len(parts) == 1 else np.concatenate(parts)
        writer.push(batch[np.argsort(batch[:, 1], kind="stable")])


def _merge_runs(runs: List[np.ndarray], writer: _ShardWriter,
                merge_chunk_edges: int) -> None:
    """Vectorized k-way merge of sorted runs into the shard writer.

    Each round picks the smallest chunk-end source vertex over all active
    runs (the watermark), drains every run's edges *below* it — at most one
    chunk per run, by the watermark's definition — and hands the tie group
    *at* the watermark to :func:`_merge_tie_group`, which applies the same
    bounded scheme on the destination column.  The watermark-defining run
    always advances by a full chunk, so the merge finishes in
    ``O(total / chunk)`` rounds with every batch capped at
    ``n_runs × merge_chunk_edges`` edges, and because all edges at sources
    ≤ watermark are consumed before the next round, the output is globally
    ``(src, dst)``-sorted.
    """
    positions = [0] * len(runs)
    while True:
        active = [i for i, run in enumerate(runs) if positions[i] < run.shape[0]]
        if not active:
            return
        watermark = min(
            int(runs[i][min(positions[i] + merge_chunk_edges, runs[i].shape[0]) - 1, 0])
            for i in active
        )
        parts = []
        ties = []
        for i in active:
            srcs = runs[i][:, 0]
            below = int(np.searchsorted(srcs, watermark, side="left"))
            if below > positions[i]:
                parts.append(np.asarray(runs[i][positions[i]:below]))
                positions[i] = below
            tie_stop = int(np.searchsorted(srcs, watermark, side="right"))
            if tie_stop > positions[i]:
                # Kept as a view (memory-mapped for on-disk runs): the tie
                # merge below streams it in bounded sub-slices.
                ties.append(runs[i][positions[i]:tie_stop])
                positions[i] = tie_stop
        if parts:
            batch = parts[0] if len(parts) == 1 else np.concatenate(parts)
            writer.push(_sort_edges(batch))
        if ties:
            _merge_tie_group(ties, writer, merge_chunk_edges)


def compact_shards(
    source: PathLike,
    destination: PathLike,
    *,
    target_shard_edges: int = 262_144,
    merge_chunk_edges: int = 65_536,
    metadata: Optional[dict] = None,
) -> dict:
    """Compact a shard directory into a source-sorted, range-indexed store.

    Reads any shard directory with a valid manifest (the per-block v1 spill of
    :class:`repro.graphs.io.NpyShardSink`, or an existing v2 store for
    re-sharding), merges its rows in ``(src, dst)`` order —
    payload columns travel with their row, unchanged — cuts them into shards
    of about *target_shard_edges* edges, and writes a **manifest v2** whose
    shard entries record the covered ``[src_min, src_max]`` source-vertex
    range and whose ``payload_columns`` carry the source's column names
    forward.  Peak memory is bounded by one input shard (run formation) plus
    ``n_runs × merge_chunk_edges`` rows and one output shard (merge) — the
    product edge list is never held whole.

    Parameters
    ----------
    source, destination:
        Input spill directory and output store directory (must differ).
        Stale shard files and manifest in *destination* are cleared first,
        mirroring the :class:`~repro.graphs.io.NpyShardSink` constructor; the
        new manifest is published atomically and any destination ``.npy`` it
        does not list is deleted afterwards.
    target_shard_edges:
        Edges per output shard; every shard except the last has exactly this
        many.
    merge_chunk_edges:
        Merge granularity; larger chunks mean fewer rounds but more
        per-round memory.
    metadata:
        Extra entries merged over the source manifest's ``metadata``.

    Returns
    -------
    dict
        The manifest v2 that was written.
    """
    source, destination = Path(source), Path(destination)
    if target_shard_edges < 1:
        raise ValueError(f"target_shard_edges must be >= 1, got {target_shard_edges}")
    if merge_chunk_edges < 1:
        raise ValueError(f"merge_chunk_edges must be >= 1, got {merge_chunk_edges}")
    src_manifest = read_shard_manifest(source)
    payload_columns = list(src_manifest["payload_columns"])
    destination.mkdir(parents=True, exist_ok=True)
    if source.resolve() == destination.resolve():
        raise ValueError("compaction must write to a different directory "
                         "than its source")
    # Claim the destination for this run: drop the previous manifest first so
    # an interrupted compaction is unambiguous (no manifest = no store) and a
    # reader can never pair the old manifest with half-rewritten shards.
    for stale in (destination / SHARD_MANIFEST,
                  destination / (SHARD_MANIFEST + ".tmp")):
        if stale.exists():
            stale.unlink()
    for pattern in (_COMPACT_SHARD_GLOB, _BLOCK_SHARD_GLOB):
        for stale in destination.glob(pattern):
            stale.unlink()

    already_sorted = src_manifest.get("sorted_by") == "source"
    runs_dir = destination / _RUNS_DIR
    writer = _ShardWriter(destination, int(target_shard_edges))
    try:
        if already_sorted:
            run_paths = [source / shard["file"]
                         for shard in src_manifest["shards"] if shard["n_edges"]]
        else:
            with trace.span("compact.run_formation",
                            n_shards=len(src_manifest["shards"])):
                runs_dir.mkdir(exist_ok=True)
                run_paths = []
                for index, shard in enumerate(src_manifest["shards"]):
                    if not shard["n_edges"]:
                        continue  # zero-edge ranks leave empty shards
                    path = runs_dir / f"run-{index:06d}.npy"
                    # Map the spill read-only; the sort's fancy-index gather
                    # in _sort_edges makes the one private copy run formation
                    # needs.
                    np.save(path, _sort_edges(read_edge_shard(
                        source / shard["file"], payload_columns,
                        mmap_mode="r")))
                    run_paths.append(path)
        with trace.span("compact.merge", n_runs=len(run_paths)):
            runs = [read_edge_shard(path, payload_columns, mmap_mode="r")
                    for path in run_paths]
            try:
                _merge_runs(runs, writer, int(merge_chunk_edges))
            finally:
                # Release the memory maps before the runs directory is
                # removed (deleting a mapped file fails on Windows).
                del runs
            writer.close()
    finally:
        if runs_dir.exists():
            shutil.rmtree(runs_dir)

    meta = dict(src_manifest.get("metadata") or {})
    if metadata:
        meta.update(metadata)
    meta["compaction"] = {
        "source_shards": len(src_manifest["shards"]),
        "target_shard_edges": int(target_shard_edges),
    }
    if writer.total_edges != int(src_manifest["total_edges"]):
        raise ValueError(
            f"compaction wrote {writer.total_edges} edges but the source "
            f"manifest promised {src_manifest['total_edges']}; the source "
            "spill is corrupt (no manifest was written)")
    manifest = {
        "format_version": MANIFEST_V2,
        "kind": "edge-shards",
        "name": src_manifest.get("name", ""),
        "n_vertices": int(src_manifest["n_vertices"]),
        "total_edges": writer.total_edges,
        "sorted_by": "source",
        "payload_columns": payload_columns,
        "shards": writer.shards,
        "metadata": meta,
    }
    with trace.span("compact.publish", n_shards=len(writer.shards)):
        write_shard_manifest(destination, manifest)
        # The manifest is the source of truth for directory-glob readers:
        # any .npy it does not list (e.g. finer-grained shards from a
        # previous compaction of this destination) is stale — discard it,
        # mirroring the v1 sink's constructor-time cleanup.
        listed = {shard["file"] for shard in writer.shards}
        for stray in destination.glob("*.npy"):
            if stray.name not in listed:
                stray.unlink()
    return manifest
