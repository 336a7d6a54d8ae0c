"""Shard compaction: a ``(src, dst)``-ordered spill → size-targeted shards.

The streaming generation pipeline spills one ``.npy`` shard per
``(rank, block)`` pair (:class:`repro.graphs.io.NpyShardSink`): write-optimal,
but useless for queries — a consumer looking for one vertex's edges would have
to scan every shard.  :func:`compact_shards` turns that spill into a
*queryable* store.  The spill is already in ``(src, dst)`` order: every rank
owns a contiguous source range and emits its rows source-major
(:meth:`repro.core.KroneckerGraph.iter_edge_blocks`), the ranges follow one
another in rank order, and the manifest lists the blocks in numeric
``(rank, block)`` order.  So compaction is a checked re-cut:

1. **read** the source shards in manifest order, each memory-mapped
   read-only (:func:`repro.graphs.io.read_edge_shard`);
2. **check** that the rows strictly increase in ``(src, dst)`` — within the
   shard and against the last row of the previous non-empty shard.  A
   violation (a duplicated row included) is a :class:`ValueError` naming the
   shard file, and no manifest is published;
3. **cut** the rows into shards of ``target_shard_edges`` and write a
   **manifest v2** that records each shard's ``[src_min, src_max]``
   source-vertex range, which is what lets :class:`repro.store.ShardStore`
   binary-search its way to the one or two shards a query actually needs.

Peak memory is one mapped input shard plus the rows waiting for the next
output cut — the product edge list is never held whole.  Payload columns
ride along untouched: a spill whose manifest names extra
``payload_columns`` (``(m, 2 + k)`` shards) compacts to the same layout —
order keys stay ``(src, dst)``, every cut moves whole rows, and the output
manifest carries the column names forward.

The manifest is published atomically (temp file + ``os.replace``) after the
shards, and any ``.npy`` file in the destination that the fresh manifest does
not list is deleted — a re-compaction with a coarser ``target_shard_edges``
cannot leave orphaned shards for directory globs to pick up.

A compacted store is a valid source too: compacting it again reproduces it
byte for byte, and re-sharding to a new ``target_shard_edges`` is just a
re-run.

Under an active :mod:`repro.obs.trace` context the two phases record timed
spans (``compact.recut`` / ``compact.publish``) so a traced maintenance job
shows where the wall time went; without one the span calls are no-ops.
"""

from __future__ import annotations

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


class _ShardWriter:
    """Cuts a stream of ordered batches into ``target``-sized output shards."""

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


def _check_order(rows: np.ndarray, previous: Optional[np.ndarray],
                 path: Path) -> None:
    """Raise unless *rows* strictly increase in ``(src, dst)`` and start
    after *previous*, the last row of the previous non-empty shard."""
    src, dst = rows[:, 0], rows[:, 1]
    if previous is not None:
        src = np.concatenate([previous[:1], src])
        dst = np.concatenate([previous[1:2], dst])
    step_src, step_dst = np.diff(src), np.diff(dst)
    bad = np.flatnonzero((step_src < 0) | ((step_src == 0) & (step_dst <= 0)))
    if bad.size:
        at = int(bad[0])
        raise ValueError(
            f"{path}: spill rows are not in strictly increasing (src, dst) "
            f"order: ({src[at]}, {dst[at]}) is followed by "
            f"({src[at + 1]}, {dst[at + 1]}); compaction re-cuts a "
            "(src, dst)-ordered spill and does not sort (no manifest was "
            "written)")


def compact_shards(
    source: PathLike,
    destination: PathLike,
    *,
    target_shard_edges: int = 262_144,
    metadata: Optional[dict] = None,
) -> dict:
    """Compact a ``(src, dst)``-ordered shard directory into a range-indexed
    store.

    Reads any shard directory with a valid manifest whose rows, in manifest
    order, strictly increase in ``(src, dst)`` — the per-block v1 spill of
    the streaming pipeline (:class:`repro.graphs.io.NpyShardSink`), or an
    existing v2 store for re-sharding — checks that order, cuts the rows
    into shards of *target_shard_edges* edges (payload columns travel with
    their row, unchanged), and writes a **manifest v2** whose shard entries
    record the covered ``[src_min, src_max]`` source-vertex range and whose
    ``payload_columns`` carry the source's column names forward.  Peak
    memory is one mapped input shard plus the rows waiting for the next
    cut — the product edge list is never held whole.

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
    metadata:
        Extra entries merged over the source manifest's ``metadata``.

    Returns
    -------
    dict
        The manifest v2 that was written.

    Raises
    ------
    ValueError
        If a source shard's rows are out of ``(src, dst)`` order, repeat a
        row, or do not follow the previous shard's rows (the message names
        the shard file); if a shard file is malformed; or if the source
        manifest's ``total_edges`` disagrees with its shards.  No manifest
        is published then.
    """
    source, destination = Path(source), Path(destination)
    if target_shard_edges < 1:
        raise ValueError(f"target_shard_edges must be >= 1, got {target_shard_edges}")
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

    writer = _ShardWriter(destination, int(target_shard_edges))
    with trace.span("compact.recut", n_shards=len(src_manifest["shards"])):
        previous = None  # last (src, dst) of the previous non-empty shard
        for shard in src_manifest["shards"]:
            path = source / shard["file"]
            rows = read_edge_shard(path, payload_columns, mmap_mode="r")
            if not rows.shape[0]:
                continue  # zero-edge ranks leave empty shards
            _check_order(rows, previous, path)
            previous = np.array(rows[-1, :2])
            writer.push(rows)
        writer.close()

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
