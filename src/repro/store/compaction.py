"""Shard compaction: re-cut a shard store to another shard size.

A spill of the streaming pipeline (:class:`repro.graphs.io.NpyShardSink`) is
already a store — ``(src, dst)``-ordered shards under a manifest v2 with
per-shard source ranges — but it holds one shard per streamed block.
:func:`compact_shards` re-cuts any store into shards of
``target_shard_edges``: it reads the source shards in manifest order, each
memory-mapped read-only and held to its manifest ``n_edges``, checks that
the rows strictly increase in ``(src, dst)`` within and across shards (a
violation, a repeated row included, is a :class:`ValueError` naming the
shard file, and no manifest is published), cuts them, and writes a manifest
v2 recording each new shard's ``[src_min, src_max]`` range.  Peak memory is
one output shard: the rows waiting for the next cut are views of their
mapped input shards, and only a cut is copied; payload columns ride along
with their row.

The destination's manifest and fleet slices are dropped first, so an
interrupted run leaves no store and no slice lists the rewritten files; the
new manifest is published atomically after the shards, and any destination
``.npy`` it does not list is deleted then.  Compacting a compacted store
reproduces it byte for byte.

Under an active :mod:`repro.obs.trace` context the two phases record timed
spans (``compact.recut`` / ``compact.publish``); without one the span calls
are no-ops.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from repro.graphs.io import (
    _check_order,
    _check_shard_rows,
    _unpublish_store,
    read_edge_shard,
    read_shard_manifest,
    shard_manifest,
    write_shard_manifest,
)
from repro.obs import trace

__all__ = ["compact_shards"]

PathLike = Union[str, Path]


class _ShardWriter:
    """Cuts a stream of ordered batches into ``target``-sized output shards."""

    def __init__(self, directory: Path, target: int):
        self.directory = directory
        self.target = target
        self.pending: List[np.ndarray] = []
        self.pending_edges = 0
        self.shards: List[dict] = []

    def _flush(self, count: int) -> None:
        """Write the first *count* pending edges as one shard file.  Only
        the cut is copied: the rows after it stay pending as a view of
        their mapped input shard."""
        pieces, taken = [], 0
        for used, piece in enumerate(self.pending):
            take = min(count - taken, piece.shape[0])
            pieces.append(piece[:take])
            taken += take
            if taken == count:
                break
        rest = self.pending[used][take:]
        self.pending = ([rest] if rest.shape[0] else []) \
            + self.pending[used + 1:]
        self.pending_edges -= count
        shard = np.concatenate(pieces) if len(pieces) > 1 else pieces[0]
        name = f"shard-{len(self.shards):06d}.npy"
        np.save(self.directory / name, np.ascontiguousarray(shard))
        self.shards.append({
            "file": name,
            "n_edges": int(shard.shape[0]),
            "src_min": int(shard[0, 0]),
            "src_max": int(shard[-1, 0]),
        })

    def push(self, batch: np.ndarray) -> None:
        self.pending.append(batch)
        self.pending_edges += int(batch.shape[0])
        while self.pending_edges >= self.target:
            self._flush(self.target)

    def close(self) -> None:
        if self.pending_edges:
            self._flush(self.pending_edges)


def compact_shards(
    source: PathLike,
    destination: PathLike,
    *,
    target_shard_edges: int = 262_144,
    metadata: Optional[dict] = None,
) -> dict:
    """Re-cut the shard store *source* into shards of *target_shard_edges*
    edges (every shard but the last has exactly that many) at
    *destination*, which must be another directory, and return the
    manifest v2 written there.

    *source* is any valid store — a spill or an earlier compaction — and
    its rows are checked, not sorted.  *metadata* entries are merged over
    the source manifest's ``metadata``.  A :class:`ValueError` — rows out of
    ``(src, dst)`` order or repeated (naming the shard file), a malformed
    shard, one whose row count is not its manifest ``n_edges``, or an
    invalid source manifest — publishes no manifest.
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
    # Claim the destination for this run: an interrupted compaction is
    # unambiguous (no manifest = no store), and no reader can pair the old
    # manifest or a slice of it with half-rewritten shards.
    _unpublish_store(destination)

    writer = _ShardWriter(destination, int(target_shard_edges))
    with trace.span("compact.recut", n_shards=len(src_manifest["shards"])):
        previous = None  # last (src, dst) of the previous non-empty shard
        for shard in src_manifest["shards"]:
            path = source / shard["file"]
            rows = read_edge_shard(path, payload_columns, mmap_mode="r")
            _check_shard_rows(path, rows, shard["n_edges"])
            if not rows.shape[0]:
                continue  # an empty shard has no row to order
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
    manifest = shard_manifest(src_manifest.get("name", ""),
                              src_manifest["n_vertices"], payload_columns,
                              writer.shards, meta)
    with trace.span("compact.publish", n_shards=len(writer.shards)):
        write_shard_manifest(destination, manifest)
        # The manifest is the source of truth for directory-glob readers:
        # any .npy it does not list (a previous run's shards, finer-grained
        # or from a spill) is stale — discard it.
        listed = {shard["file"] for shard in writer.shards}
        for stray in destination.glob("*.npy"):
            if stray.name not in listed:
                stray.unlink()
    return manifest
