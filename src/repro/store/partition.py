"""Cut a store's manifest into per-worker vertex-range slice manifests.

A serving fleet (:mod:`repro.serve.router`) wants N workers, each owning a
contiguous slice ``[src_lo, src_hi)`` of the vertex space.  Because every
store — a spill as the streaming pipeline wrote it, or a compaction of one —
is globally sorted by source and its manifest v2 records each shard's
``[src_min, src_max]`` range, a slice is just a *manifest* artifact:
:func:`partition_manifest` writes one sub-directory per worker whose
``manifest.json`` lists the subset of existing ``.npy`` shard files that
overlap the slice's assigned range — by relative path, so **no shard bytes
are rewritten or copied**, and every slice opens through the ordinary
:class:`repro.store.ShardStore` / :func:`repro.graphs.io.read_shard_manifest`
path with full validation.

Two consequences worth naming:

- A shard whose range straddles a slice boundary is listed by *both*
  adjacent slices (each worker must be able to answer every vertex in its
  assigned range).  The router routes strictly by assigned range, so no edge
  is ever served twice; a slice manifest's ``total_edges`` counts its listed
  shards and therefore double-counts boundary shards relative to the parent.
- Slice identity (``index``/``of``/``src_lo``/``src_hi``) travels in the
  manifest's free-form ``metadata`` under a ``"slice"`` key; everything else
  (``n_vertices``, ``payload_columns``, ``name``) is inherited verbatim from
  the parent so a slice store answers with the parent's global id space.

Re-partitioning is idempotent: manifests are rewritten atomically and stale
slice directories from a previous, larger partition are removed.
"""

from __future__ import annotations

import os
import re
import shutil
from pathlib import Path
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.graphs.io import MANIFEST_V2, read_shard_manifest, write_shard_manifest

__all__ = ["partition_manifest"]

PathLike = Union[str, Path]


def _slice_boundaries(manifest: dict, n_slices: int) -> List[int]:
    """Edge-balanced interior boundaries at shard granularity.

    Cuts fall *between* shards (after the shard whose cumulative edge count
    first reaches the k/N quantile), so the auto-partition never splits a
    shard and the typical slice carries ~``total/N`` edges.  With fewer
    shards than slices the trailing slices come out empty — legal, and the
    router simply never routes to them.
    """
    shards = manifest["shards"]
    n_vertices = int(manifest["n_vertices"])
    if not shards:
        return [n_vertices] * (n_slices - 1)
    cumulative = np.cumsum([int(s["n_edges"]) for s in shards], dtype=np.int64)
    total = int(cumulative[-1])
    boundaries: List[int] = []
    previous = 0
    for k in range(1, n_slices):
        target = k * total / n_slices
        index = int(np.searchsorted(cumulative, target, side="left"))
        index = min(index, len(shards) - 1)
        boundary = int(shards[index]["src_max"]) + 1
        boundary = min(max(boundary, previous), n_vertices)
        boundaries.append(boundary)
        previous = boundary
    return boundaries


def partition_manifest(store_dir: PathLike, *,
                       n_slices: Optional[int] = None,
                       boundaries: Optional[Sequence[int]] = None,
                       destination: Optional[PathLike] = None,
                       prefix: str = "slice") -> List[dict]:
    """Write per-worker slice manifests for a shard store.

    Parameters
    ----------
    store_dir:
        A shard directory (manifest v2, source-sorted): a spill or a
        compacted store.
    n_slices:
        Cut into this many contiguous slices with edge-balanced boundaries
        chosen at shard granularity.  Exactly one of *n_slices* /
        *boundaries* must be given.
    boundaries:
        Explicit interior boundaries (nondecreasing, each in
        ``[0, n_vertices]``); slice *i* is assigned
        ``[boundaries[i-1], boundaries[i])`` with 0 and ``n_vertices``
        implied at the ends.  Equal consecutive boundaries yield an empty
        slice.  Unlike the automatic cut, explicit boundaries may fall
        *inside* a shard's range — that shard is then listed by both
        neighbouring slices.
    destination:
        Directory receiving the ``<prefix>-NNN`` slice sub-directories
        (default ``store_dir/slices``).  Stale ``<prefix>-NNN`` directories
        from a previous partition are removed.
    prefix:
        Slice directory name prefix.

    Returns
    -------
    One descriptor per slice, in range order:
    ``{"directory", "index", "src_lo", "src_hi", "n_shards", "n_edges"}``.
    """
    store_dir = Path(store_dir)
    manifest = read_shard_manifest(store_dir)
    if (n_slices is None) == (boundaries is None):
        raise ValueError("pass exactly one of n_slices / boundaries")
    n_vertices = int(manifest["n_vertices"])
    if boundaries is None:
        if n_slices < 1:
            raise ValueError(f"n_slices must be >= 1, got {n_slices}")
        interior = _slice_boundaries(manifest, int(n_slices))
    else:
        interior = [int(b) for b in boundaries]
        for previous, boundary in zip([0] + interior, interior):
            if boundary < previous or boundary > n_vertices:
                raise ValueError(
                    f"boundaries must be nondecreasing within "
                    f"[0, {n_vertices}], got {interior}")
    edges = [0] + interior + [n_vertices]
    ranges = list(zip(edges[:-1], edges[1:]))

    destination = Path(destination) if destination is not None else store_dir / "slices"
    destination.mkdir(parents=True, exist_ok=True)
    shards = manifest["shards"]
    src_min = np.asarray([int(s["src_min"]) for s in shards], dtype=np.int64)
    src_max = np.asarray([int(s["src_max"]) for s in shards], dtype=np.int64)

    result = []
    wanted = set()
    for index, (lo, hi) in enumerate(ranges):
        slice_dir = destination / f"{prefix}-{index:03d}"
        wanted.add(slice_dir.name)
        if lo < hi and len(shards):
            keep = np.flatnonzero((src_max >= lo) & (src_min <= hi - 1))
        else:
            keep = np.asarray([], dtype=np.int64)
        slice_dir.mkdir(exist_ok=True)
        listed = []
        for i in keep:
            entry = dict(shards[int(i)])
            entry["file"] = os.path.relpath(store_dir / entry["file"], slice_dir)
            listed.append(entry)
        n_edges = sum(int(entry["n_edges"]) for entry in listed)
        slice_manifest = {
            "format_version": MANIFEST_V2,
            "kind": "edge-shards",
            "name": manifest.get("name", ""),
            "n_vertices": n_vertices,
            "total_edges": n_edges,
            "sorted_by": "source",
            "payload_columns": list(manifest["payload_columns"]),
            "shards": listed,
            "metadata": {
                **dict(manifest.get("metadata") or {}),
                "slice": {
                    "index": index,
                    "of": len(ranges),
                    "src_lo": int(lo),
                    "src_hi": int(hi),
                    "store": os.path.relpath(store_dir, slice_dir),
                },
            },
        }
        write_shard_manifest(slice_dir, slice_manifest)
        result.append({
            "directory": slice_dir,
            "index": index,
            "src_lo": int(lo),
            "src_hi": int(hi),
            "n_shards": len(listed),
            "n_edges": n_edges,
        })

    # Drop slice directories a previous (wider) partition left behind, so a
    # re-partition's fleet can't accidentally mount a stale slice.  Only
    # directories matching our own naming scheme are touched.
    stale = re.compile(rf"^{re.escape(prefix)}-\d+$")
    for entry in sorted(destination.iterdir()):
        if entry.is_dir() and stale.match(entry.name) and entry.name not in wanted:
            shutil.rmtree(entry)
    return result
