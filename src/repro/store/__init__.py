"""Out-of-core shard store: compaction, manifest v2, and range queries.

The storage subsystem behind the paper's never-materialize-``C`` scaling
story.  The streaming pipeline (:mod:`repro.parallel`) spills the product
edge list as write-optimized per-block ``.npy`` shards through
:class:`repro.graphs.io.NpyShardSink` — optionally widened with named
per-edge ground-truth columns (``"triangles"``, ``"trussness"``; see
:data:`repro.parallel.KNOWN_PAYLOAD_COLUMNS`) as ``(m, 2 + k)`` rows — and
this package turns that spill into a *servable* edge store:

* :func:`compact_shards` — a checked re-cut of the ``(src, dst)``-ordered
  per-block shards into size-targeted shards, recorded in a **manifest v2**
  with per-shard ``[src_min, src_max]`` vertex ranges; payload columns ride
  along unchanged, and a spill out of order is a ``ValueError``;
* :func:`partition_manifest` — cut a compacted manifest into per-worker
  vertex-range slice manifests (no shard rewrites; slices reference the
  existing ``.npy`` files) for the range-routed serving fleet
  (:mod:`repro.serve.router`);
* :class:`ShardStore` — range-query layer answering ``degree`` /
  ``neighbors`` / ``edges_in_range`` / ``egonet`` by binary-searching the
  manifest ranges, with an LRU of decoded shards and batch-first entry
  points per the repo's vectorization conventions, serving the payload
  columns back (``with_payload=True`` / ``edge_payloads``) exactly equal
  to the closed-form factor statistics.
"""

from repro.store.compaction import MANIFEST_V2, compact_shards
from repro.store.partition import partition_manifest
from repro.store.query import ShardStore, StoreQueryMixin

__all__ = [
    "ShardStore",
    "StoreQueryMixin",
    "compact_shards",
    "partition_manifest",
    "MANIFEST_V2",
]
