"""Out-of-core shard store: range queries, fleet slices and re-cuts.

The storage subsystem behind the paper's never-materialize-``C`` scaling
story.  The streaming pipeline (:mod:`repro.parallel`) spills the product
edge list through :class:`repro.graphs.io.NpyShardSink` — optionally
widened with named per-edge ground-truth columns (``"triangles"``,
``"trussness"``; see :data:`repro.parallel.KNOWN_PAYLOAD_COLUMNS`) as
``(m, 2 + k)`` rows — as a *store*: ``(src, dst)``-ordered shards under a
**manifest v2** (:data:`MANIFEST_V2`) with per-shard ``[src_min, src_max]``
vertex ranges.  This package reads it:

* :class:`ShardStore` — range-query layer answering ``degree`` /
  ``neighbors`` / ``edges_in_range`` / ``egonet`` by binary-searching the
  manifest ranges, with an LRU of decoded shards and batch-first entry
  points per the repo's vectorization conventions, serving the payload
  columns back (``with_payload=True`` / ``edge_payloads``) exactly equal
  to the closed-form factor statistics;
* :func:`partition_manifest` — cut a store's manifest into per-worker
  vertex-range slice manifests (no shard rewrites; slices reference the
  existing ``.npy`` files) for the range-routed serving fleet
  (:mod:`repro.serve.router`);
* :func:`compact_shards` — a checked re-cut of a store into shards of
  another size, payload columns unchanged.
"""

from repro.graphs.io import MANIFEST_V2
from repro.store.compaction import compact_shards
from repro.store.partition import partition_manifest
from repro.store.query import ShardStore, StoreQueryMixin

__all__ = [
    "ShardStore",
    "StoreQueryMixin",
    "compact_shards",
    "partition_manifest",
    "MANIFEST_V2",
]
