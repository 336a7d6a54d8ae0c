"""Network query service over shard stores.

The serving layer over the out-of-core side (a streamed spill is a store;
:class:`~repro.store.ShardStore` answers range queries over it with exact
per-edge ground truth): this package puts that store behind a socket so
consumers no longer run in-process:

* :mod:`repro.serve.protocol` — length-prefixed frames, one response per
  request, error frames carrying the store's exception messages verbatim,
  the version rules recorded in the ROADMAP, and the one array encoding
  (v3): a JSON control frame whose arrays are descriptors, then one binary
  frame holding every array as raw ``int64`` bytes;
* :mod:`repro.serve.shaping` — the single definition of every query's
  answer shape, shared with the CLI's ``query --json`` so the two surfaces
  cannot drift;
* :class:`ShardStoreServer` — the asyncio front-end: one concurrent-safe
  store per worker, store work on a bounded thread pool, concurrent scalar
  ``degree`` / ``neighbors`` requests coalesced into the store's batch-first
  entry points, ``stats`` / graceful-shutdown operational surface
  (:class:`ThreadedServer` runs it on a background thread for synchronous
  callers);
* :class:`QueryClient` — the blocking wire client: reused connection, batch
  helpers, and answers reconstructed to byte-equality with the in-process
  store (``int64`` rows, rebuilt :class:`~repro.graphs.egonet.Egonet` /
  :class:`~repro.graphs.Graph` objects);
* :mod:`repro.serve.router` — the horizontal-scale tier:
  :class:`RangeRouter` fronts N vertex-range slice workers
  (:func:`~repro.store.partition_manifest` slices), splitting batch
  requests by manifest ranges, fanning out concurrently with one replica
  failover retry, and merging answers in source order — byte-equal to a
  single store, over the same protocol.

CLI: ``repro-kron serve STORE`` stands a server up (``--fleet N`` serves a
router over N in-process slice workers);
``repro-kron query --connect HOST:PORT ...`` runs the same query surface
remotely against either.
"""

from repro.serve.client import QueryClient
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    ServerError,
)
from repro.serve.router import (
    FleetStore,
    RangeRouter,
    ThreadedRouter,
    fleet_info_from_manifest,
)
from repro.serve.server import ShardStoreServer, ThreadedServer

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "FleetStore",
    "ProtocolError",
    "QueryClient",
    "RangeRouter",
    "ServerError",
    "ShardStoreServer",
    "ThreadedRouter",
    "ThreadedServer",
    "fleet_info_from_manifest",
]
