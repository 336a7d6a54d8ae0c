"""Range queries over an edge-shard store, without loading it whole.

A shard store — the streaming pipeline's spill
(:class:`repro.graphs.io.NpyShardSink`) as it was written, or a re-cut of
one (:func:`repro.store.compact_shards`) — is the out-of-core stand-in for
a materialized product adjacency: its shards are globally sorted by source
vertex and the manifest v2 records each shard's ``[src_min, src_max]``
range.  :class:`ShardStore` answers the local queries
:class:`repro.core.KroneckerGraph` answers from factor rows —
``degree(v)``, ``neighbors(v)``, ``edges_in_range(lo, hi)``, ``egonet(v)``,
``subgraph(vertices)`` — by binary-searching the manifest ranges and decoding
only the one or two shards that overlap the query, so serving a vertex query
over a billion-edge spill touches kilobytes, not the whole directory.

Stores whose manifest names extra ``payload_columns`` (``"triangles"``,
``"trussness"``, …) serve the per-edge ground truth alongside the topology:
``edges_for_sources`` / ``edges_in_range`` grow ``with_payload=True``
variants returning the full ``(m, 2 + k)`` rows, ``egonet`` / ``subgraph``
can return the induced payload rows, and :meth:`ShardStore.edge_payloads`
answers point lookups.  The LRU caches the decoded payload block alongside
the topology — one decode serves both kinds of query.

Decoded shards are kept in a small LRU cache: repeated queries against the
same region of the graph (the "heavy traffic" serving pattern) hit memory,
not disk.  Following the PR 1 vectorization conventions, the hot entry points
are batch-first (``out_degrees`` / ``degrees`` / ``edges_for_sources`` take
index arrays) and the scalar forms are thin wrappers; there is no per-edge
Python loop anywhere in the query path.

**Decodes are zero-copy by default**: shards are opened through
:func:`repro.graphs.io.read_edge_shard` with ``mmap_mode="r"`` — a fixed
header check, then a plain read-only ``ndarray`` over one ``mmap`` of the
file; the same reader compaction re-cuts through, and every decode is held
to its shard's manifest ``n_edges`` — so the LRU caches read-only *views*
of the on-disk files, not private copies, and no slice a query takes runs
Python hooks.  A warm bulk query
(``edges_in_range`` feeding the :mod:`repro.serve` binary data plane)
slices the page cache instead of burning CPU on array copies.
``mmap=False`` opts back into eager copies (e.g. when the store lives on a
filesystem whose mappings are slow).  The mapping lifecycle is tied to the
cache: evicting an entry (LRU overflow, :meth:`clear_cache`, :meth:`close`)
drops the store's reference and the underlying ``mmap`` — and its file
descriptor — is released as soon as the last outstanding query view dies
(CPython refcounting makes this prompt; the fd-churn test in
``tests/test_shard_store.py`` holds it to account).  :meth:`stats` reports
the split: ``resident_bytes`` counts private copies held by the cache,
``mapped_bytes`` counts bytes addressable through cached mappings.

A batch call (``degrees`` / ``out_degrees``, ``edges_for_sources``,
``edge_payloads``) makes one walk over the shards that hold rows of its
vertices (:meth:`ShardStore._walk`), not every shard between its smallest
and largest vertex: a uniform batch over a many-shard store spans most of
the store but lives in a few of its shards.  The walk sorts the batch once
and gives each held shard its contiguous slice of the sorted batch, so a
visit searches only its own vertices and the answers are scattered back to
the caller's order; a visit holding one source takes a plain row slice.
An answer may therefore be a slice of a cached shard, which is why the
store marks every shard it caches read-only, eager decodes included.

``egonet`` and ``subgraph`` are *plans* (:class:`StoreQueryMixin`), which
this store drives on its own primitives and the range router's fleet
façade awaits on its event loop; an egonet is two gathers.  Only the
in-process ``egonet`` / ``subgraph`` / ``subgraph_adjacency`` build scipy
matrices, and scipy and the graph classes are imported there (through
:func:`induced_adjacency`), so a server imports this module without
loading scipy.

The cache and its ``shard_reads`` / ``cache_hits`` counters are
**concurrent-safe**: a lock guards every cache mutation, so one store can be
shared by many reader threads — the serving pattern of
:mod:`repro.serve`, whose asyncio front-end answers calls over at most two
shards, all cached (:meth:`ShardStore.cached`), on its event loop and runs
the rest on its decode thread.  Shard *decodes* run outside the lock (two
threads missing on the same shard may both read the file; the loser's rows
are dropped and counted as a read), so concurrent misses on different
shards overlap their I/O.

Telemetry lives on a :class:`repro.obs.MetricsRegistry` (PR 8): the
counters are ``store.shard_reads`` / ``store.cache_hits`` /
``store.evictions`` series and the cache occupancy is exposed as callback
gauges, so :meth:`ShardStore.stats` is a *view* over the registry a server
shares with this store rather than a private dict; :meth:`ShardStore.reset_stats` rearms the counters between
measurement windows.  A cache-miss decode opens a ``store.decode`` leaf
span under the current span when a request trace is active
(:mod:`repro.obs.trace`), which is how a routed query's span tree reaches
all the way down to the shard file.
"""

from __future__ import annotations

import mmap as _mmap
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.graphs.egonet import Egonet
from repro.graphs.io import _check_shard_rows, read_edge_shard, read_shard_manifest
from repro.lint.runtime import new_lock
from repro.obs import MetricsRegistry, trace
from repro.perf.kernels import ragged_take

if TYPE_CHECKING:
    import scipy.sparse as sp

    from repro.graphs.adjacency import Graph

__all__ = ["ShardStore", "StoreQueryMixin", "induced_adjacency"]

PathLike = Union[str, Path]

#: Largest vertex count for which ``src * n + dst`` fits an ``int64`` key.
_MAX_ENCODABLE_VERTICES = np.int64(3_037_000_499)  # floor(sqrt(2**63 - 1))


#: The store's one shard decode, called as ``_load_shard_file(path,
#: payload_columns, mmap_mode=...)``.  A module-level name so tests can hook
#: it to count exactly which files a query touches.
_load_shard_file = read_edge_shard


def induced_adjacency(vertices: Sequence[int],
                      edges: np.ndarray) -> sp.csr_matrix:
    """Induced adjacency of the global-id *edges* over *vertices*: local
    vertex *i* is ``vertices[i]`` (caller order preserved).  The one
    relabelling of the store's and the served client's graphs, so they
    are equal matrices."""
    import scipy.sparse as sp

    vs = np.asarray(vertices, dtype=np.int64)
    k = vs.shape[0]
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.shape[0] == 0 or k == 0:
        return sp.csr_matrix((k, k), dtype=np.int64)
    order = np.argsort(vs, kind="stable")
    sorted_vs = vs[order]
    local_src = order[np.searchsorted(sorted_vs, edges[:, 0])]
    local_dst = order[np.searchsorted(sorted_vs, edges[:, 1])]
    data = np.ones(edges.shape[0], dtype=np.int64)
    return sp.csr_matrix((data, (local_src, local_dst)), shape=(k, k))


class StoreQueryMixin:
    """What both store backends share: argument checks, row assembly, and
    ``egonet`` / ``subgraph`` written once as *plans*.

    A plan is a generator that yields the batch-primitive calls it needs
    as ``(method, args, kwargs)``, is sent each answer, and returns its
    rows.  :class:`ShardStore` drives it on its own primitives; the fleet
    façade (:class:`repro.serve.router.FleetStore`) awaits the same calls
    through its ``*_async`` primitives on the router's loop, so routed
    answers are byte-equal to single-store answers by construction.
    """

    def _store_label(self) -> str:
        """Human-facing identity used in error messages: the directory for an
        on-disk store, the manifest name for a façade without one."""
        directory = getattr(self, "directory", None)
        if directory is not None:
            return str(directory)
        return str(self.manifest.get("name") or "store")

    def _check_vertices(self, vs: np.ndarray) -> np.ndarray:
        vs = np.ascontiguousarray(vs, dtype=np.int64)
        # One reduction: viewed as uint64, a negative id exceeds any count.
        if vs.size and vs.view(np.uint64).max() >= self.n_vertices:
            raise IndexError("product vertex id out of range")
        return vs

    def _require_payload(self) -> None:
        if not self.payload_columns:
            raise ValueError(
                f"{self._store_label()}: store carries no payload columns "
                "(manifest payload_columns is ['src', 'dst']); re-stream the "
                "spill with payload columns to serve per-edge ground truth")

    def _finish_rows(self, parts, with_payload: bool) -> np.ndarray:
        """Assemble gathered full-width rows and slice off the payload unless
        the caller asked for it."""
        if with_payload:
            self._require_payload()
        width = self._width if with_payload else 2
        if not parts:
            return np.zeros((0, width), dtype=np.int64)
        rows = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return rows if with_payload else rows[:, :2]

    def payload_index(self, column: str) -> int:
        """Position of *column* within the payload slice of a full row
        (i.e. ``row[2 + payload_index(column)]`` is its value)."""
        try:
            return self.payload_columns.index(column)
        except ValueError:
            raise ValueError(
                f"{self._store_label()}: no payload column {column!r}; this "
                f"store carries {list(self.payload_columns)}") from None

    # ------------------------------------------------------------------
    # Plans
    # ------------------------------------------------------------------
    def _subgraph_plan(self, vertices: Sequence[int], with_payload: bool):
        """Plan: the stored rows with both endpoints in *vertices*
        (global ids, ``(src, dst)``-sorted), from one ``edges_for_sources``
        round over the selection."""
        vs = self._check_vertices(np.asarray(vertices, dtype=np.int64))
        sel = np.unique(vs)
        if sel.size != vs.size:
            # Reject before the gather: decoding shards for a request that
            # is doomed anyway would be free denial-of-work.
            raise ValueError("subgraph vertex selection contains duplicates")
        rows = yield ("edges_for_sources", (sel,),
                      {"with_payload": with_payload})
        pos = np.minimum(np.searchsorted(sel, rows[:, 1]), sel.size - 1)
        return rows[sel[pos] == rows[:, 1]]

    def _egonet_plan(self, v: int, with_payload: bool):
        """Plan: ``(vertices, rows)`` of the egonet of *v* in two rounds —
        the centre's row, then the rows induced on the centre and its
        neighbours (:meth:`_subgraph_plan`).  *vertices* is the centre, then
        its sorted neighbours: the :func:`repro.graphs.egonet.egonet`
        order."""
        centre = yield "edges_for_sources", (np.asarray([v]),), {}
        neighbours = centre[:, 1]
        vertices = np.concatenate([[np.int64(v)], neighbours[neighbours != v]])
        rows = yield from self._subgraph_plan(vertices, with_payload)
        return vertices, rows


class ShardStore(StoreQueryMixin):
    """Read-side query layer over a (manifest v2) shard directory.

    Parameters
    ----------
    directory:
        A shard directory: a spill written by
        :class:`~repro.graphs.io.NpyShardSink`, a store re-cut by
        :func:`repro.store.compact_shards`, or a fleet slice.
    cache_shards:
        Number of decoded shards kept in the LRU cache (≥ 1).  The cache is
        the store's only O(edges) memory; everything else is manifest-sized.
    mmap:
        ``True`` (default) decodes shards as plain read-only arrays over one
        ``mmap`` of each file (:func:`~repro.graphs.io.read_edge_shard` with
        ``mmap_mode="r"``) so the cache holds read-only views of the files
        — zero copies on the bulk read path, one open mapping (and file
        descriptor) per cached shard, released on eviction.  ``False`` opts
        back into eager array copies (no open files kept; each decode pays
        a full read).
    registry:
        The :class:`repro.obs.MetricsRegistry` to register this store's
        series on (``store.shard_reads``, ``store.cache_hits``,
        ``store.evictions`` and the occupancy gauges).  A server passes its
        own registry here so server and store stats are views over one
        registry; ``None`` creates a private one.  One store per registry —
        the occupancy gauges are callback-backed.  An LRU eviction is
        counted (``store.evictions``), not recorded on a flight recorder:
        one per cold decode, such events would flush a server's other
        events out of its ring.

    Attributes
    ----------
    shard_reads:
        Shard files decoded from disk so far (cache misses).
    cache_hits:
        Queries served from the decoded-shard cache.
    """

    def __init__(self, directory: PathLike, *, cache_shards: int = 4,
                 mmap: bool = True, registry: Optional[MetricsRegistry] = None):
        self.directory = Path(directory)
        manifest = read_shard_manifest(self.directory)
        if cache_shards < 1:
            raise ValueError(f"cache_shards must be >= 1, got {cache_shards}")
        self.manifest = manifest
        self.n_vertices = int(manifest["n_vertices"])
        self.total_edges = int(manifest["total_edges"])
        #: Extra per-edge payload columns the shards carry beyond (src, dst);
        #: empty for a topology-only store.
        self.payload_columns = tuple(manifest["payload_columns"][2:])
        self._width = 2 + len(self.payload_columns)
        self._files = [shard["file"] for shard in manifest["shards"]]
        self._paths = [self.directory / name for name in self._files]
        self._n_edges = [shard["n_edges"] for shard in manifest["shards"]]
        self._src_min = np.asarray(
            [shard["src_min"] for shard in manifest["shards"]], dtype=np.int64)
        self._src_max = np.asarray(
            [shard["src_max"] for shard in manifest["shards"]], dtype=np.int64)
        # Range ordering/sanity is validated by read_shard_manifest (the one
        # reader every consumer shares), so a corrupt manifest fails there
        # with a field-naming ValueError before this object exists.
        self.cache_shards = int(cache_shards)
        self.mmap = bool(mmap)
        # index -> [rows, encoded (src·n + dst) keys or None (built lazily)]
        self._cache: "OrderedDict[int, list]" = OrderedDict()
        # Guards the LRU OrderedDict: queries may come from many threads at
        # once (repro.serve offloads decodes to a pool).  The traffic
        # counters live on the registry (leaf-locked instruments), so they
        # can be read mid-serve without touching this lock.
        self._lock = new_lock("store.lru")
        self.registry = registry if registry is not None else MetricsRegistry()
        self._shard_reads = self.registry.counter("store.shard_reads")
        self._cache_hits = self.registry.counter("store.cache_hits")
        self._evictions = self.registry.counter("store.evictions")
        self.registry.gauge("store.cached_shards",
                            fn=lambda: self._cache_usage()[2])
        self.registry.gauge("store.resident_bytes",
                            fn=lambda: self._cache_usage()[0])
        self.registry.gauge("store.mapped_bytes",
                            fn=lambda: self._cache_usage()[1])

    # ------------------------------------------------------------------
    # Shard access
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        """Number of shards in the store."""
        return len(self._files)

    def _entry(self, index: int) -> list:
        with self._lock:
            cached = self._cache.get(index)
            if cached is not None:
                self._cache_hits.inc()
                self._cache.move_to_end(index)
                return cached
        # Decode outside the lock so concurrent misses on *different* shards
        # overlap their file I/O; a racing miss on the same shard costs one
        # redundant decode (counted below) but never corrupts the cache.
        with trace.leaf_span("store.decode", shard=self._files[index]):
            rows = _load_shard_file(self._paths[index],
                                    self.manifest["payload_columns"],
                                    mmap_mode="r" if self.mmap else None)
        _check_shard_rows(self._paths[index], rows, self._n_edges[index])
        # Answers are slices of cached rows: an eager decode is a writable
        # private copy, and a caller writing into its answer must not
        # change the next one.
        rows.flags.writeable = False
        with self._lock:
            self._shard_reads.inc()
            cached = self._cache.get(index)
            if cached is not None:
                self._cache.move_to_end(index)
                return cached
            entry = [rows, None]
            self._cache[index] = entry
            if len(self._cache) > self.cache_shards:
                self._cache.popitem(last=False)
                self._evictions.inc()
        return entry

    def _shard(self, index: int) -> np.ndarray:
        """Decoded ``(m, 2 + k)`` row array of one shard, through the LRU
        cache — payload columns are cached alongside the topology, so one
        decode serves both kinds of query."""
        return self._entry(index)[0]

    def _shard_keys(self, entry: list) -> np.ndarray:
        """Sorted encoded ``src · n + dst`` keys of one cache *entry*
        (from :meth:`_entry`), built once and cached with the decoded edges
        so repeated payload lookups stay shard-size-independent."""
        keys = entry[1]
        if keys is None:
            edges = entry[0]
            keys = edges[:, 0] * np.int64(self.n_vertices) + edges[:, 1]
            # Plain slot assignment: racing threads compute identical arrays,
            # so last-writer-wins is safe and needs no lock round-trip.
            entry[1] = keys
        return keys

    def clear_cache(self) -> None:
        """Drop every decoded shard (counters are kept).

        With ``mmap=True`` this releases the store's reference to each
        cached mapping; the ``mmap`` object — and its file descriptor — is
        closed as soon as no query-returned view of that shard is alive
        (forcing the close under an outstanding view would invalidate the
        caller's array mid-read, so lifecycle follows the last reference).
        """
        with self._lock:
            self._cache.clear()

    def close(self) -> None:
        """Release every cached decode (and, with ``mmap=True``, the open
        mappings).  The store stays usable — the next query just decodes
        again — so this is a cache-lifecycle call, not a destructor."""
        self.clear_cache()

    def _cache_usage(self) -> Tuple[int, int, int]:
        """``(resident_bytes, mapped_bytes, cached_shards)`` in one locked
        walk — the backing for both :meth:`stats` and the registry's
        callback gauges."""
        with self._lock:
            resident = 0
            mapped = 0
            for rows, keys in self._cache.values():
                if isinstance(rows.base, _mmap.mmap):
                    mapped += rows.nbytes
                else:
                    resident += rows.nbytes
                if keys is not None:
                    resident += keys.nbytes
            return resident, mapped, len(self._cache)

    @property
    def shard_reads(self) -> int:
        """Shard files decoded from disk (the ``store.shard_reads`` series)."""
        return self._shard_reads.value

    @property
    def cache_hits(self) -> int:
        """Queries served from the decoded-shard LRU (``store.cache_hits``)."""
        return self._cache_hits.value

    def stats(self) -> dict:
        """Snapshot of the cache counters and occupancy — a view over the
        store's series on :attr:`registry`.

        The serving layer (:mod:`repro.serve`) exposes this verbatim through
        its ``stats`` request, so the keys are part of the wire surface:
        ``shard_reads`` (files decoded from disk), ``cache_hits`` (queries
        served from the decoded-shard LRU), ``evictions`` (decoded shards
        dropped by LRU overflow), ``cached_shards`` (current
        occupancy), ``cache_shards`` (capacity), ``n_shards``, ``mmap``
        (whether decodes are zero-copy mappings), and the bytes-resident
        split: ``resident_bytes`` counts private array copies the cache
        holds (decoded rows when ``mmap=False``, plus lazily built
        encoded-key arrays), ``mapped_bytes`` counts bytes addressable
        through cached read-only mappings (page-cache backed, not private
        memory).  A warm ``mmap=True`` store answering bulk range queries
        shows both numbers flat across queries — the no-per-query-copy
        acceptance bar.
        """
        resident, mapped, cached = self._cache_usage()
        return {
            "shard_reads": self._shard_reads.value,
            "cache_hits": self._cache_hits.value,
            "evictions": self._evictions.value,
            "cached_shards": cached,
            "cache_shards": self.cache_shards,
            "n_shards": self.n_shards,
            "mmap": self.mmap,
            "resident_bytes": resident,
            "mapped_bytes": mapped,
        }

    def reset_stats(self) -> None:
        """Zero ``shard_reads`` / ``cache_hits`` / ``evictions`` (decoded
        shards stay cached), so a measurement window can start from a warm
        cache."""
        self._shard_reads.reset()
        self._cache_hits.reset()
        self._evictions.reset()

    def _overlapping(self, lo: int, hi_inclusive: int) -> Tuple[int, int]:
        """Half-open shard-index range whose vertex ranges intersect
        ``[lo, hi_inclusive]`` — the manifest binary search at the heart of
        every query."""
        first = int(self._src_max.searchsorted(lo, side="left"))
        last = int(self._src_min.searchsorted(hi_inclusive, side="right"))
        return first, max(first, last)

    def _walk(self, vs: np.ndarray) -> Tuple[np.ndarray, np.ndarray, Iterable]:
        """The one shard walk of a batch call: ``(order, sorted_vs, visits)``.

        The batch is sorted once (``sorted_vs = vs[order]``, stable).  Each
        visit is ``(index, start, stop)``, one per shard holding sources of
        the batch, in ascending shard order: ``sorted_vs[start:stop]`` are
        the batch's sources inside that shard's ``[src_min, src_max]``.  A
        source's rows can run across a cut into the next shard (compaction
        cuts inside a source), so it may lie in two or more visits, and a
        source in a gap between shard ranges lies in none.  Both bounds
        come from two vectorized searches of the manifest ranges of the
        batch's min–max window, so a shard that holds none of the batch is
        never visited, however many lie between its extremes."""
        order = vs.argsort(kind="stable")
        svs = vs[order]
        if svs.size == 0:
            return order, svs, ()
        first, last = self._overlapping(svs[0], svs[-1])
        starts = svs.searchsorted(self._src_min[first:last], side="left")
        stops = svs.searchsorted(self._src_max[first:last], side="right")
        return order, svs, ((index, start, stop) for index, start, stop
                            in zip(range(first, last), starts.tolist(),
                                   stops.tolist())
                            if start < stop)

    def cached(self, lo: int, hi: int, *,
               max_shards: Optional[int] = None) -> bool:
        """Whether every shard overlapping sources ``[lo, hi]`` is in the
        LRU — and, given *max_shards*, at most that many overlap.  Decodes
        nothing, bumps no counter and leaves the LRU order alone; the
        answer can go stale as soon as the lock is released."""
        first, last = self._overlapping(lo, hi)
        if max_shards is not None and last - first > max_shards:
            return False
        with self._lock:
            return all(index in self._cache for index in range(first, last))

    # ------------------------------------------------------------------
    # Batched queries (the hot path)
    # ------------------------------------------------------------------
    def _row_counts(self, vs: np.ndarray, *, drop_self_loops: bool
                    ) -> np.ndarray:
        """Stored rows per vertex of *vs*, less its self loop when
        *drop_self_loops*.

        One walk (:meth:`_walk`) over the shards holding the batch, each
        decoded exactly once, so a whole-store ``degrees`` call reads every
        shard once even when the window exceeds the LRU.  A visit holding
        one source counts its row segment and finds the self loop with one
        search of the segment's sorted ``dst`` values; a visit holding many
        gathers the ``dst`` values of every segment and compares them to
        their sources.
        """
        order, svs, visits = self._walk(vs)
        counts = np.zeros(svs.shape[0], dtype=np.int64)
        for index, start, stop in visits:
            shard = self._shard(index)
            srcs = shard[:, 0]
            if stop - start == 1:
                v = svs[start]
                left, right = srcs.searchsorted(v), srcs.searchsorted(v, "right")
                counts[start] += right - left
                if drop_self_loops:
                    dsts = shard[left:right, 1]
                    at = dsts.searchsorted(v)
                    if at < dsts.shape[0] and dsts[at] == v:
                        counts[start] -= 1
                continue
            lefts = srcs.searchsorted(svs[start:stop])
            rights = srcs.searchsorted(svs[start:stop], "right")
            counts[start:stop] += rights - lefts
            if drop_self_loops:
                dsts = ragged_take(shard[:, 1], lefts, rights)
                # owner[t]: the sorted-batch position gathered row t is for
                owner = np.repeat(np.arange(start, stop), rights - lefts)
                counts[owner[dsts == svs[owner]]] -= 1
        answer = np.empty_like(counts)
        answer[order] = counts
        return answer

    def out_degrees(self, vs: Sequence[int]) -> np.ndarray:
        """Stored out-entry count per source vertex (array-in / array-out).

        For an undirected product this is the raw row count including a self
        loop; :meth:`degrees` applies the self-loop correction to match
        :meth:`repro.core.KroneckerGraph.degree`.
        """
        return self._row_counts(self._check_vertices(vs),
                                drop_self_loops=False)

    def degrees(self, vs: Sequence[int]) -> np.ndarray:
        """Degree per vertex with the self loop excluded, matching
        :meth:`repro.core.KroneckerGraph.degree` (array-in / array-out)."""
        return self._row_counts(self._check_vertices(vs),
                                drop_self_loops=True)

    def edges_for_sources(self, vs: Sequence[int], *,
                          with_payload: bool = False) -> np.ndarray:
        """All stored edges whose source is in *vs*, in ``(src, dst)`` order.

        The batched gather underneath :meth:`neighbors` and
        :meth:`subgraph_adjacency`: one walk over the shards holding the
        batch (:meth:`_walk`); a visit holding one source takes its row
        slice, a visit holding many one vectorized slice-concatenation, with
        no per-edge loop.  Duplicate sources in *vs* are deduplicated.  With
        ``with_payload=True`` the full ``(m, 2 + k)`` rows — topology plus
        the manifest's named ground-truth columns — are returned.
        """
        _, svs, visits = self._walk(np.unique(self._check_vertices(vs)))
        parts = []
        for index, start, stop in visits:
            shard = self._shard(index)
            srcs = shard[:, 0]
            if stop - start == 1:
                v = svs[start]
                part = shard[srcs.searchsorted(v):srcs.searchsorted(v, "right")]
            else:
                part = ragged_take(shard, srcs.searchsorted(svs[start:stop]),
                                   srcs.searchsorted(svs[start:stop], "right"))
            if part.shape[0]:
                parts.append(part)
        return self._finish_rows(parts, with_payload)

    def edges_in_range(self, lo: int, hi: int, *,
                       with_payload: bool = False) -> np.ndarray:
        """All stored edges with source vertex in ``[lo, hi)``, sorted by
        ``(src, dst)``; only the shards whose manifest range overlaps the
        query are decoded.  ``with_payload=True`` returns the full
        ``(m, 2 + k)`` rows."""
        lo, hi = int(lo), int(hi)
        if lo >= hi or self.n_shards == 0:
            return self._finish_rows([], with_payload)
        first, last = self._overlapping(lo, hi - 1)
        parts = []
        for index in range(first, last):
            shard = self._shard(index)
            srcs = shard[:, 0]
            left = np.searchsorted(srcs, lo, side="left")
            right = np.searchsorted(srcs, hi - 1, side="right")
            if right > left:
                parts.append(shard[left:right])
        return self._finish_rows(parts, with_payload)

    # ------------------------------------------------------------------
    # Payload lookups
    # ------------------------------------------------------------------
    def edge_payloads(self, ps: Sequence[int], qs: Sequence[int]) -> np.ndarray:
        """Payload values of the stored edges ``(ps[t], qs[t])``.

        Array-in / array-out: returns an ``(m, k)`` ``int64`` array whose
        columns follow :attr:`payload_columns`.  Every queried pair must be a
        stored edge — a missing pair raises a :class:`ValueError` naming it
        (payloads of non-edges are not defined).  One walk (:meth:`_walk`)
        over the shards holding the queried sources binary-searches each
        shard's cached encoded ``src · n + dst`` keys for the pairs not
        found yet, so repeated probes against a warm region never re-scan a
        shard, and a shard whose pairs were all found in the shard before
        it is not read.
        """
        self._require_payload()
        ps = self._check_vertices(np.atleast_1d(np.asarray(ps, dtype=np.int64)))
        qs = self._check_vertices(np.atleast_1d(np.asarray(qs, dtype=np.int64)))
        if ps.shape != qs.shape:
            raise ValueError(f"ps and qs must have matching shapes, "
                             f"got {ps.shape} and {qs.shape}")
        values = np.zeros((ps.shape[0], len(self.payload_columns)),
                          dtype=np.int64)
        if ps.size == 0:
            return values
        if self.n_vertices > int(_MAX_ENCODABLE_VERTICES):
            raise NotImplementedError(
                "payload lookup needs src*n+dst to fit int64; "
                f"n_vertices={self.n_vertices} is beyond that")
        order, _, visits = self._walk(ps)
        wanted = (ps * np.int64(self.n_vertices) + qs)[order]
        found = np.zeros(ps.shape[0], dtype=bool)
        for index, start, stop in visits:
            todo = np.flatnonzero(~found[start:stop]) + start
            if todo.size == 0:
                continue  # found in an earlier shard the source straddles
            entry = self._entry(index)
            keys = self._shard_keys(entry)
            pos = keys.searchsorted(wanted[todo])
            in_range = pos < keys.shape[0]
            hit = in_range & (keys[np.where(in_range, pos, 0)] == wanted[todo])
            values[todo[hit]] = entry[0][pos[hit], 2:]
            found[todo[hit]] = True
        if not found.all():
            missing = int(order[~found].min())
            raise ValueError(
                f"edge ({int(ps[missing])}, {int(qs[missing])}) is not stored "
                "in this shard store; payloads exist only for stored edges")
        out = np.empty_like(values)
        out[order] = values
        return out

    # ------------------------------------------------------------------
    # Scalar views (thin wrappers over the batched kernels)
    # ------------------------------------------------------------------
    def out_degree(self, v: int) -> int:
        """Stored out-entry count of one vertex."""
        return int(self.out_degrees(np.asarray([v]))[0])

    def degree(self, v: int) -> int:
        """Degree of one vertex, self loop excluded (the
        :meth:`repro.core.KroneckerGraph.degree` convention)."""
        return int(self.degrees(np.asarray([v]))[0])

    def has_edge(self, p: int, q: int) -> bool:
        """Whether the store holds the directed entry ``(p, q)``."""
        row = self.edges_for_sources(np.asarray([p]))
        index = int(np.searchsorted(row[:, 1], int(q)))
        return index < row.shape[0] and int(row[index, 1]) == int(q)

    def neighbors(self, v: int, *, include_self_loop: bool = False) -> np.ndarray:
        """Sorted neighbour ids of *v*, matching
        :meth:`repro.core.KroneckerGraph.neighbors`."""
        qs = self.edges_for_sources(np.asarray([v]))[:, 1]
        if not include_self_loop:
            qs = qs[qs != int(v)]
        return np.ascontiguousarray(qs)

    def edge_payload(self, p: int, q: int) -> dict:
        """Payload of one stored edge as a ``{column: value}`` dict."""
        values = self.edge_payloads(np.asarray([p]), np.asarray([q]))[0]
        return {name: int(value)
                for name, value in zip(self.payload_columns, values)}

    # ------------------------------------------------------------------
    # Induced subgraphs / egonets (the plans, driven on this store)
    # ------------------------------------------------------------------
    def _run(self, plan):
        """Drive a plan (see :class:`StoreQueryMixin`) on this store's own
        primitives and return its result."""
        answer = None
        while True:
            try:
                method, args, kwargs = plan.send(answer)
            except StopIteration as done:
                return done.value
            answer = getattr(self, method)(*args, **kwargs)

    def subgraph_edges(self, vertices: Sequence[int], *,
                       with_payload: bool = False) -> np.ndarray:
        """Stored rows with both endpoints in *vertices* (unique), global
        ids, ``(src, dst)``-sorted, from one gather: :meth:`subgraph`'s
        rows."""
        return self._run(self._subgraph_plan(vertices, with_payload))

    def egonet_edges(self, v: int, *, with_payload: bool = False
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """``(vertices, rows)`` of the egonet of *v*: the centre then its
        sorted neighbours, and the stored rows induced on them, from two
        gathers (the centre's row, then the centre and its neighbours)."""
        return self._run(self._egonet_plan(int(v), with_payload))

    def subgraph_adjacency(self, vertices: Sequence[int]) -> sp.csr_matrix:
        """Induced adjacency on *vertices* (unique; local vertex *i* is
        ``vertices[i]``, like
        :meth:`repro.core.KroneckerGraph.subgraph_adjacency`)."""
        return induced_adjacency(vertices, self.subgraph_edges(vertices))

    def _induced_graph(self, vertices: np.ndarray, rows: np.ndarray) -> Graph:
        from repro.graphs.adjacency import Graph

        return Graph(induced_adjacency(vertices, rows[:, :2]),
                     name=f"{self.manifest.get('name') or 'store'}[sub]",
                     validate=False)

    def subgraph(self, vertices: Sequence[int], *, with_payload: bool = False):
        """Induced subgraph as a :class:`repro.graphs.Graph`; with
        ``with_payload=True``, ``(graph, rows)`` where *rows* are the
        induced ``(m, 2 + k)`` stored rows (global vertex ids) carrying the
        manifest's payload columns."""
        rows = self.subgraph_edges(vertices, with_payload=with_payload)
        graph = self._induced_graph(vertices, rows)
        return (graph, rows) if with_payload else graph

    def egonet(self, v: int, *, with_payload: bool = False):
        """Egonet of *v* from the store, equal to
        :func:`repro.graphs.egonet.egonet` on the product (the Figure 7
        spot check), decoding only the shards of the centre and its
        neighbours.  With ``with_payload=True`` returns ``(egonet, rows)``:
        the stored ``(m, 2 + k)`` rows the graph was built from."""
        vertices, rows = self.egonet_edges(v, with_payload=with_payload)
        ego = Egonet(center=int(v), vertices=vertices,
                     graph=self._induced_graph(vertices, rows))
        return (ego, rows) if with_payload else ego

    def __repr__(self) -> str:
        return (f"ShardStore({str(self.directory)!r}, n_vertices={self.n_vertices}, "
                f"total_edges={self.total_edges}, n_shards={self.n_shards}, "
                f"payload_columns={list(self.payload_columns)}, "
                f"cache_shards={self.cache_shards})")
