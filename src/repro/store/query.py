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
answers point lookups by finding each pair inside its source's row segment.
The LRU caches the decoded payload block alongside the topology — one
decode serves both kinds of query.

Decoded shards are kept in a small LRU cache: repeated queries against the
same region of the graph (the "heavy traffic" serving pattern) hit memory,
not disk.  Following the PR 1 vectorization conventions, the hot entry points
are batch-first (``out_degrees`` / ``degrees`` / ``edges_for_sources`` take
index arrays) and the scalar forms are thin wrappers; there is no per-edge
Python loop anywhere in the query path (``edge_payloads`` loops once per
queried pair, never once per stored edge).

**Large shards are mapped, small ones read**: shards are opened through
:func:`repro.graphs.io.read_edge_shard` — a fixed header check, then for
a shard whose rows reach :data:`_READ_BELOW_BYTES` a plain read-only
``ndarray`` over one ``mmap`` of the file (``mmap_mode="r"``), and for a
smaller one a private array filled by one positional read — the same
reader compaction re-cuts through, and every decode is held to its shard's
manifest ``n_edges``.  A mapping costs its making, a page fault at the
first touch of each page and its release at eviction, which a small
shard's read undercuts; a large shard's read would copy bytes a query
never touches.  So the LRU caches read-only *views* of the large on-disk
files — a warm bulk query (``edges_in_range`` feeding the
:mod:`repro.serve` binary data plane) slices the page cache instead of
burning CPU on array copies — and private rows of the small ones; no
slice a query takes runs Python hooks.  ``mmap=False`` reads every shard
(e.g. when the store lives on a filesystem whose mappings are slow).
The mapping lifecycle is tied to the cache: evicting an entry (LRU
overflow, :meth:`clear_cache`, :meth:`close`) drops the store's
reference and the underlying ``mmap`` — and its file descriptor — is
released as soon as the last outstanding query view dies (CPython
refcounting makes this prompt; the fd-churn tests in
``tests/test_shard_store.py`` hold it to account); a read shard holds no
descriptor.  :meth:`stats` reports the split: ``resident_bytes`` counts
the read shards' rows the cache holds, ``mapped_bytes`` the bytes
addressable through cached mappings.  The cache holds nothing but shard
rows, so a warm store's mapped shards add nothing to ``resident_bytes``
whatever it has answered.

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
this store and the range router's fleet façade both run on their own
primitives; an egonet is two gathers.  Only the
in-process ``egonet`` / ``subgraph`` / ``subgraph_adjacency`` build scipy
matrices, and scipy and the graph classes are imported there (through
:func:`induced_adjacency`), so a server imports this module without
loading scipy.

Every store call is also a generator of *steps*
(:meth:`StoreQueryMixin.steps`, the one store-call protocol of both
backends): this store's one shard-visit loop yields ``None`` before each
shard it must decode and before a visit that would be the third since its
last yield (:data:`_VISITS_PER_TURN`), so between two yields it decodes at
most one shard and visits at most two.  The
synchronous methods run the steps to the end; :mod:`repro.serve` drives
them on its one event loop and turns the loop at each yield, so a cold call
hands it back between shard decodes and a warm call on a store of one or
two shards never does.

The cache and its ``shard_reads`` / ``cache_hits`` counters are
**concurrent-safe**: a lock guards every cache mutation, so one store can be
shared by many reader threads.  Shard *decodes* run outside the lock (two
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
from bisect import bisect_left
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

#: The store's one shard decode, called as ``_load_shard_file(path,
#: payload_columns, mmap_mode=...)``.  A module-level name so tests can hook
#: it to count exactly which files a query touches.
_load_shard_file = read_edge_shard

#: A shard whose rows (manifest ``n_edges × (2 + k) × 8`` bytes) take
#: fewer bytes than this is read whole into a private array; any other
#: is mapped.  A mapping costs its making, a page fault at the first
#: touch of each page and its release at eviction; a read costs a copy
#: of every byte.  One cold visit (a decode plus a one-vertex search,
#: 2-shard LRU) costs less read up to 128 KiB and less mapped from
#: 192 KiB on (``cold_visit_us`` in ``BENCH_shard_store.json``, full run
#: of ``benchmarks/bench_shard_store.py``).  Tests set it to pick either
#: decode, as they hook :data:`_load_shard_file`.
_READ_BELOW_BYTES = 192 << 10

#: Shard visits a store call makes per turn of the event loop: its steps
#: yield before a third.  Two covers a point call near a shard boundary
#: and every primitive call on a store of one or two shards, so a warm one
#: there never gives the loop up.
_VISITS_PER_TURN = 2


class _Pace:
    """The shard visits one store call made since its steps last yielded
    (a plan's primitive calls share one)."""

    __slots__ = ("visits",)

    def __init__(self) -> None:
        self.visits = 0


def _complete(steps):
    """Run a store call's steps to the end and return its answer."""
    while True:
        try:
            next(steps)
        except StopIteration as done:
            return done.value


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
    """What both store backends share: argument checks, row assembly,
    ``egonet`` / ``subgraph`` written once as *plans*, and the one
    store-call protocol, :meth:`steps`.

    A backend implements the four batch primitives as step generators —
    ``_degrees``, ``_edges_for_sources``, ``_edges_in_range`` and
    ``_edge_payloads``, each taking a ``pace`` keyword.  A plan is a
    generator that yields the batch-primitive calls it needs as
    ``(method, args, kwargs)``, is sent each answer, and returns its rows;
    :meth:`_run` turns it into the steps of those calls on the backend.
    :class:`ShardStore` and the fleet façade
    (:class:`repro.serve.router.FleetStore`) run the same plans, so routed
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

    def _check_pairs(self, ps: Sequence[int], qs: Sequence[int]
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """The vertex pairs ``(ps[t], qs[t])`` of a payload lookup as two
        range-checked ``int64`` arrays of one shape."""
        ps = self._check_vertices(np.atleast_1d(np.asarray(ps, dtype=np.int64)))
        qs = self._check_vertices(np.atleast_1d(np.asarray(qs, dtype=np.int64)))
        if ps.shape != qs.shape:
            raise ValueError(f"ps and qs must have matching shapes, "
                             f"got {ps.shape} and {qs.shape}")
        return ps, qs

    def _require_payload(self, with_payload: bool = True) -> None:
        """Refuse a payload request on a topology-only store, before the
        call reads a shard or calls a worker."""
        if with_payload and not self.payload_columns:
            raise ValueError(
                f"{self._store_label()}: store carries no payload columns "
                "(manifest payload_columns is ['src', 'dst']); re-stream the "
                "spill with payload columns to serve per-edge ground truth")

    def _finish_rows(self, parts, with_payload: bool) -> np.ndarray:
        """Assemble gathered full-width rows and slice off the payload unless
        the caller asked for it."""
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
        self._require_payload(with_payload)  # the first round carries none
        centre = yield "edges_for_sources", (np.asarray([v]),), {}
        neighbours = centre[:, 1]
        vertices = np.concatenate([[np.int64(v)], neighbours[neighbours != v]])
        rows = yield from self._subgraph_plan(vertices, with_payload)
        return vertices, rows

    # ------------------------------------------------------------------
    # Store calls as steps (the one store-call protocol)
    # ------------------------------------------------------------------
    def steps(self, method: str, *args, **kwargs):
        """The steps of the store call ``<method>(*args, **kwargs)`` — a
        batch primitive, ``subgraph_edges`` or ``egonet_edges`` — as a
        generator that returns the call's answer.

        A step is ``None`` or an awaitable.  :class:`ShardStore` yields
        ``None``: before every shard it must decode and before a visit
        that would be the third since the last yield
        (:data:`_VISITS_PER_TURN`), so between two steps it reads at most
        one shard file and visits at most two shards; a plan's primitive
        calls share that count.  The fleet façade yields each call's one
        fan-out to its workers, and is sent back the workers' answers.  The
        synchronous store methods run the steps to the end; a server
        drives them on its event loop, turning it at a ``None`` step and
        awaiting any other."""
        return getattr(self, f"_{method}")(*args, pace=_Pace(), **kwargs)

    def _run(self, plan, pace: _Pace):
        """Steps of a plan: the steps of each primitive call it makes on
        this backend, in turn."""
        answer = None
        while True:
            try:
                method, args, kwargs = plan.send(answer)
            except StopIteration as done:
                return done.value
            answer = yield from getattr(self, f"_{method}")(
                *args, pace=pace, **kwargs)

    def _subgraph_edges(self, vertices: Sequence[int], *,
                        with_payload: bool = False, pace: _Pace):
        return self._run(self._subgraph_plan(vertices, with_payload), pace)

    def _egonet_edges(self, v: int, *, with_payload: bool = False,
                      pace: _Pace):
        return self._run(self._egonet_plan(int(v), with_payload), pace)


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
        ``True`` (default) decodes a shard whose rows reach
        :data:`_READ_BELOW_BYTES` as a plain read-only array over one
        ``mmap`` of its file (:func:`~repro.graphs.io.read_edge_shard` with
        ``mmap_mode="r"``) — zero copies on the bulk read path, one open
        mapping (and file descriptor) per cached shard, released on
        eviction — and reads a smaller one whole into a private array,
        which costs a cold visit less than a mapping does.  ``False``
        reads every shard (no open files kept; each decode pays a full
        read).
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
        # index -> the shard's read-only (m, 2 + k) rows, oldest first
        self._cache: "OrderedDict[int, np.ndarray]" = OrderedDict()
        # Guards the LRU OrderedDict: in-process queries may come from many
        # threads at once (a server's come from its one loop).  The traffic
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

    def _lookup(self, index: int) -> Optional[np.ndarray]:
        """The cached rows of one shard (a cache hit), or ``None``."""
        with self._lock:
            rows = self._cache.get(index)
            if rows is not None:
                self._cache_hits.inc()
                self._cache.move_to_end(index)
            return rows

    def _shard(self, index: int) -> np.ndarray:
        """Decoded ``(m, 2 + k)`` row array of one shard, through the LRU
        cache — payload columns are cached alongside the topology, so one
        decode serves both kinds of query."""
        cached = self._lookup(index)
        if cached is not None:
            return cached
        # Decode outside the lock so concurrent misses on *different* shards
        # overlap their file I/O; a racing miss on the same shard costs one
        # redundant decode (counted below) but never corrupts the cache.
        mapped = (self.mmap and self._n_edges[index] * self._width * 8
                  >= _READ_BELOW_BYTES)
        with trace.leaf_span("store.decode", shard=self._files[index]):
            rows = _load_shard_file(self._paths[index],
                                    self.manifest["payload_columns"],
                                    mmap_mode="r" if mapped else None)
        _check_shard_rows(self._paths[index], rows, self._n_edges[index])
        # Answers are slices of cached rows: a read shard is a writable
        # private array, and a caller writing into its answer must not
        # change the next one.
        rows.flags.writeable = False
        with self._lock:
            self._shard_reads.inc()
            cached = self._cache.get(index)
            if cached is not None:
                self._cache.move_to_end(index)
                return cached
            self._cache[index] = rows
            if len(self._cache) > self.cache_shards:
                self._cache.popitem(last=False)
                self._evictions.inc()
        return rows

    def _visit(self, index: int, pace: _Pace):
        """Steps of one shard visit of a store call; returns the shard's
        rows.  Yields first when the shard must be decoded, or when the
        call already made :data:`_VISITS_PER_TURN` visits since its last
        yield."""
        rows = self._lookup(index)
        if rows is None or pace.visits == _VISITS_PER_TURN:
            yield
            pace.visits = 0
            if rows is None:
                rows = self._shard(index)
        pace.visits += 1
        return rows

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
            for rows in self._cache.values():
                if isinstance(rows.base, _mmap.mmap):
                    mapped += rows.nbytes
                else:
                    resident += rows.nbytes
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
        (whether shards of :data:`_READ_BELOW_BYTES` and more are mapped),
        and the bytes-resident split: ``resident_bytes`` counts the rows
        of cached shards that were read into private arrays (the shards
        under :data:`_READ_BELOW_BYTES`, every shard when
        ``mmap=False``), ``mapped_bytes`` counts bytes addressable through
        cached read-only mappings (page-cache backed, not private memory).
        A warm store's mapped shards add nothing to ``resident_bytes``,
        which with every shard mapped reads 0, and both numbers stay flat
        across warm queries, point lookups included — the
        no-per-query-copy acceptance bar.
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

    # ------------------------------------------------------------------
    # Batch primitives as steps (the hot path)
    # ------------------------------------------------------------------
    def _row_counts(self, vs: np.ndarray, drop_self_loops: bool,
                    pace: _Pace):
        """Steps: stored rows per vertex of *vs*, less its self loop when
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
            shard = yield from self._visit(index, pace)
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

    def _out_degrees(self, vs: Sequence[int], *, pace: _Pace):
        return self._row_counts(self._check_vertices(vs), False, pace)

    def _degrees(self, vs: Sequence[int], *, pace: _Pace):
        return self._row_counts(self._check_vertices(vs), True, pace)

    def out_degrees(self, vs: Sequence[int]) -> np.ndarray:
        """Stored out-entry count per source vertex (array-in / array-out).

        For an undirected product this is the raw row count including a self
        loop; :meth:`degrees` applies the self-loop correction to match
        :meth:`repro.core.KroneckerGraph.degree`.
        """
        return _complete(self._out_degrees(vs, pace=_Pace()))

    def degrees(self, vs: Sequence[int]) -> np.ndarray:
        """Degree per vertex with the self loop excluded, matching
        :meth:`repro.core.KroneckerGraph.degree` (array-in / array-out)."""
        return _complete(self._degrees(vs, pace=_Pace()))

    def _edges_for_sources(self, vs: Sequence[int], *,
                           with_payload: bool = False, pace: _Pace):
        self._require_payload(with_payload)
        _, svs, visits = self._walk(np.unique(self._check_vertices(vs)))
        parts = []
        for index, start, stop in visits:
            shard = yield from self._visit(index, pace)
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
        return _complete(self._edges_for_sources(
            vs, with_payload=with_payload, pace=_Pace()))

    def _edges_in_range(self, lo: int, hi: int, *,
                        with_payload: bool = False, pace: _Pace):
        self._require_payload(with_payload)
        lo, hi = int(lo), int(hi)
        if lo >= hi or self.n_shards == 0:
            return self._finish_rows([], with_payload)
        first, last = self._overlapping(lo, hi - 1)
        parts = []
        for index in range(first, last):
            shard = yield from self._visit(index, pace)
            srcs = shard[:, 0]
            left = np.searchsorted(srcs, lo, side="left")
            right = np.searchsorted(srcs, hi - 1, side="right")
            if right > left:
                parts.append(shard[left:right])
        return self._finish_rows(parts, with_payload)

    def edges_in_range(self, lo: int, hi: int, *,
                       with_payload: bool = False) -> np.ndarray:
        """All stored edges with source vertex in ``[lo, hi)``, sorted by
        ``(src, dst)``; only the shards whose manifest range overlaps the
        query are decoded.  ``with_payload=True`` returns the full
        ``(m, 2 + k)`` rows."""
        return _complete(self._edges_in_range(
            lo, hi, with_payload=with_payload, pace=_Pace()))

    # ------------------------------------------------------------------
    # Payload lookups
    # ------------------------------------------------------------------
    def _edge_payloads(self, ps: Sequence[int], qs: Sequence[int], *,
                       pace: _Pace):
        self._require_payload()
        ps, qs = self._check_pairs(ps, qs)
        values = np.zeros((ps.shape[0], len(self.payload_columns)),
                          dtype=np.int64)
        if ps.size == 0:
            return values
        order, sps, visits = self._walk(ps)
        caller, sqs = order.tolist(), qs[order].tolist()
        found = [False] * ps.shape[0]  # by position in the sorted batch
        for index, start, stop in visits:
            if all(found[start:stop]):
                continue  # found in an earlier shard the source straddles
            shard = yield from self._visit(index, pace)
            srcs = shard[:, 0]
            lefts = srcs.searchsorted(sps[start:stop]).tolist()
            rights = srcs.searchsorted(sps[start:stop], "right").tolist()
            hits, rows = [], []
            # One bisect per pair over a view of the dst column: no copy,
            # and at point-lookup batch sizes cheaper than any vectorized
            # search of the segments.
            with memoryview(shard[:, 1]) as dsts:
                for t, left, right in zip(range(start, stop), lefts, rights):
                    if found[t]:
                        continue
                    at = bisect_left(dsts, sqs[t], left, right)
                    if at < right and dsts[at] == sqs[t]:
                        found[t] = True
                        hits.append(caller[t])
                        rows.append(at)
            values[hits] = shard.take(rows, axis=0)[:, 2:]
        if not all(found):
            missing = min(c for c, hit in zip(caller, found) if not hit)
            raise ValueError(
                f"edge ({int(ps[missing])}, {int(qs[missing])}) is not stored "
                "in this shard store; payloads exist only for stored edges")
        return values

    def edge_payloads(self, ps: Sequence[int], qs: Sequence[int]) -> np.ndarray:
        """Payload values of the stored edges ``(ps[t], qs[t])``.

        Array-in / array-out: returns an ``(m, k)`` ``int64`` array whose
        columns follow :attr:`payload_columns`.  Every queried pair must be a
        stored edge — a missing pair raises a :class:`ValueError` naming
        the first in caller order (payloads of non-edges are not defined).
        One walk (:meth:`_walk`) over the shards holding the queried
        sources: each visit finds its pairs' source segments with two
        vectorized searches of the shard's ``src`` column, as
        :meth:`_row_counts` does, then bisects the ``dst`` of each pair not
        found yet inside its segment.  Nothing is copied or encoded, so any
        vertex count works, and a shard whose pairs were all found in the
        shard before it is not read.
        """
        return _complete(self._edge_payloads(ps, qs, pace=_Pace()))

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
    def subgraph_edges(self, vertices: Sequence[int], *,
                       with_payload: bool = False) -> np.ndarray:
        """Stored rows with both endpoints in *vertices* (unique), global
        ids, ``(src, dst)``-sorted, from one gather: :meth:`subgraph`'s
        rows."""
        return _complete(self._subgraph_edges(
            vertices, with_payload=with_payload, pace=_Pace()))

    def egonet_edges(self, v: int, *, with_payload: bool = False
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """``(vertices, rows)`` of the egonet of *v*: the centre then its
        sorted neighbours, and the stored rows induced on them, from two
        gathers (the centre's row, then the centre and its neighbours)."""
        return _complete(self._egonet_edges(
            v, with_payload=with_payload, pace=_Pace()))

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
