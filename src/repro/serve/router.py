"""Range router: one asyncio front-end over N vertex-range slice workers.

The horizontal-scale half of the serving story.  :func:`partition_manifest
<repro.store.partition.partition_manifest>` cuts a compacted manifest into
contiguous vertex-range slices; each slice is served by an ordinary
:class:`~repro.serve.ShardStoreServer` worker (optionally replicated); and a
:class:`RangeRouter` fronts the fleet speaking the **same wire protocol** —
a client cannot tell a router from a single server except by the extra
``fleet`` sections in ``hello`` / ``stats``.

The construction is deliberately thin:

* :class:`FleetStore` is a *store façade*: it implements the four batch
  primitives (``degrees`` / ``edges_for_sources`` / ``edges_in_range`` /
  ``edge_payloads``) by splitting each request across the worker ranges,
  fanning the slices out concurrently over the same wire protocol
  (blocking :class:`~repro.serve.QueryClient` calls on a dedicated pool),
  and merging the answers back in source order.  Everything else — scalar
  wrappers, ``subgraph``, ``egonet`` — comes from the same
  :class:`~repro.store.StoreQueryMixin` the local store uses, so routed
  answers are byte-equal to single-store answers *by construction*.
* :class:`RangeRouter` is :class:`ShardStoreServer` serving that façade:
  framing, request coalescing, array frames, and error frames are
  inherited unchanged.  Only ``hello`` (adds the fleet description) and
  ``stats`` (rolls per-worker stats up into a fleet answer) are overridden.
* :class:`_WorkerChannel` owns one slice's wire connections: a small pool of
  reused clients against the preferred replica, and on a *transport*
  failure (``OSError`` / :class:`~repro.serve.protocol.ProtocolError` —
  never a server-reported store error) it retries the call **once** against
  the next replica address, then fails with a worker-naming
  :class:`ConnectionError` that travels back to the router's client as an
  error frame on an intact connection.

Routing is strict: a vertex is asked only of the worker whose *assigned*
half-open range contains it, so a boundary shard listed by two slices is
never served twice, and concatenating per-worker answers in range order *is*
the global ``(src, dst)`` sort order.

Telemetry (PR 8): per-worker call/failover/failure counters are
``fleet.worker_*{worker=<index>}`` series in the fleet's
:class:`~repro.obs.MetricsRegistry` (the router adopts it, so ``metrics``
exposes fleet and server series side by side).  Every replica attempt runs
under a ``fleet.worker_call`` trace span — a failed primary attempt records
``status="error"`` and the failover retry lands as its *sibling* — and
:meth:`FleetStore._scatter` carries the active trace context onto the
fan-out threads with ``contextvars.copy_context()``.  The router's
``trace`` op merges its own spans with each worker's (fetched over the
wire), so one routed query answers with the whole tree.
"""

from __future__ import annotations

import contextvars
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence

import numpy as np

from repro.lint.runtime import new_lock
from repro.obs import (
    EventLog,
    MetricsRegistry,
    ProfileStats,
    merge_events,
    trace,
)
from repro.serve import protocol, shaping
from repro.serve.client import QueryClient
from repro.serve.server import ShardStoreServer, ThreadedServer, _arg
from repro.store.query import StoreQueryMixin

__all__ = ["FleetStore", "RangeRouter", "ThreadedRouter",
           "fleet_info_from_manifest"]


def fleet_info_from_manifest(manifest: dict) -> dict:
    """The fleet-level store description, taken from the *parent* manifest
    (summing per-slice manifests would double-count boundary shards)."""
    return {
        "name": manifest.get("name") or "",
        "n_vertices": int(manifest["n_vertices"]),
        "total_edges": int(manifest["total_edges"]),
        "n_shards": len(manifest["shards"]),
        "payload_columns": list(manifest["payload_columns"][2:]),
    }


class _WorkerChannel:
    """One slice's wire channel: reused blocking clients over the slice's
    replica addresses, with one failover retry per call.

    ``call(fn)`` runs ``fn(client)`` against the *preferred* replica.  On a
    transport failure it retries exactly once against the next address in
    the replica ring (with a single replica that is the same address — a
    restarted worker is picked back up); a second failure raises a
    :class:`ConnectionError` naming the worker, its range, and both failed
    attempts.  A successful failover makes the surviving replica preferred,
    so later calls do not re-pay the dead primary's connect timeout.

    Thread-safe: the router fans calls out from a pool, so the idle-client
    list and the counters are lock-guarded.  Exceptions raised by the
    *server* (error frames re-raised by the client, e.g. a store
    ``ValueError``) are not transport failures: the error frame left the
    stream in sync, so the client goes back to the pool and the exception
    propagates — retrying it on a replica would just fail identically.
    """

    def __init__(self, index: int, src_lo: int, src_hi: int,
                 addresses: Sequence[str], *,
                 timeout: Optional[float] = 30.0,
                 registry: Optional[MetricsRegistry] = None,
                 events: Optional[EventLog] = None):
        if not addresses:
            raise ValueError(f"worker {index} has no addresses")
        self.index = int(index)
        self.src_lo = int(src_lo)
        self.src_hi = int(src_hi)
        self.addresses = [str(address) for address in addresses]
        self.timeout = timeout
        self._lock = new_lock("fleet.worker_pool")
        self._events = events if events is not None else EventLog()
        self._idle: List = []  # (address_index, QueryClient) pairs
        self._preferred = 0
        registry = registry if registry is not None else MetricsRegistry()
        self._calls = registry.counter("fleet.worker_calls",
                                       worker=self.index)
        self._failovers = registry.counter("fleet.worker_failovers",
                                           worker=self.index)
        self._failures = registry.counter("fleet.worker_failures",
                                          worker=self.index)

    @property
    def calls(self) -> int:
        return self._calls.value

    @property
    def failovers(self) -> int:
        return self._failovers.value

    @property
    def failures(self) -> int:
        return self._failures.value

    def _checkout(self):
        with self._lock:
            preferred = self._preferred
            while self._idle:
                address_index, client = self._idle.pop()
                if address_index == preferred:
                    return preferred, client
                client.close()  # pooled connection to a demoted replica
        return preferred, QueryClient.from_address(
            self.addresses[preferred], timeout=self.timeout)

    def _checkin(self, address_index: int, client: QueryClient) -> None:
        with self._lock:
            if address_index == self._preferred:
                self._idle.append((address_index, client))
                return
        client.close()

    def _attempt(self, fn, address_index: int, client: QueryClient,
                 **attrs):
        """``fn(client)`` against one replica, under its own
        ``fleet.worker_call`` trace span.  A server-reported error leaves
        the stream in sync: the client is checked back in (a closed one
        reconnects lazily) before the error propagates."""
        try:
            with trace.span("fleet.worker_call", worker=self.index,
                            address=self.addresses[address_index], **attrs):
                return fn(client)
        except (OSError, protocol.ProtocolError):
            raise
        except Exception:
            self._checkin(address_index, client)
            raise

    def call(self, fn):
        """Run ``fn(client)`` with one replica-failover retry.

        Each replica attempt is its own ``fleet.worker_call`` trace span
        (a no-op without an active trace): a dead primary leaves an
        error-status span and the failover retry records a *sibling*
        span, so the trace tree shows both attempts side by side.
        """
        self._calls.inc()
        address_index, client = self._checkout()
        try:
            result = self._attempt(fn, address_index, client)
        except (OSError, protocol.ProtocolError) as first:
            client.close()
            self._failures.inc()
            # Flight-recorder events stamp the active trace automatically
            # (channel calls run in the request's copied context on the
            # fan-out threads), so a failover links back to the routed
            # query that tripped it.
            self._events.emit("fleet.replica_death", worker=self.index,
                              address=self.addresses[address_index],
                              error=str(first))
            with self._lock:
                fallback = (address_index + 1) % len(self.addresses)
            retry = QueryClient.from_address(self.addresses[fallback],
                                             timeout=self.timeout)
            try:
                result = self._attempt(fn, fallback, retry, failover=True)
            except (OSError, protocol.ProtocolError) as second:
                retry.close()
                self._failures.inc()
                self._events.emit("fleet.replica_death", worker=self.index,
                                  address=self.addresses[fallback],
                                  error=str(second))
                raise ConnectionError(
                    f"worker {self.index} (sources [{self.src_lo}, "
                    f"{self.src_hi})) is unavailable: "
                    f"{self.addresses[address_index]} failed ({first}); "
                    f"retry on {self.addresses[fallback]} failed ({second})"
                ) from second
            self._failovers.inc()
            self._events.emit("fleet.failover", worker=self.index,
                              src_lo=self.src_lo, src_hi=self.src_hi,
                              from_address=self.addresses[address_index],
                              to_address=self.addresses[fallback])
            with self._lock:
                self._preferred = fallback
            self._checkin(fallback, retry)
            return result
        self._checkin(address_index, client)
        return result

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        for _, client in idle:
            client.close()


class FleetStore(StoreQueryMixin):
    """Store façade over N range-sliced workers — the router's ``store``.

    Parameters
    ----------
    slices:
        One dict per worker, in range order:
        ``{"src_lo", "src_hi", "addresses": ["host:port", ...]}``.  The
        assigned half-open ranges must tile ``[0, n_vertices)`` exactly
        (empty ``lo == hi`` slices are legal and never routed to); the
        first address is the primary, the rest are failover replicas.
    info:
        The parent store's description
        (:func:`fleet_info_from_manifest`) — the fleet answers ``hello`` /
        ``subgraph`` naming with the *parent* identity, not a slice's.
    timeout:
        Per-call socket timeout applied to every worker channel.
    max_fanout_threads:
        Cap on concurrent worker calls across all in-flight requests.
    registry:
        :class:`~repro.obs.MetricsRegistry` the per-worker channel
        counters register into (a private one by default).  The router
        adopts it via the store's ``registry`` attribute, so the
        ``metrics`` op exposes fleet and server series together.
    """

    def __init__(self, slices: Sequence[dict], info: dict, *,
                 timeout: Optional[float] = 30.0,
                 max_fanout_threads: Optional[int] = None,
                 registry: Optional[MetricsRegistry] = None):
        self.manifest = {"name": info.get("name") or ""}
        self.n_vertices = int(info["n_vertices"])
        self.total_edges = int(info["total_edges"])
        self.n_shards = int(info["n_shards"])
        self.payload_columns = tuple(info["payload_columns"])
        self._width = 2 + len(self.payload_columns)
        self.registry = registry if registry is not None else MetricsRegistry()
        # One flight recorder for the whole fleet façade: every channel's
        # failover / replica-death events land here, and the router adopts
        # it (the same way it adopts the registry) so its own events share
        # the timeline.
        self.events = EventLog()
        self._channels = [
            _WorkerChannel(index, entry["src_lo"], entry["src_hi"],
                           entry["addresses"], timeout=timeout,
                           registry=self.registry, events=self.events)
            for index, entry in enumerate(slices)
        ]
        expected = 0
        for channel in self._channels:
            if channel.src_lo != expected or channel.src_hi < channel.src_lo:
                raise ValueError(
                    "worker ranges must tile [0, n_vertices) contiguously; "
                    f"worker {channel.index} covers [{channel.src_lo}, "
                    f"{channel.src_hi}) after [0, {expected})")
            expected = channel.src_hi
        if expected != self.n_vertices:
            raise ValueError(
                f"worker ranges cover [0, {expected}) but the store has "
                f"{self.n_vertices} vertices")
        # Exclusive upper bounds, for owner lookup by searchsorted: empty
        # slices repeat the previous bound and side="right" skips them.
        self._his = np.asarray([c.src_hi for c in self._channels],
                               dtype=np.int64)
        if max_fanout_threads is None:
            max_fanout_threads = max(8, 2 * len(self._channels))
        self._fanout = ThreadPoolExecutor(
            max_workers=max_fanout_threads, thread_name_prefix="fleet-fanout")

    # ------------------------------------------------------------------
    # Fan-out plumbing
    # ------------------------------------------------------------------
    def _owners(self, vs: np.ndarray) -> np.ndarray:
        """Index of the worker whose assigned range contains each vertex."""
        return np.searchsorted(self._his, vs, side="right")

    def _scatter(self, calls: List) -> List:
        """Run ``(channel, fn)`` pairs concurrently; results in call order.
        The first worker failure propagates (the router turns it into one
        error frame); remaining calls still complete in the background.

        Under an active trace each submission carries a fresh
        ``contextvars`` copy onto its fan-out thread (one copy per future
        — a shared ``Context`` cannot be entered concurrently), so the
        per-worker spans parent correctly under the routed request."""
        if len(calls) == 1:
            channel, fn = calls[0]
            return [channel.call(fn)]
        if trace.current() is not None:
            futures = [
                self._fanout.submit(
                    contextvars.copy_context().run, channel.call, fn)
                for channel, fn in calls]
        else:
            futures = [self._fanout.submit(channel.call, fn)
                       for channel, fn in calls]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # Batch primitives (split by owner → fan out → merge in source order)
    # ------------------------------------------------------------------
    def degrees(self, vs: Sequence[int]) -> np.ndarray:
        vs = self._check_vertices(np.atleast_1d(np.asarray(vs, dtype=np.int64)))
        out = np.zeros(vs.shape[0], dtype=np.int64)
        if vs.size == 0:
            return out
        owners = self._owners(vs)
        calls, masks = [], []
        for index, channel in enumerate(self._channels):
            mask = owners == index
            if mask.any():
                sub = vs[mask]
                calls.append((channel, lambda c, sub=sub: c.degrees(sub)))
                masks.append(mask)
        for mask, values in zip(masks, self._scatter(calls)):
            out[mask] = values
        return out

    def edges_for_sources(self, vs: Sequence[int], *,
                          with_payload: bool = False) -> np.ndarray:
        if with_payload:
            self._require_payload()
        vs = np.unique(self._check_vertices(np.asarray(vs, dtype=np.int64)))
        if vs.size == 0:
            return self._finish_rows([], with_payload)
        owners = self._owners(vs)
        calls = []
        for index, channel in enumerate(self._channels):
            mask = owners == index
            if mask.any():
                sub = vs[mask]
                calls.append((channel, lambda c, sub=sub, wp=with_payload:
                              c.edges_for_sources(sub, with_payload=wp)))
        # Ranges are contiguous and each worker answers (src, dst)-sorted,
        # so worker order *is* global source order.
        parts = [part for part in self._scatter(calls) if part.shape[0]]
        return self._finish_rows(parts, with_payload)

    def edges_in_range(self, lo: int, hi: int, *,
                       with_payload: bool = False) -> np.ndarray:
        if with_payload:
            self._require_payload()
        lo, hi = int(lo), int(hi)
        calls = []
        for channel in self._channels:
            sub_lo = max(lo, channel.src_lo)
            sub_hi = min(hi, channel.src_hi)
            if sub_lo < sub_hi:
                calls.append((channel,
                              lambda c, a=sub_lo, b=sub_hi, wp=with_payload:
                              c.edges_in_range(a, b, with_payload=wp)))
        parts = [part for part in self._scatter(calls) if part.shape[0]]
        return self._finish_rows(parts, with_payload)

    def edge_payloads(self, ps: Sequence[int], qs: Sequence[int]) -> np.ndarray:
        self._require_payload()
        ps = self._check_vertices(np.atleast_1d(np.asarray(ps, dtype=np.int64)))
        qs = self._check_vertices(np.atleast_1d(np.asarray(qs, dtype=np.int64)))
        if ps.shape != qs.shape:
            raise ValueError(f"ps and qs must have matching shapes, "
                             f"got {ps.shape} and {qs.shape}")
        out = np.zeros((ps.shape[0], len(self.payload_columns)),
                       dtype=np.int64)
        if ps.size == 0:
            return out
        owners = self._owners(ps)  # an edge lives with its source's owner
        calls, masks = [], []
        for index, channel in enumerate(self._channels):
            mask = owners == index
            if mask.any():
                sub_ps, sub_qs = ps[mask], qs[mask]
                calls.append((channel, lambda c, p=sub_ps, q=sub_qs:
                              c.edge_payloads(p, q)))
                masks.append(mask)
        for mask, values in zip(masks, self._scatter(calls)):
            out[mask] = values
        return out

    # ------------------------------------------------------------------
    # Operational surface
    # ------------------------------------------------------------------
    @property
    def n_workers(self) -> int:
        return len(self._channels)

    def describe(self) -> dict:
        """The ``fleet`` description shape (ranges, addresses, channel
        counters)."""
        return shaping.fleet_shape(
            [(c.src_lo, c.src_hi) for c in self._channels],
            [c.addresses for c in self._channels],
            calls=[c.calls for c in self._channels],
            failovers=[c.failovers for c in self._channels])

    def _broadcast(self, op: str, args: Optional[dict] = None) -> List[tuple]:
        """Send one wire op to every worker concurrently and return
        ``(channel, answer, error)`` per worker, in worker order, with
        exactly one of *answer* / *error* set.  An unreachable worker
        yields its channel error — naming the worker, its range and both
        attempts — instead of failing the broadcast; each caller decides
        what that gap means."""
        def ask(channel):
            try:
                return channel, channel.call(lambda c: c.request(op, args)), None
            except Exception as exc:
                return channel, None, exc
        futures = [self._fanout.submit(ask, channel)
                   for channel in self._channels]
        return [future.result() for future in futures]

    def worker_reports(self) -> List[dict]:
        """One ``stats`` probe per worker; a dead worker yields an error
        report instead of failing the rollup."""
        return [shaping.fleet_worker_report(c.index, c.src_lo, c.src_hi,
                                            stats=answer, error=error)
                for c, answer, error in self._broadcast("stats")]

    def stats(self) -> dict:
        """Fleet-level ``"store"`` counter section (summed worker
        counters) — what :meth:`ShardStoreServer.stats` would embed if it
        served this façade directly."""
        reports = self.worker_reports()
        sections = [report["stats"]["store"] for report in reports
                    if report.get("ok")]
        return shaping.fleet_store_counters(sections, n_shards=self.n_shards)

    def reset_stats(self) -> int:
        """Fan the ``reset_stats`` op out to every worker (fleet-wide
        counter reset — e.g. clearing benchmark warmup) and return the
        worker count for the answer shape.  A dead worker raises its
        channel :class:`ConnectionError`: a partial reset would leave
        stale counters in the next measured window."""
        for _, _, error in self._broadcast("reset_stats"):
            if error is not None:
                raise error
        return len(self._channels)

    def close(self) -> None:
        self._fanout.shutdown(wait=True)
        for channel in self._channels:
            channel.close()

    def __repr__(self) -> str:
        return (f"FleetStore(workers={len(self._channels)}, "
                f"n_vertices={self.n_vertices}, "
                f"total_edges={self.total_edges}, "
                f"payload_columns={list(self.payload_columns)})")


def _missing_workers(replies: List[tuple]) -> List[dict]:
    """The workers a :meth:`FleetStore._broadcast` could not reach, each
    named with its assigned range."""
    return [shaping.missing_worker(c.index, c.src_lo, c.src_hi, error)
            for c, _, error in replies if error is not None]


class RangeRouter(ShardStoreServer):
    """A :class:`ShardStoreServer` whose store is a :class:`FleetStore`.

    Everything protocol-facing — framing, coalescing, array frames, error
    frames — is inherited; the router only adds the fleet sections to
    ``hello``, replaces ``stats`` with the per-worker rollup, and widens
    ``trace`` / ``profile`` / ``events`` / ``health`` into fleet-merged
    answers built from one :meth:`FleetStore._broadcast` each, naming the
    workers they could not reach (all of these do wire I/O and therefore
    run on the executor, never the event loop).  The fleet's
    registry is adopted as the router's, so ``metrics`` serves the
    ``fleet.worker_*`` series alongside the inherited ``serve.*`` ones,
    and the inherited ``reset_stats`` fans out to every worker through
    :meth:`FleetStore.reset_stats`.
    """

    def __init__(self, fleet: FleetStore, **kwargs):
        if not isinstance(fleet, FleetStore):
            raise TypeError(
                f"RangeRouter serves a FleetStore, got {type(fleet).__name__}")
        super().__init__(fleet, **kwargs)

    @property
    def fleet(self) -> FleetStore:
        return self.store

    async def _op_hello(self, args: dict) -> dict:
        return shaping.hello_shape(self._ops,
                                   shaping.shape_store_info(self.store),
                                   fleet=self.store.describe(),
                                   started_at=self._started_at_wall,
                                   uptime_s=self._uptime_s())

    async def _op_stats(self, args: dict) -> dict:
        # Unlike the base class the rollup talks to N workers — executor
        # work, not event-loop work.
        return await self._run_store(
            lambda: shaping.stats_answer_shape(self.stats()))

    async def _op_trace(self, args: dict) -> dict:
        trace_id = _arg(args, "id")
        if not isinstance(trace_id, str):
            raise ValueError("request arg 'id' must be a string trace id")
        replies = await self._run_store(
            self.fleet._broadcast, "trace", {"id": trace_id})
        spans = self.recorder.spans(trace_id)
        for _, answer, _ in replies:
            if answer is not None:
                spans.extend(answer["spans"])
        return shaping.trace_answer_shape(
            trace_id, spans, missing_workers=_missing_workers(replies))

    def _profile(self, action: str, hz, collapsed: bool) -> dict:
        """The fleet ``profile`` rollup (already on the executor via the
        inherited ``_op_profile``): apply the action on every worker, then
        on the router itself, and answer with the merged aggregate.

        The workers act *before* the router, so after a fleet-wide
        ``stop`` every aggregate in the sum is frozen — the merged answer
        equals the router's own profile plus each worker's directly
        fetched snapshot, exactly."""
        replies = self.fleet._broadcast("profile",
                                        {"action": action, "hz": hz})
        self._apply_profile_action(action, hz)
        own = self.profiler.snapshot()
        merged = own + sum((ProfileStats.from_dict(answer["profile"])
                            for _, answer, _ in replies
                            if answer is not None), ProfileStats())
        return shaping.profile_shape(
            action, merged.as_dict(), running=self.profiler.running,
            hz=self.profiler.hz,
            collapsed=merged.collapsed() if collapsed else None,
            router=own.as_dict(), workers=self.fleet.n_workers,
            missing_workers=_missing_workers(replies))

    async def _op_events(self, args: dict) -> dict:
        limit, kind = self._events_args(args)
        return await self._run_store(self._fleet_events, limit, kind)

    def _fleet_events(self, limit, kind) -> dict:
        replies = self.fleet._broadcast("events",
                                        {"limit": limit, "kind": kind})
        answers = [answer for _, answer, _ in replies if answer is not None]
        merged = merge_events(
            [self.events.tail(limit, kind=kind),
             *(answer["events"] for answer in answers)], limit=limit)
        return shaping.events_shape(
            merged, dropped=self.events.dropped
            + sum(answer["dropped"] for answer in answers),
            workers=self.fleet.n_workers,
            missing_workers=_missing_workers(replies))

    async def _op_health(self, args: dict) -> dict:
        return await self._run_store(self._fleet_health)

    def _fleet_health(self) -> dict:
        replies = self.fleet._broadcast("health")
        reports = [shaping.fleet_worker_report(c.index, c.src_lo, c.src_hi,
                                               health=answer, error=error)
                   for c, answer, error in replies]
        down = _missing_workers(replies)
        return shaping.health_shape(
            status="degraded" if down else "ok",
            fleet={"workers": self.fleet.n_workers, "down": len(down)},
            workers=reports, down=down, **self._health_sections())

    def stats(self) -> dict:
        # describe() is read before the stats probes, so the per-channel
        # call counters it reports never include this rollup's own calls.
        return shaping.fleet_stats_shape(
            self._server_stats(), self.store.describe(),
            self.store.worker_reports(), n_shards=self.store.n_shards)


class ThreadedRouter(ThreadedServer):
    """A :class:`RangeRouter` on a background thread (the
    :class:`~repro.serve.ThreadedServer` lifecycle, router construction)."""

    def __init__(self, fleet: FleetStore, **kwargs):
        super().__init__(fleet, server_cls=RangeRouter, **kwargs)
