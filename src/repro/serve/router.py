"""Range router: one asyncio front-end over N vertex-range slice workers.

The horizontal-scale half of the serving story.  :func:`partition_manifest
<repro.store.partition.partition_manifest>` cuts a store's manifest into
contiguous vertex-range slices; each slice is served by an ordinary
:class:`~repro.serve.ShardStoreServer` worker (optionally replicated); and a
:class:`RangeRouter` fronts the fleet speaking the **same wire protocol** —
a client cannot tell a router from a single server except by the extra
``fleet`` sections in ``hello`` / ``stats``.

The construction is deliberately thin:

* :class:`FleetStore` is a *store façade*.  Its four batch primitives
  (``degrees_async`` / ``edges_for_sources_async`` /
  ``edges_in_range_async`` / ``edge_payloads_async``) are coroutines: they
  split each request across the worker ranges, send the slices to their
  workers concurrently over the same wire protocol (``asyncio.gather``
  over asyncio stream connections, on the router's event loop), and merge
  the answers back in source order.  ``egonet_edges_async`` /
  ``subgraph_edges_async`` await the plans of
  :class:`~repro.store.StoreQueryMixin` — the ``egonet`` and ``subgraph``
  definitions the local store drives synchronously — through those
  primitives, so routed answers are byte-equal to single-store answers
  *by construction*.  The façade has no synchronous query method.
* :class:`RangeRouter` is :class:`ShardStoreServer` serving that façade:
  framing, request coalescing, array frames, and error frames are
  inherited unchanged.  Every store call and coalesced ``degree`` /
  ``neighbors`` flush awaits the fleet on the loop, so a routed request
  crosses no thread inside the router.  ``hello`` (adds the fleet
  description) and ``stats`` (rolls per-worker stats up into a fleet
  answer) are overridden, as are ``reset_stats`` and the merged
  observability ops, each one awaited fan-out.
* :class:`_WorkerChannel` owns one slice's wire connections: reused
  asyncio streams against the preferred replica, and on a *transport*
  failure (``OSError``, :class:`~repro.serve.protocol.ProtocolError` or no
  answer within the timeout — never a server-reported store error) it
  retries the call **once** against the next replica address, then fails
  with a worker-naming :class:`ConnectionError` that travels back to the
  router's client as an error frame on an intact connection.

Routing is strict: a vertex is asked only of the worker whose *assigned*
half-open range contains it, so a boundary shard listed by two slices is
never served twice, and concatenating per-worker answers in range order *is*
the global ``(src, dst)`` sort order.

Telemetry (PR 8): per-worker call/failover/failure counters are
``fleet.worker_*{worker=<index>}`` series in the fleet's
:class:`~repro.obs.MetricsRegistry` (the router adopts it, so ``metrics``
exposes fleet and server series side by side).  Every replica attempt runs
under a ``fleet.worker_call`` trace span — a failed primary attempt records
``status="error"`` and the failover retry lands as its *sibling*.  Each
concurrent worker call is an asyncio task, which runs in a copy of the
request's context, so the spans parent under the routed request without
any explicit context copy.  The router's ``trace`` op merges its own spans
with each worker's (fetched over the wire), so one routed query answers
with the whole tree.
"""

from __future__ import annotations

import asyncio
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import (
    EventLog,
    MetricsRegistry,
    ProfileStats,
    merge_events,
    trace,
)
from repro.serve import protocol, shaping
from repro.serve.client import CLIENT_SPANS, parse_address
from repro.serve.server import (
    ShardStoreServer,
    ThreadedServer,
    _arg,
    _rows_per_vertex,
)
from repro.store.query import StoreQueryMixin

__all__ = ["FleetStore", "RangeRouter", "ThreadedRouter",
           "fleet_info_from_manifest"]

#: Failures of the transport, not of the store: the exchange may have left
#: the stream out of sync, so the connection is closed and the call is
#: retried on the next replica.  (``TimeoutError`` is an ``OSError``.)
_TRANSPORT_ERRORS = (OSError, protocol.ProtocolError)


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


class _WorkerConnection:
    """One connection to a worker: an asyncio stream pair, used only on
    the router's event loop.

    :meth:`request` is the wire exchange of
    :class:`~repro.serve.QueryClient` — one request frame out, the control
    frame and its binary frame back, an error frame re-raised as the
    matching exception — and, under an active trace, a ``client.<op>``
    leaf span whose id is stamped on the frame so the worker parents its
    spans under it.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, endpoint: Tuple[str, int]) -> "_WorkerConnection":
        # asyncio sets TCP_NODELAY on the socket itself.
        return cls(*await asyncio.open_connection(*endpoint))

    async def request(self, op: str, args: Optional[dict]) -> dict:
        frame = protocol.request_frame(op, args)
        active = trace.current()
        if active is None:
            return await self._roundtrip(frame)
        name, attrs = CLIENT_SPANS[op]
        frame["trace"], leaf = trace.begin_request(active, name, attrs)
        try:
            answer = await self._roundtrip(frame)
        except BaseException as exc:
            trace.end_leaf(leaf, exc)
            raise
        trace.end_leaf(leaf)
        return answer

    async def _roundtrip(self, frame: dict) -> dict:
        self.writer.write(protocol.encode_frame(frame))
        await self.writer.drain()
        response = await protocol.read_frame_async(self.reader)
        if response is None:
            raise ConnectionResetError(
                "worker closed the connection without answering")
        slots = protocol.array_slots(response)
        if slots:
            protocol.place_arrays(
                slots, await protocol.read_binary_frame_async(self.reader))
        if not response.get("ok"):
            # One frame per error: the stream stays in sync.
            protocol.raise_error(response.get("error", {}))
        return response.get("result", {})

    def close(self) -> None:
        self.writer.close()

    async def wait_closed(self) -> None:
        try:
            await self.writer.wait_closed()
        except OSError:
            pass  # the worker reset it first: closed either way


class _WorkerChannel:
    """One slice's wire channel: reused connections over the slice's
    replica addresses, with one failover retry per call.

    ``await call(op, args)`` sends one request to the *preferred* replica.
    On a transport failure — ``OSError``, a
    :class:`~repro.serve.protocol.ProtocolError`, or no answer within
    *timeout* (connect included) — it retries exactly once, on a fresh
    connection, against the next address in the replica ring (with a
    single replica that is the same address — a restarted worker is picked
    back up); a second failure raises a :class:`ConnectionError` naming the
    worker, its range, and both failed attempts.  A successful failover
    makes the surviving replica preferred, so later calls do not re-pay the
    dead primary's timeout.

    The connections are asyncio streams used only on the router's event
    loop, so the channel needs no lock.  A connection goes back to the
    idle list only when its exchange ended in sync: with an answer, or
    with an error frame the worker reported (a store ``ValueError`` — not
    a transport failure, so it propagates and is never retried on a
    replica, where it would fail identically).  A connection whose exchange
    was interrupted — by a transport error, the timeout or a cancellation
    — is closed, never checked back in: a late answer on it would be read
    as the next request's.
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
        self._endpoints = [parse_address(address)
                           for address in self.addresses]
        self.timeout = timeout
        self._events = events if events is not None else EventLog()
        self._idle: List[Tuple[int, _WorkerConnection]] = []
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

    def _checkout(self) -> Optional[_WorkerConnection]:
        """An idle connection to the preferred replica, or ``None``."""
        while self._idle:
            address_index, connection = self._idle.pop()
            if address_index == self._preferred:
                return connection
            connection.close()  # pooled connection to a demoted replica
        return None

    async def _attempt(self, address_index: int,
                       connection: Optional[_WorkerConnection],
                       op: str, args: Optional[dict], **attrs) -> dict:
        """One request to one replica — on *connection*, or on a new one —
        under its own ``fleet.worker_call`` trace span and within
        *timeout*.  The connection is checked back in only when the
        exchange ended in sync."""
        address = self.addresses[address_index]
        deadline = asyncio.timeout(self.timeout)
        in_sync = False
        try:
            with trace.span("fleet.worker_call", worker=self.index,
                            address=address, **attrs):
                try:
                    async with deadline:
                        if connection is None:
                            connection = await _WorkerConnection.open(
                                self._endpoints[address_index])
                        result = await connection.request(op, args)
                except TimeoutError:
                    if not deadline.expired():
                        raise
                    raise TimeoutError(
                        f"no answer from {address} within "
                        f"{self.timeout:g} s") from None
            in_sync = True
            return result
        except Exception as exc:
            # An error frame the worker sent leaves the stream in sync.
            in_sync = not isinstance(exc, _TRANSPORT_ERRORS)
            raise
        finally:
            if connection is not None:
                if in_sync:
                    self._idle.append((address_index, connection))
                else:
                    connection.close()

    async def call(self, op: str, args: Optional[dict] = None) -> dict:
        """Send one request, with one replica-failover retry; returns the
        answer's ``result`` shape.

        Each replica attempt is its own ``fleet.worker_call`` trace span
        (a no-op without an active trace): a dead primary leaves an
        error-status span and the failover retry records a *sibling*
        span, so the trace tree shows both attempts side by side.
        """
        self._calls.inc()
        address_index = self._preferred
        try:
            return await self._attempt(address_index, self._checkout(),
                                       op, args)
        except _TRANSPORT_ERRORS as first:
            self._failures.inc()
            # Flight-recorder events stamp the active trace automatically
            # (the call runs in the request's context), so a failover
            # links back to the routed query that tripped it.
            self._events.emit("fleet.replica_death", worker=self.index,
                              address=self.addresses[address_index],
                              error=str(first))
            fallback = (address_index + 1) % len(self.addresses)
            try:
                result = await self._attempt(fallback, None, op, args,
                                             failover=True)
            except _TRANSPORT_ERRORS as second:
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
            self._preferred = fallback
            return result

    async def close(self) -> None:
        idle, self._idle = self._idle, []
        for _, connection in idle:
            connection.close()
        for _, connection in idle:
            await connection.wait_closed()


class FleetStore(StoreQueryMixin):
    """Store façade over N range-sliced workers — the router's ``store``.

    Every query is a coroutine (``degrees_async``, ...,
    ``egonet_edges_async``), awaited on the event loop of the
    :class:`RangeRouter` serving the fleet, which owns its connections;
    tools and tests reach a fleet through the router's wire ops.

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
        Seconds one replica attempt (connect plus exchange) may take on
        any worker channel before it counts as a transport failure.
    registry:
        :class:`~repro.obs.MetricsRegistry` the per-worker channel
        counters register into (a private one by default).  The router
        adopts it via the store's ``registry`` attribute, so the
        ``metrics`` op exposes fleet and server series together.
    """

    def __init__(self, slices: Sequence[dict], info: dict, *,
                 timeout: Optional[float] = 30.0,
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

    # ------------------------------------------------------------------
    # Fan-out plumbing
    # ------------------------------------------------------------------
    def _owners(self, vs: np.ndarray) -> np.ndarray:
        """Index of the worker whose assigned range contains each vertex."""
        return np.searchsorted(self._his, vs, side="right")

    async def _scatter(self, calls: List) -> List[dict]:
        """Send ``(channel, op, args)`` requests concurrently; answers in
        call order.  Every call runs to its end — an answer, or an error
        that is retrieved here — before the first failure in call order
        propagates (the router turns it into one error frame), so a
        partial failure leaves no call running and every connection
        either back in its idle list or closed."""
        if len(calls) == 1:
            channel, op, args = calls[0]
            return [await channel.call(op, args)]
        answers = await asyncio.gather(
            *(channel.call(op, args) for channel, op, args in calls),
            return_exceptions=True)
        for answer in answers:
            if isinstance(answer, BaseException):
                raise answer
        return answers

    # ------------------------------------------------------------------
    # Batch primitives (split by owner → fan out → merge in source order)
    # ------------------------------------------------------------------
    async def degrees_async(self, vs: Sequence[int]) -> np.ndarray:
        vs = self._check_vertices(np.atleast_1d(np.asarray(vs, dtype=np.int64)))
        out = np.zeros(vs.shape[0], dtype=np.int64)
        if vs.size == 0:
            return out
        owners = self._owners(vs)
        calls, masks = [], []
        for index, channel in enumerate(self._channels):
            mask = owners == index
            if mask.any():
                calls.append((channel, "degrees",
                              {"vertices": vs[mask].tolist()}))
                masks.append(mask)
        for mask, answer in zip(masks, await self._scatter(calls)):
            out[mask] = answer["degrees"]
        return out

    async def edges_for_sources_async(self, vs: Sequence[int], *,
                                      with_payload: bool = False
                                      ) -> np.ndarray:
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
                calls.append((channel, "edges_for_sources",
                              {"vertices": vs[mask].tolist(),
                               "with_payload": with_payload}))
        # Ranges are contiguous and each worker answers (src, dst)-sorted,
        # so worker order *is* global source order.
        parts = [answer["edges"] for answer in await self._scatter(calls)
                 if answer["edges"].shape[0]]
        return self._finish_rows(parts, with_payload)

    async def edges_in_range_async(self, lo: int, hi: int, *,
                                   with_payload: bool = False) -> np.ndarray:
        if with_payload:
            self._require_payload()
        lo, hi = int(lo), int(hi)
        calls = []
        for channel in self._channels:
            sub_lo = max(lo, channel.src_lo)
            sub_hi = min(hi, channel.src_hi)
            if sub_lo < sub_hi:
                calls.append((channel, "edges_in_range",
                              {"lo": sub_lo, "hi": sub_hi,
                               "with_payload": with_payload}))
        parts = [answer["edges"] for answer in await self._scatter(calls)
                 if answer["edges"].shape[0]]
        return self._finish_rows(parts, with_payload)

    async def edge_payloads_async(self, ps: Sequence[int],
                                  qs: Sequence[int]) -> np.ndarray:
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
                calls.append((channel, "edge_payloads",
                              {"ps": ps[mask].tolist(),
                               "qs": qs[mask].tolist()}))
                masks.append(mask)
        for mask, answer in zip(masks, await self._scatter(calls)):
            out[mask] = answer["payloads"]
        return out

    # ------------------------------------------------------------------
    # Derived queries: the store's plans, awaited on the loop
    # ------------------------------------------------------------------
    async def _run_async(self, plan):
        """Drive a plan (see :class:`~repro.store.StoreQueryMixin`) through
        this fleet's ``*_async`` primitives and return its result."""
        answer = None
        while True:
            try:
                method, args, kwargs = plan.send(answer)
            except StopIteration as done:
                return done.value
            answer = await getattr(self, f"{method}_async")(*args, **kwargs)

    async def subgraph_edges_async(self, vertices: Sequence[int], *,
                                   with_payload: bool = False) -> np.ndarray:
        return await self._run_async(
            self._subgraph_plan(vertices, with_payload))

    async def egonet_edges_async(self, v: int, *, with_payload: bool = False
                                 ) -> Tuple[np.ndarray, np.ndarray]:
        return await self._run_async(self._egonet_plan(int(v), with_payload))

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

    async def _broadcast_async(self, op: str,
                               args: Optional[dict] = None) -> List[tuple]:
        """Send one wire op to every worker concurrently and return
        ``(channel, answer, error)`` per worker, in worker order, with
        exactly one of *answer* / *error* set.  An unreachable worker
        yields its channel error — naming the worker, its range and both
        attempts — instead of failing the broadcast; each caller decides
        what that gap means."""
        async def ask(channel):
            try:
                return channel, await channel.call(op, args), None
            except Exception as exc:
                return channel, None, exc
        return await asyncio.gather(*(ask(c) for c in self._channels))

    async def close(self) -> None:
        """Close every idle worker connection, on the router's loop (the
        router does this when it stops)."""
        for channel in self._channels:
            await channel.close()

    def __repr__(self) -> str:
        return (f"FleetStore(workers={len(self._channels)}, "
                f"n_vertices={self.n_vertices}, "
                f"total_edges={self.total_edges}, "
                f"payload_columns={list(self.payload_columns)})")


def _missing_workers(replies: List[tuple]) -> List[dict]:
    """The workers a :meth:`FleetStore._broadcast_async` could not reach,
    each named with its assigned range."""
    return [shaping.missing_worker(c.index, c.src_lo, c.src_hi, error)
            for c, _, error in replies if error is not None]


class RangeRouter(ShardStoreServer):
    """A :class:`ShardStoreServer` whose store is a :class:`FleetStore`.

    Everything protocol-facing — framing, coalescing, array frames, error
    frames — is inherited.  Every store call — the primitive ops,
    ``egonet`` and ``subgraph``, and the coalesced ``degree`` /
    ``neighbors`` flushes — awaits the fleet's coroutine right on the
    event loop, counted as an ``inline`` store call: the router's worker
    connections are asyncio streams, so the loop waits, it never blocks.
    ``stats`` becomes the per-worker rollup, ``reset_stats`` fans out to
    every worker, and ``trace`` / ``profile`` / ``events`` / ``health``
    widen into fleet-merged answers, each built from one awaited
    :meth:`FleetStore._broadcast_async` and naming the workers it could
    not reach.  Like every server the router has a one-thread pool
    (``decode_threads``), used only for ``metrics`` and for applying a
    ``profile`` action.  The fleet's registry is adopted as the router's,
    so ``metrics`` serves the ``fleet.worker_*`` series alongside the
    inherited ``serve.*`` ones.  The router closes the fleet's
    connections when it stops.
    """

    def __init__(self, fleet: FleetStore, **kwargs):
        if not isinstance(fleet, FleetStore):
            raise TypeError(
                f"RangeRouter serves a FleetStore, got {type(fleet).__name__}")
        super().__init__(fleet, **kwargs)

    @property
    def fleet(self) -> FleetStore:
        return self.store

    async def _teardown(self, grace_s: float) -> None:
        await super()._teardown(grace_s)
        await self.fleet.close()

    async def _store_call(self, method: str, *args, sources=None, **kwargs):
        """Await the fleet's coroutine for one store call on the loop
        (``FleetStore.<method>_async``), counted as an inline store
        call."""
        self._store_calls["inline"].inc()
        return await getattr(self.fleet, f"{method}_async")(*args, **kwargs)

    def _flush_inline(self, window) -> bool:
        return True  # the batch flushes below are fan-outs

    async def _degrees_batch(self, vertices: List[int]) -> List[int]:
        values = await self._store_call(
            "degrees", np.asarray(vertices, dtype=np.int64))
        return [int(d) for d in values]

    async def _neighbors_batch(self, vertices: List[int],
                               with_payload: bool) -> List[np.ndarray]:
        vs = np.asarray(vertices, dtype=np.int64)
        return _rows_per_vertex(vs, await self._store_call(
            "edges_for_sources", vs, with_payload=with_payload))

    async def _op_hello(self, args: dict) -> dict:
        return shaping.hello_shape(self._ops,
                                   shaping.shape_store_info(self.store),
                                   fleet=self.store.describe(),
                                   started_at=self._started_at_wall,
                                   uptime_s=self._uptime_s())

    async def _op_stats(self, args: dict) -> dict:
        return shaping.stats_answer_shape(await self.fleet_stats())

    def stats(self) -> dict:
        """Not available on a router: its workers answer only on the
        router's event loop, which a synchronous call cannot wait on."""
        raise RuntimeError(
            "RangeRouter.stats() cannot probe the fleet's workers "
            "synchronously: send the 'stats' op, or await "
            "router.fleet_stats() on the router's event loop")

    async def fleet_stats(self) -> dict:
        """The ``stats`` rollup: the router's own ``server`` counters, the
        fleet description, one ``stats`` report per worker (an error report
        for a dead one) and the summed ``store`` section.  Awaited on the
        router's loop."""
        # describe() is read before the stats probes, so the per-channel
        # call counters it reports never include this rollup's own calls.
        fleet = self.fleet.describe()
        reports = [shaping.fleet_worker_report(c.index, c.src_lo, c.src_hi,
                                               stats=answer, error=error)
                   for c, answer, error
                   in await self.fleet._broadcast_async("stats")]
        return shaping.fleet_stats_shape(self._server_stats(), fleet, reports,
                                         n_shards=self.fleet.n_shards)

    async def _op_reset_stats(self, args: dict) -> dict:
        self.registry.reset()
        for _, _, error in await self.fleet._broadcast_async("reset_stats"):
            if error is not None:
                # A partial reset would leave stale counters in the next
                # measured window.
                raise error
        return shaping.reset_stats_shape(workers=self.fleet.n_workers)

    async def _op_trace(self, args: dict) -> dict:
        trace_id = _arg(args, "id")
        if not isinstance(trace_id, str):
            raise ValueError("request arg 'id' must be a string trace id")
        replies = await self.fleet._broadcast_async("trace", {"id": trace_id})
        spans = self.recorder.spans(trace_id)
        for _, answer, _ in replies:
            if answer is not None:
                spans.extend(answer["spans"])
        return shaping.trace_answer_shape(
            trace_id, spans, missing_workers=_missing_workers(replies))

    async def _op_profile(self, args: dict) -> dict:
        """The fleet ``profile`` rollup: apply the action on every worker,
        then on the router itself, and answer with the merged aggregate.

        The workers act *before* the router, so after a fleet-wide
        ``stop`` every aggregate in the sum is frozen — the merged answer
        equals the router's own profile plus each worker's directly
        fetched snapshot, exactly."""
        action, hz, collapsed = self._profile_args(args)
        replies = await self.fleet._broadcast_async(
            "profile", {"action": action, "hz": hz})
        # On the pool: ``stop`` joins the sampling thread.
        await self._run_store(self._apply_profile_action, action, hz)
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
        replies = await self.fleet._broadcast_async(
            "events", {"limit": limit, "kind": kind})
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
        replies = await self.fleet._broadcast_async("health")
        reports = [shaping.fleet_worker_report(c.index, c.src_lo, c.src_hi,
                                               health=answer, error=error)
                   for c, answer, error in replies]
        down = _missing_workers(replies)
        return shaping.health_shape(
            status="degraded" if down else "ok",
            fleet={"workers": self.fleet.n_workers, "down": len(down)},
            workers=reports, down=down, **self._health_sections())


class ThreadedRouter(ThreadedServer):
    """A :class:`RangeRouter` on a background thread (the
    :class:`~repro.serve.ThreadedServer` lifecycle, router construction)."""

    def __init__(self, fleet: FleetStore, **kwargs):
        super().__init__(fleet, server_cls=RangeRouter, **kwargs)
