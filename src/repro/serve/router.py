"""Range router: one asyncio front-end over N vertex-range slice workers.

The horizontal-scale half of the serving story.  :func:`partition_manifest
<repro.store.partition.partition_manifest>` cuts a store's manifest into
contiguous vertex-range slices; each slice is served by an ordinary
:class:`~repro.serve.ShardStoreServer` worker (optionally replicated); and a
:class:`RangeRouter` fronts the fleet speaking the **same wire protocol** —
a client cannot tell a router from a single server except by the extra
``fleet`` sections in ``hello`` / ``stats``.

The construction is deliberately thin:

* :class:`FleetStore` is a *store façade* speaking the stores' one
  call protocol, *steps* (:meth:`~repro.store.StoreQueryMixin.steps`).
  Its four batch primitives (``_degrees`` / ``_edges_for_sources`` /
  ``_edges_in_range`` / ``_edge_payloads``) are step generators: they
  split each request across the worker ranges, yield one step — the
  fan-out that sends the slices to their workers concurrently
  (``asyncio.gather`` on the router's event loop) — and merge the answers
  sent back in source order.  ``egonet`` and ``subgraph`` are the plans of
  :class:`~repro.store.StoreQueryMixin` — the definitions the local store
  runs on its shards — run on those primitives, so routed answers are
  byte-equal to single-store answers *by construction*.  The façade has
  no synchronous query method.
* :class:`RangeRouter` is :class:`ShardStoreServer` serving that façade:
  framing, request coalescing, array frames, error frames, and the one
  store-call driver are inherited unchanged.  Every store call and
  coalesced ``degree`` / ``neighbors`` flush awaits the fleet's fan-out
  steps on the loop, so a routed request crosses no thread inside the
  router.  Only the ops whose answers are fleet rollups are overridden:
  ``hello`` (adds the fleet description), ``stats`` (rolls per-worker
  stats up into a fleet answer), ``reset_stats`` and the merged
  observability ops, each one awaited fan-out.
* :class:`_WorkerChannel` sends one slice's requests over one of two
  transports, with one code path for spans, counters, the timeout and
  failover.  A worker that runs on the router's own event loop — what
  :class:`LocalFleet` and ``serve --fleet`` build — is called in process:
  its :meth:`~repro.serve.ShardStoreServer.dispatch` serves the request
  object the wire would have carried, and its answer arrives as live
  objects, with no frame encoded, written or read.  A worker anywhere else
  is reached by address over reused asyncio streams, and on a *transport*
  failure (``OSError``, :class:`~repro.serve.protocol.ProtocolError` or no
  answer within the timeout — never a server-reported store error) the
  call is retried **once** against the next replica address, then fails
  with a worker-naming :class:`ConnectionError` that travels back to the
  router's client as an error frame on an intact connection.

Routing is strict: a vertex is asked only of the worker whose *assigned*
half-open range contains it, so a boundary shard listed by two slices is
never served twice, and concatenating per-worker answers in range order *is*
the global ``(src, dst)`` sort order.  The router only reads the arrays of
a worker's answer: an in-process answer may be a read-only view of the
worker's mapped shard rows.

Telemetry (PR 8): per-worker call/failover/failure counters are
``fleet.worker_*{worker=<index>}`` series in the fleet's
:class:`~repro.obs.MetricsRegistry` (the router adopts it, so ``metrics``
exposes fleet and server series side by side).  Every replica attempt runs
under a ``fleet.worker_call`` trace span — a failed primary attempt records
``status="error"`` and the failover retry lands as its *sibling*.  Each
concurrent worker call is an asyncio task, which runs in a copy of the
request's context, so the spans parent under the routed request without
any explicit context copy.  The router's ``trace`` op merges its own spans
with each worker's, so one routed query answers with the whole tree.
"""

from __future__ import annotations

import asyncio
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.io import read_shard_manifest
from repro.obs import (
    EventLog,
    MetricsRegistry,
    ProfileStats,
    merge_events,
    trace,
)
from repro.serve import protocol, shaping
from repro.serve.client import CLIENT_SPANS, parse_address
from repro.serve.server import ShardStoreServer, _arg
from repro.store.partition import partition_manifest
from repro.store.query import StoreQueryMixin

__all__ = ["FleetStore", "LocalFleet", "RangeRouter",
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


def _result(response: dict) -> dict:
    """A response object's ``result``; an error answer is re-raised as the
    matching exception, as :class:`~repro.serve.QueryClient` does."""
    if not response.get("ok"):
        protocol.raise_error(response.get("error", {}))
    return response.get("result", {})


class _Transport:
    """How a :class:`_WorkerChannel` reaches one worker, used only on the
    router's event loop.

    :meth:`request` builds the request object a
    :class:`~repro.serve.QueryClient` would send, inside the same
    ``client.<op>`` request span (:func:`~repro.obs.trace.request_span`),
    so the worker parents its spans under it; :meth:`_roundtrip` carries
    the request to the worker and returns the answer's ``result``.
    """

    async def request(self, op: str, args: Optional[dict]) -> dict:
        frame = protocol.request_frame(op, args)
        with trace.request_span(frame, CLIENT_SPANS):
            return await self._roundtrip(frame)

    async def _roundtrip(self, frame: dict) -> dict:
        raise NotImplementedError

    def close(self) -> None:
        """Release the transport (nothing to release in process)."""

    async def wait_closed(self) -> None:
        """Wait until :meth:`close` took effect."""


class _InProcessWorker(_Transport):
    """A worker on the router's own event loop, called in process.

    The worker's :meth:`~repro.serve.ShardStoreServer.dispatch` serves the
    request object through its ordinary path — counters, latency
    histograms, spans and answer shapes as for a wire request — in the
    router's task.  The answer arrives as the worker's live objects: its
    arrays may be read-only views of mapped shard rows, and its rollup
    sections are the worker's own dicts, so the router only reads them.
    """

    def __init__(self, worker: ShardStoreServer):
        self.worker = worker

    async def _roundtrip(self, frame: dict) -> dict:
        return _result(await self.worker.dispatch(frame))


class _WorkerConnection(_Transport):
    """One connection to a worker reached by address: an asyncio stream
    pair.  A round trip is the wire exchange of
    :class:`~repro.serve.QueryClient` — one request frame out, the control
    frame and its binary frame back."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, endpoint: Tuple[str, int]) -> "_WorkerConnection":
        # asyncio sets TCP_NODELAY on the socket itself.
        return cls(*await asyncio.open_connection(*endpoint))

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
        # One frame per error: the stream stays in sync.
        return _result(response)

    def close(self) -> None:
        self.writer.close()

    async def wait_closed(self) -> None:
        try:
            await self.writer.wait_closed()
        except OSError:
            pass  # the worker reset it first: closed either way


class _WorkerChannel:
    """One slice's channel: its requests, over the transport its worker
    needs, with one failover retry per call.

    *addresses* holds the slice's replicas.  A ``"host:port"`` address is
    reached over the wire; a started
    :class:`~repro.serve.ShardStoreServer` — the slice's only replica — is
    called in process, and must run on the router's own event loop (a call
    raises a :class:`RuntimeError` otherwise: reach such a worker by its
    address).  In process, the worker keeps its listener, and its
    ``host:port`` names it in ``hello``, ``stats``, events and errors.

    ``await call(op, args)`` sends one request to the *preferred* replica.
    On a transport failure — ``OSError``, a
    :class:`~repro.serve.protocol.ProtocolError`, or no answer within
    *timeout* (connect included) — it retries exactly once, on a fresh
    connection, against the next address in the replica ring (with a
    single replica that is the same address — a restarted worker is picked
    back up); a second failure raises a :class:`ConnectionError` naming the
    worker, its range, and both failed attempts.  A successful failover
    makes the surviving replica preferred, so later calls do not re-pay the
    dead primary's timeout.  An in-process call has no transport that can
    fail and no deadline: it runs on the router's own loop, where a slow
    call is still making progress, and cancelling it would only re-run the
    same work on the same worker.

    Transports are used only on the router's event loop, so the channel
    needs no lock.  A transport goes back to the idle list only when its
    exchange ended in sync: with an answer, or with an error answer the
    worker reported (a store ``ValueError`` — not a transport failure, so
    it propagates and is never retried on a replica, where it would fail
    identically).  A connection whose exchange was interrupted — by a
    transport error, the timeout or a cancellation — is closed, never
    checked back in: a late answer on it would be read as the next
    request's.
    """

    def __init__(self, index: int, src_lo: int, src_hi: int,
                 addresses: Sequence, *,
                 timeout: Optional[float] = 30.0,
                 registry: Optional[MetricsRegistry] = None,
                 events: Optional[EventLog] = None):
        if not addresses:
            raise ValueError(f"worker {index} has no addresses")
        self.index = int(index)
        self.src_lo = int(src_lo)
        self.src_hi = int(src_hi)
        self.in_process = any(isinstance(replica, ShardStoreServer)
                              for replica in addresses)
        if self.in_process and len(addresses) > 1:
            raise ValueError(
                f"worker {index}: an in-process worker is its slice's only "
                f"replica (it shares the router's process and loop, so no "
                f"failover could reach another)")
        self.addresses = [
            f"{replica.host}:{replica.port}" if self.in_process
            else str(replica) for replica in addresses]
        self._replicas = list(addresses) if self.in_process else [
            parse_address(address) for address in self.addresses]
        self.timeout = timeout
        self._events = events if events is not None else EventLog()
        self._idle: List[Tuple[int, _Transport]] = []
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

    def _checkout(self) -> Optional[_Transport]:
        """An idle transport to the preferred replica, or ``None``."""
        while self._idle:
            address_index, connection = self._idle.pop()
            if address_index == self._preferred:
                return connection
            connection.close()  # pooled connection to a demoted replica
        return None

    async def _connect(self, address_index: int) -> _Transport:
        """A new transport to one replica: the worker itself when it runs
        in process, else a new connection to its address."""
        replica = self._replicas[address_index]
        if not self.in_process:
            return await _WorkerConnection.open(replica)
        if replica.loop is not asyncio.get_running_loop():
            raise RuntimeError(
                f"worker {self.index} ({self.addresses[address_index]}) "
                f"does not run on the router's event loop; a worker on "
                f"another loop is reached by its address")
        return _InProcessWorker(replica)

    async def _attempt(self, address_index: int,
                       connection: Optional[_Transport],
                       op: str, args: Optional[dict], **attrs) -> dict:
        """One request to one replica — on *connection*, or on a new one —
        under its own ``fleet.worker_call`` trace span and, over the wire,
        within *timeout*.  The transport is checked back in only when the
        exchange ended in sync."""
        address = self.addresses[address_index]
        deadline = asyncio.timeout(None if self.in_process else self.timeout)
        in_sync = False
        try:
            with trace.span("fleet.worker_call", worker=self.index,
                            address=address, **attrs):
                try:
                    async with deadline:
                        if connection is None:
                            connection = await self._connect(address_index)
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

    Every query is a store call in steps
    (:meth:`~repro.store.StoreQueryMixin.steps`): each batch primitive
    yields one step, the awaitable fan-out to the workers it needs, and is
    sent back their answers, so ``egonet`` takes two steps, ``subgraph``
    one and an empty batch none.  The
    :class:`RangeRouter` serving the fleet drives them on its event loop,
    which owns the fleet's connections; tools and tests reach a fleet
    through the router's wire ops.

    Parameters
    ----------
    slices:
        One dict per worker, in range order:
        ``{"src_lo", "src_hi", "addresses": ["host:port", ...]}``.  The
        assigned half-open ranges must tile ``[0, n_vertices)`` exactly
        (empty ``lo == hi`` slices are legal and never routed to); the
        first address is the primary, the rest are failover replicas.  In
        place of its addresses a slice may list one started
        :class:`~repro.serve.ShardStoreServer` on the router's event loop,
        which is then called in process (:class:`LocalFleet` builds such
        a fleet).
    info:
        The parent store's description
        (:func:`fleet_info_from_manifest`) — the fleet answers ``hello`` /
        ``subgraph`` naming with the *parent* identity, not a slice's.
    timeout:
        Seconds one replica attempt (connect plus exchange) may take on
        any worker channel reached over the wire before it counts as a
        transport failure.  A worker called in process has no deadline.
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
    def _by_owner(self, vs: np.ndarray) -> List[tuple]:
        """``(channel, mask)`` per worker whose assigned range contains some
        of *vs*, in worker order; *mask* selects those vertices."""
        owners = np.searchsorted(self._his, vs, side="right")
        return [(self._channels[index], owners == index)
                for index in np.unique(owners).tolist()]

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
    # Batch primitives as steps: split by owner, then one step — the
    # fan-out, sent back its answers — then merge in source order.  A
    # fleet call visits no shards, so ``pace`` is ignored.
    # ------------------------------------------------------------------
    def _degrees(self, vs: Sequence[int], *, pace):
        vs = self._check_vertices(np.atleast_1d(np.asarray(vs, dtype=np.int64)))
        out = np.zeros(vs.shape[0], dtype=np.int64)
        if vs.size == 0:
            return out
        split = self._by_owner(vs)
        answers = yield self._scatter([
            (channel, "degrees", {"vertices": vs[mask].tolist()})
            for channel, mask in split])
        for (_, mask), answer in zip(split, answers):
            out[mask] = answer["degrees"]
        return out

    def _edges_for_sources(self, vs: Sequence[int], *,
                           with_payload: bool = False, pace):
        self._require_payload(with_payload)
        vs = np.unique(self._check_vertices(np.asarray(vs, dtype=np.int64)))
        if vs.size == 0:
            return self._finish_rows([], with_payload)
        calls = [(channel, "edges_for_sources",
                  {"vertices": vs[mask].tolist(),
                   "with_payload": with_payload})
                 for channel, mask in self._by_owner(vs)]
        # Ranges are contiguous and each worker answers (src, dst)-sorted,
        # so worker order *is* global source order.
        parts = [answer["edges"] for answer in (yield self._scatter(calls))
                 if answer["edges"].shape[0]]
        return self._finish_rows(parts, with_payload)

    def _edges_in_range(self, lo: int, hi: int, *,
                        with_payload: bool = False, pace):
        self._require_payload(with_payload)
        lo, hi = int(lo), int(hi)
        calls = []
        for channel in self._channels:
            sub_lo = max(lo, channel.src_lo)
            sub_hi = min(hi, channel.src_hi)
            if sub_lo < sub_hi:
                calls.append((channel, "edges_in_range",
                              {"lo": sub_lo, "hi": sub_hi,
                               "with_payload": with_payload}))
        parts = [answer["edges"] for answer in (yield self._scatter(calls))
                 if answer["edges"].shape[0]]
        return self._finish_rows(parts, with_payload)

    def _edge_payloads(self, ps: Sequence[int], qs: Sequence[int], *, pace):
        self._require_payload()
        ps, qs = self._check_pairs(ps, qs)
        out = np.zeros((ps.shape[0], len(self.payload_columns)),
                       dtype=np.int64)
        if ps.size == 0:
            return out
        split = self._by_owner(ps)  # an edge lives with its source's owner
        answers = yield self._scatter([
            (channel, "edge_payloads",
             {"ps": ps[mask].tolist(), "qs": qs[mask].tolist()})
            for channel, mask in split])
        for (_, mask), answer in zip(split, answers):
            out[mask] = answer["payloads"]
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

    async def _broadcast_async(self, op: str, args: Optional[dict] = None,
                               *, wire_only: bool = False) -> List[tuple]:
        """Send one wire op to every worker — with *wire_only*, to every
        worker not called in process — concurrently and return
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
        return await asyncio.gather(
            *(ask(c) for c in self._channels
              if not (wire_only and c.in_process)))

    async def close(self) -> None:
        """Close every idle worker connection, on the router's loop (the
        router does this when it stops; in-process workers have none)."""
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
    frames — is inherited, and so is the store-call driver: every store
    call — the primitive ops, ``egonet`` and ``subgraph``, and the
    coalesced ``degree`` / ``neighbors`` flushes — runs the fleet's steps
    right on the event loop, awaiting each fan-out: a worker is either
    called in process on that loop or reached over an asyncio stream, so
    the loop waits, it never blocks.  The router overrides only the ops
    whose answers are fleet rollups: ``stats`` becomes the per-worker
    rollup, ``reset_stats`` fans out to every worker, and ``trace`` /
    ``profile`` / ``events`` / ``health`` widen into fleet-merged answers,
    each built from one awaited :meth:`FleetStore._broadcast_async` and
    naming the workers it could not reach.  Like every server the router
    runs on one thread, with no pool.  The fleet's registry is adopted as
    the router's, so ``metrics`` serves the ``fleet.worker_*`` series
    alongside the inherited ``serve.*`` ones.  The router closes the
    fleet's connections when it stops.
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
        """The fleet ``profile`` rollup: apply the action on every worker
        reached over the wire, then on the router itself, and answer with
        the merged aggregate.

        A profiler samples every thread of its process, so the router's
        own sampler already sees the frames of its in-process workers:
        they are neither armed nor added, or each stack would count once
        per sampler.  The workers act *before* the router, so after a
        fleet-wide ``stop`` every aggregate in the sum is frozen — the
        merged answer equals the router's own profile plus each wire
        worker's directly fetched snapshot, exactly."""
        action, hz, collapsed = self._profile_args(args)
        replies = await self.fleet._broadcast_async(
            "profile", {"action": action, "hz": hz}, wire_only=True)
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


class LocalFleet:
    """``serve --fleet``: a store cut into *n_slices* vertex-range slices
    (:func:`~repro.store.partition_manifest`), one
    :class:`~repro.serve.ShardStoreServer` per slice, and a
    :class:`RangeRouter` in front, all on the running event loop, so the
    router calls every worker in process.

    Each worker keeps its own listener and address; the router never
    connects to it.  The fleet has a server's lifecycle — :meth:`start`,
    :meth:`serve_until_stopped`, :meth:`request_stop` and the router's
    :attr:`host` / :attr:`port` — so
    ``ThreadedServer(store_dir, server_cls=LocalFleet, n_slices=N)`` runs
    one from synchronous code.  *router_kwargs* go to the router (bind
    address, ``slow_query_us``, ...).
    """

    def __init__(self, store_dir, *, n_slices: int, cache_shards: int = 8,
                 **router_kwargs):
        self.slices = partition_manifest(store_dir, n_slices=n_slices)
        self.info = fleet_info_from_manifest(read_shard_manifest(store_dir))
        self.cache_shards = int(cache_shards)
        self.workers: List[ShardStoreServer] = []
        self.router: Optional[RangeRouter] = None
        #: The final ``stats`` rollup, taken when the router stopped.
        self.summary: Optional[dict] = None
        self._router_kwargs = router_kwargs

    async def start(self) -> None:
        """Start one worker per slice, then the router over them."""
        try:
            for entry in self.slices:
                worker = ShardStoreServer(entry["directory"],
                                          cache_shards=self.cache_shards)
                await worker.start()
                self.workers.append(worker)
            fleet = FleetStore(
                [{"src_lo": entry["src_lo"], "src_hi": entry["src_hi"],
                  "addresses": [worker]}
                 for entry, worker in zip(self.slices, self.workers)],
                self.info)
            self.router = RangeRouter(fleet, **self._router_kwargs)
            await self.router.start()
        except BaseException:
            await self._stop_workers()
            raise

    @property
    def host(self) -> str:
        return self.router.host

    @property
    def port(self) -> int:
        return self.router.port

    def request_stop(self) -> None:
        """Ask the router to stop (safe from any thread)."""
        self.router.request_stop()

    async def serve_until_stopped(self) -> None:
        """Serve until the router stops — :meth:`request_stop`, a
        ``shutdown`` request or a cancellation — then roll the fleet's
        final ``stats`` up into :attr:`summary` while the workers still
        run, and stop them."""
        try:
            await self.router.serve_until_stopped()
        finally:
            try:
                self.summary = await self.router.fleet_stats()
            finally:
                await self._stop_workers()

    async def _stop_workers(self) -> None:
        for worker in self.workers:
            await worker.stop()

