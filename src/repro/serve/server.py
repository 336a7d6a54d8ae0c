"""Asyncio query server: one :class:`~repro.store.ShardStore` per worker.

The serving half of the out-of-core story: a shard store is owned
by one :class:`ShardStoreServer`, which accepts length-prefixed JSON frames
(:mod:`repro.serve.protocol`), dispatches ``degree`` / ``degrees`` /
``neighbors`` / ``edges_for_sources`` / ``edges_in_range`` / ``egonet`` /
``subgraph`` / ``edge_payloads`` requests (with their ``with_payload``
variants), and answers with the :mod:`repro.serve.shaping` shapes the CLI's
``query --json`` also emits.

An answer that holds arrays is written as the protocol-v3 pair: a JSON
control frame, then one binary frame whose bodies are ``memoryview`` objects
over the answer arrays — for a warm range answer, over the store's
memory-mapped shard rows — so bulk rows move from the page cache to the
socket without a Python-list encode or a private copy.

Design rules:

* **One store, many connections.**  Every connection shares the server's
  single :class:`ShardStore`; its decoded-shard LRU is concurrent-safe
  (a lock guards cache mutation), so hot shards are decoded once no matter
  which connection asked first.
* **Warm calls run inline, cold calls run on the pool; the loop never
  decodes on purpose.**  A store call that touches at most two shards, all
  in the LRU (:meth:`~repro.store.ShardStore.cached`), runs right on the
  event loop — a hop to a thread and back costs more than the call.  Every
  other call, and every call without a source window, runs on a bounded
  :class:`~concurrent.futures.ThreadPoolExecutor` (``decode_threads``), so
  neither a cold decode nor a warm bulk copy stalls unrelated
  connections.  ``serve.store_calls`` counts where each store call ran.
  A store server decodes on **one** pool thread by default: a decode is
  Python code under the GIL, and a mapped shard's page faults are taken
  inside numpy calls that hold it too, so a second decode thread overlaps
  nothing and only adds CPU.  The range router
  (:class:`~repro.serve.router.RangeRouter`) awaits every store call and
  rollup right on the loop — its worker connections are asyncio streams —
  and uses its one pool thread only for ``metrics`` and for applying a
  ``profile`` action.
* **Scalar requests coalesce into batch calls.**  Concurrent ``degree`` /
  ``neighbors`` requests that land in the same event-loop tick are folded
  into one ``store.degrees`` / ``store.edges_for_sources`` call (the PR 1
  batch-first entry points) and the answers are fanned back out — under
  many clients the store sees a few array calls, not a scalar call storm.
* **Errors are frames, not disconnects.**  A store ``ValueError`` /
  ``IndexError`` travels back as an error frame carrying the exact message;
  only an untrustworthy frame (oversized length prefix, non-JSON body,
  disconnect mid-frame) closes the connection, and then only that one.
  An exception class the protocol does not round-trip becomes an
  ``InternalError`` frame: a server fault, not a client mistake.  It also
  counts in ``serve.internal_errors`` and emits one
  ``serve.internal_error`` event with the real class name, the message,
  the op and the trace id.
* **Operational surface built in.**  A ``stats`` request reports request
  counts, per-op latency histograms (with derived p50/p95/p99), coalescing
  effectiveness, where store calls ran (``store_calls``), and the store's
  ``shard_reads`` / ``cache_hits``; ``metrics`` exposes the same registry
  as a raw snapshot plus Prometheus text; ``reset_stats`` rearms every
  counter (benchmark warmup exclusion); ``shutdown`` requests a graceful
  stop (in-flight requests finish, then the listener closes).  PR 10 adds
  ``profile`` (start / stop / snapshot / reset the continuous
  :class:`~repro.obs.SamplingProfiler`), ``events`` (the
  :class:`~repro.obs.EventLog` flight recorder's tail), and ``health``
  (liveness: uptime, profiler / recorder state, connections) — all
  additive ops, no protocol version bump.
* **One registry, one recorder (PR 8).**  All telemetry lives on a single
  :class:`repro.obs.MetricsRegistry` shared with the store — ``stats()`` is
  a view over it, never a private dict — and requests carrying the additive
  ``"trace"`` key run under :mod:`repro.obs.trace` spans recorded into the
  server's bounded :class:`~repro.obs.TraceRecorder`, retrievable through
  the ``trace`` op.  A request above ``slow_query_us`` counts in
  ``serve.slow_queries`` and emits one ``serve.slow_request`` event
  carrying its trace id — the one slow-request record.

:class:`ThreadedServer` runs the whole thing on a background thread for
synchronous callers — the test suite, benchmarks, and examples stand a
server up with ``with ThreadedServer(store) as handle: ...``.
"""

from __future__ import annotations

import asyncio
import contextvars
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.obs import (
    EventLog,
    MetricsRegistry,
    SamplingProfiler,
    TraceRecorder,
    trace,
)
from repro.serve import protocol, shaping
from repro.serve.protocol import (
    DEFAULT_MAX_REQUEST_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
)
from repro.store.query import ShardStore

__all__ = ["ShardStoreServer", "ThreadedServer"]

#: Upper bucket bounds (µs) of the per-op latency histograms
#: (``serve.latency_us`` series on the registry).
_LATENCY_BOUNDS_US = (100, 250, 500, 1_000, 2_500, 5_000,
                      10_000, 25_000, 50_000, 100_000, 500_000)

#: Answers whose arrays hold fewer bytes go out as one joined write:
#: copying a few KiB costs less than a send — and a client wake-up — per
#: array.  Larger (bulk) rows are written as views over their memory, the
#: mapped shard rows included, without a copy.
_JOIN_BELOW_BYTES = 64 << 10


class _Coalescer:
    """Folds concurrent scalar submissions into one batched store call.

    ``submit(value)`` returns a future; all values submitted before the next
    event-loop tick (or up to ``max_batch``) are handed to *flush_fn* as one
    list, and the returned per-value results resolve the futures in order.
    The values are vertex ids: *inline* is asked with the batch's
    ``(min, max)`` source window whether *flush_fn* runs right on the loop
    or on *executor*; a *flush_fn* that returns a coroutine when run on the
    loop (the range router's fan-out) has it awaited there as a task.
    Per-value validation must happen **before** submit — a failure inside
    *flush_fn* fails the whole batch.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop,
                 executor: ThreadPoolExecutor,
                 flush_fn: Callable[[List], List], *,
                 inline: Callable[[Tuple[int, int]], bool],
                 max_batch: int = 1024,
                 registry: Optional[MetricsRegistry] = None,
                 kind: str = "adhoc"):
        self._loop = loop
        self._executor = executor
        self._flush_fn = flush_fn
        self._inline = inline
        self._max_batch = max_batch
        self._pending: List = []  # (value, future) pairs
        self._flush_scheduled = False
        # Running coroutine flushes: the loop holds its tasks weakly.
        self._flushing: set = set()
        # Effectiveness counters are registry series (labelled by the scalar
        # op being coalesced) so the fleet rollup and Prometheus see them;
        # a private registry keeps direct construction (unit tests) working.
        registry = registry if registry is not None else MetricsRegistry()
        self._batches = registry.counter("serve.coalesced_batches", kind=kind)
        self._requests = registry.counter("serve.coalesced_requests", kind=kind)
        self._max_batch_seen = registry.gauge("serve.coalesce_max_batch",
                                              kind=kind)

    def submit(self, value) -> "asyncio.Future":
        future = self._loop.create_future()
        self._pending.append((value, future))
        if len(self._pending) >= self._max_batch:
            self._flush()
        elif not self._flush_scheduled:
            self._flush_scheduled = True
            self._loop.call_soon(self._flush)
        return future

    def _flush(self) -> None:
        self._flush_scheduled = False
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        self._batches.inc()
        self._requests.inc(len(batch))
        self._max_batch_seen.set_max(len(batch))
        values = [value for value, _ in batch]
        if self._inline((min(values), max(values))):
            try:
                results = self._flush_fn(values)
            except Exception as exc:
                self._resolve(batch, None, exc)
                return
            if not asyncio.iscoroutine(results):
                self._resolve(batch, results, None)
                return
            task = self._loop.create_task(results)
            self._flushing.add(task)
            task.add_done_callback(self._flushing.discard)
        else:
            task = self._loop.run_in_executor(
                self._executor, self._flush_fn, values)

        def _distribute(done: "asyncio.Future") -> None:
            exc = done.exception()
            self._resolve(batch, None if exc is not None else done.result(),
                          exc)

        task.add_done_callback(_distribute)

    @staticmethod
    def _resolve(batch: List, results: Optional[List],
                 exc: Optional[BaseException]) -> None:
        """Settle one batch's futures: each with its own result, or all
        with the batch's exception."""
        for index, (_, future) in enumerate(batch):
            if future.cancelled():
                continue
            if exc is not None:
                future.set_exception(exc)
            else:
                future.set_result(results[index])

    @property
    def requests(self) -> int:
        return self._requests.value

    @property
    def batches(self) -> int:
        return self._batches.value

    @property
    def max_batch_seen(self) -> int:
        return self._max_batch_seen.value

    def stats(self) -> dict:
        return {"requests": self.requests, "batches": self.batches,
                "max_batch": self.max_batch_seen}


def _arg(args: dict, name: str):
    if name not in args:
        raise ValueError(f"request args missing {name!r}")
    return args[name]


def _arg_int(args: dict, name: str) -> int:
    value = _arg(args, name)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"request arg {name!r} must be an integer, "
                         f"got {type(value).__name__}")
    return value


def _arg_ints(args: dict, name: str) -> List[int]:
    value = _arg(args, name)
    if not isinstance(value, list) or any(
            isinstance(x, bool) or not isinstance(x, int) for x in value):
        raise ValueError(f"request arg {name!r} must be a list of integers")
    return value


def _arg_bool(args: dict, name: str, default: bool = False) -> bool:
    value = args.get(name, default)
    if not isinstance(value, bool):
        raise ValueError(f"request arg {name!r} must be a boolean")
    return value


#: The most shards a store call may touch and still run on the event loop.
#: Two covers a point call near a shard boundary and every call on a
#: two-shard store.
_INLINE_MAX_SHARDS = 2


def _window(vertices: List[int]) -> Tuple[int, int]:
    """The ``(min, max)`` source window of a vertex list; ``(0, -1)``, a
    window no shard overlaps, when the list is empty."""
    return (min(vertices), max(vertices)) if vertices else (0, -1)


def _rows_per_vertex(vertices: np.ndarray,
                     rows: np.ndarray) -> List[np.ndarray]:
    """One ``(src, dst)``-sorted batch gather, sliced back per requested
    vertex (the coalesced ``neighbors`` answers)."""
    srcs = rows[:, 0]
    lefts = np.searchsorted(srcs, vertices, side="left")
    rights = np.searchsorted(srcs, vertices, side="right")
    return [rows[lo:hi] for lo, hi in zip(lefts, rights)]


class ShardStoreServer:
    """Asyncio front-end serving one :class:`~repro.store.ShardStore`.

    Parameters
    ----------
    store:
        A :class:`ShardStore` instance, a store directory (a
        store is then opened with *cache_shards*), or any object exposing
        the same query surface — the range router serves its fleet façade
        through this very class.
    host, port:
        Bind address; ``port=0`` picks an ephemeral port, published as
        :attr:`port` after :meth:`start`.
    decode_threads:
        Size of the thread pool cold store calls run on — the bound on
        concurrent shard decodes (≥ 1; default 1, see the design rules
        above).  Calls touching at most two shards, all cached, run on the
        event loop instead.
    max_request_bytes:
        Cap on incoming request frames; an oversized length prefix gets one
        error frame and the connection is closed.
    cache_shards:
        LRU size used only when *store* is a directory path.
    slow_query_us:
        Latency threshold (µs) above which a request is counted in
        ``serve.slow_queries`` and recorded as a ``serve.slow_request``
        event (op, elapsed µs, ok, trace id) on the flight recorder;
        ``None`` (default) turns the check off.
    """

    def __init__(self, store, *, host: str = "127.0.0.1", port: int = 0,
                 decode_threads: int = 1,
                 max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
                 max_coalesce_batch: int = 1024,
                 cache_shards: int = 8,
                 slow_query_us: Optional[int] = None):
        if decode_threads < 1:
            raise ValueError(
                f"decode_threads must be >= 1, got {decode_threads}")
        # One registry per server process view: a store opened here joins
        # it, a pre-opened store (or fleet façade) brings its own, so
        # server and store stats are views over the same series.
        if isinstance(store, (str, Path)):
            self.registry = MetricsRegistry()
            store = ShardStore(store, cache_shards=cache_shards,
                               registry=self.registry)
        else:
            self.registry = getattr(store, "registry", None) or MetricsRegistry()
        # One flight recorder per server process view, same adoption rule
        # as the registry: a fleet façade brings its own event log, so its
        # failovers and the router's events land on one timeline.
        # (Explicit None test: an empty EventLog is len()-falsy and must
        # still be adopted.)
        adopted = getattr(store, "events", None)
        self.events = adopted if adopted is not None else EventLog()
        self.profiler = SamplingProfiler()
        self.store = store
        self.host = host
        self.port = int(port)
        self.decode_threads = int(decode_threads)
        self.max_request_bytes = int(max_request_bytes)
        self.max_coalesce_batch = int(max_coalesce_batch)
        self.recorder = TraceRecorder()
        self.slow_query_us = slow_query_us
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._stopping: Optional[asyncio.Future] = None  # the one teardown
        self._stop_event: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._writers: set = set()
        self._tasks: set = set()  # every live connection handler
        self._parked: set = set()  # handlers awaiting their next frame
        self._degree_coalescer: Optional[_Coalescer] = None
        self._neighbors_coalescers: dict = {}
        self._started_at: Optional[float] = None
        self._started_at_wall: Optional[float] = None
        self._ops = {
            "hello": self._op_hello,
            "degree": self._op_degree,
            "degrees": self._op_degrees,
            "neighbors": self._op_neighbors,
            "edges_for_sources": self._op_edges_for_sources,
            "edges_in_range": self._op_edges_in_range,
            "egonet": self._op_egonet,
            "subgraph": self._op_subgraph,
            "edge_payloads": self._op_edge_payloads,
            "stats": self._op_stats,
            "metrics": self._op_metrics,
            "trace": self._op_trace,
            "profile": self._op_profile,
            "events": self._op_events,
            "health": self._op_health,
            "reset_stats": self._op_reset_stats,
            "shutdown": self._op_shutdown,
        }
        # Pre-create every per-op series so the maps never change size while
        # serving: stats() may be called from another thread (ThreadedServer
        # monitoring) and must not race a dict resize.
        op_keys = [*self._ops, "_invalid"]
        self._request_counts = {
            op: self.registry.counter("serve.requests", op=op)
            for op in op_keys}
        self._latency = {
            op: self.registry.histogram("serve.latency_us",
                                        _LATENCY_BOUNDS_US, unit="us", op=op)
            for op in op_keys}
        self._span_names = trace.SpanNames("serve")
        self._error_count = self.registry.counter("serve.errors")
        self._internal_errors = self.registry.counter("serve.internal_errors")
        self._protocol_errors = self.registry.counter("serve.protocol_errors")
        self._connections_total = self.registry.counter(
            "serve.connections_total")
        self._binary_frames = self.registry.counter("serve.binary_frames")
        self._binary_bytes = self.registry.counter("serve.binary_bytes")
        self._slow_queries = self.registry.counter("serve.slow_queries")
        self._store_calls = {
            path: self.registry.counter("serve.store_calls", path=path)
            for path in ("inline", "pool")}
        self.registry.gauge("serve.connections_open",
                            fn=lambda: len(self._writers))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener and arm the worker pool."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=self.decode_threads, thread_name_prefix="shard-decode")
        self._degree_coalescer = _Coalescer(
            self._loop, self._executor, self._degrees_batch,
            max_batch=self.max_coalesce_batch,
            registry=self.registry, kind="degree", inline=self._flush_inline)
        self._neighbors_coalescers = {
            with_payload: _Coalescer(
                self._loop, self._executor,
                lambda vs, wp=with_payload: self._neighbors_batch(vs, wp),
                max_batch=self.max_coalesce_batch,
                registry=self.registry,
                kind="neighbors_payload" if with_payload else "neighbors",
                inline=self._flush_inline)
            for with_payload in (False, True)
        }
        self._server = await asyncio.start_server(
            self._accept, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()
        self._started_at_wall = time.time()

    async def stop(self, *, grace_s: float = 5.0) -> None:
        """Graceful stop: close every connection parked between frames and
        the listener, let every in-flight request finish and flush its
        response, then — after *grace_s* — abort any connection a stalled
        client is keeping open, and shut the pool down.  Overlapping and
        repeated calls share one teardown, and each returns only once it
        is complete: every connection handler finished and the pool shut
        down."""
        if self._stopping is None:
            self._stopping = asyncio.ensure_future(self._teardown(grace_s))
        await asyncio.shield(self._stopping)

    async def _teardown(self, grace_s: float) -> None:
        if self._started_at is not None:
            self.events.emit(
                "serve.shutdown", host=self.host, port=self.port,
                uptime_s=round(time.monotonic() - self._started_at, 3))
        self.profiler.stop()
        if self._stop_event is not None:
            # From here on no handler starts and none parks for another
            # frame, so the parked set is final.
            self._stop_event.set()
        for task in list(self._parked):
            task.cancel()  # the read ends; the handler closes and exits
        listener, self._server = self._server, None
        if listener is not None:
            # Stop accepting, then let the loop turn once before closing:
            # an accept already under way must create its transport while
            # the listener is open (asyncio asserts so); _accept then
            # closes the connection.
            for sock in listener.sockets:
                self._loop.remove_reader(sock.fileno())
            await asyncio.sleep(0)
            listener.close()
        if self._tasks:
            _, pending = await asyncio.wait(list(self._tasks),
                                            timeout=grace_s)
            if pending:
                # A peer that stopped reading can block drain() forever;
                # abort the transport (close() would wait for the buffer).
                for writer in list(self._writers):
                    writer.transport.abort()
                for task in pending:
                    task.cancel()
                await asyncio.gather(*pending, return_exceptions=True)
        if listener is not None:
            # Last: from Python 3.12.1 on this also waits for every
            # accepted connection to drop, which only the steps above make
            # happen.
            await listener.wait_closed()
        if self._executor is not None:
            # Off the loop: a cold decode still running on the pool must
            # not stall the other servers the loop may host (serve --fleet).
            await asyncio.to_thread(self._executor.shutdown)

    def request_stop(self) -> None:
        """Ask the serve loop to exit (safe from any thread; a no-op when
        the server already stopped, e.g. via a client ``shutdown``)."""
        if (self._loop is None or self._stop_event is None
                or self._loop.is_closed()):
            return
        try:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        except RuntimeError:
            pass  # loop closed between the check and the call

    async def serve_until_stopped(self) -> None:
        """Serve until :meth:`request_stop` (or a ``shutdown`` request).

        Stops the server on the way out even when cancelled — Ctrl-C under
        :func:`asyncio.run` cancels this coroutine, and the ``finally``
        still runs the graceful teardown."""
        try:
            await self._stop_event.wait()
        finally:
            await self.stop()

    async def __aenter__(self) -> "ShardStoreServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _accept(self, reader: asyncio.StreamReader,
                writer: asyncio.StreamWriter) -> None:
        """``start_server``'s callback, called inside ``connection_made``.

        A plain function, not a coroutine: the handler task is created and
        registered before the loop runs anything else, so :meth:`stop`
        always waits for it.  A connection that lands after stop began is
        closed at once."""
        if self._stop_event.is_set():
            writer.close()
            return
        task = self._loop.create_task(self._handle_connection(reader, writer))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _next_frame(self, reader: asyncio.StreamReader,
                          task: "asyncio.Task") -> Optional[dict]:
        """The next request frame; ``None`` at a clean EOF, or when
        :meth:`stop` cancels the read of this handler, parked between
        frames."""
        self._parked.add(task)
        try:
            return await protocol.read_frame_async(
                reader, max_bytes=self.max_request_bytes)
        except asyncio.CancelledError:
            return None
        finally:
            self._parked.discard(task)

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._connections_total.inc()
        self._writers.add(writer)
        task = asyncio.current_task()
        try:
            # A request whose frame was read is always served and answered
            # before the stop event is checked again.
            while not self._stop_event.is_set():
                try:
                    frame = await self._next_frame(reader, task)
                except ProtocolError as exc:
                    # The byte stream can no longer be trusted: answer once,
                    # then drop this connection (and only this one).
                    self._protocol_errors.inc()
                    await self._try_send(writer, protocol.error_frame(exc))
                    break
                if frame is None:  # clean EOF, or woken by stop()
                    break
                response = await self._dispatch(frame)
                try:
                    parts = protocol.encode_parts(response)
                except ProtocolError as exc:  # response exceeded the cap
                    parts = protocol.encode_parts(protocol.error_frame(exc))
                binary_bytes = sum(view.nbytes for view in parts[2:])
                if len(parts) > 1:
                    # Count before the bytes can reach a client: a stats
                    # read that races the send must never under-report a
                    # frame the peer has already received.
                    self._binary_frames.inc()
                    self._binary_bytes.inc(binary_bytes)
                if binary_bytes < _JOIN_BELOW_BYTES:
                    writer.write(b"".join(parts))
                else:
                    for part in parts:
                        writer.write(part)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # peer vanished mid-write; nothing to answer
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _try_send(self, writer: asyncio.StreamWriter, obj: dict) -> None:
        try:
            writer.write(protocol.encode_frame(obj))
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass

    #: Ops whose handlers provably open no child spans — the coalesced
    #: scalar ops (their batch flush runs outside the request's context:
    #: on the executor without a copied one, or inline from a loop
    #: callback) and ``hello``.  Their serve spans are leaves
    #: (:func:`repro.obs.trace.begin_leaf`): no contextvar switch and no
    #: span object, which keeps the traced scalar hot path inside the
    #: ≤ 5% overhead budget.
    _LEAF_OPS = frozenset({"degree", "neighbors", "hello"})

    async def _dispatch(self, frame: dict) -> dict:
        """Serve one request frame and return its response object (an
        error frame for every failure).

        A request carrying the additive ``"trace"`` key
        (``{"id": <trace_id>, "span": <parent_span_id>}``) is served under
        an activated trace context: the ``serve.<op>`` span records into
        this server's recorder and store work inherits the context (so
        shard-decode spans nest under it).  Untraced requests skip the
        tracing machinery entirely.
        """
        trace_ref = frame.get("trace")
        trace_id = None
        if isinstance(trace_ref, dict) and isinstance(trace_ref.get("id"), str):
            trace_id = trace_ref["id"]
        op = frame.get("op")
        op_key = op if isinstance(op, str) and op in self._ops else "_invalid"
        ok = True
        name, attrs = self._span_names[op_key]
        leaf = failure = None
        if trace_id is None:
            serve_span = trace.span(name, **attrs)
        elif op_key in self._LEAF_OPS:
            # The per-request hot path: a leaf switches no context.
            leaf = trace.begin_leaf(self.recorder, trace_id,
                                    trace_ref.get("span"), name, attrs)
            serve_span = trace.NULL_SPAN
        else:
            # adopt_span fuses trace adoption + the serve span into one
            # context switch.
            serve_span = trace.adopt_span(
                self.recorder, trace_id, trace_ref.get("span"), name, **attrs)
        with self._latency[op_key].time() as timer:
            try:
                # The span sees handler exceptions (status="error") before
                # they are converted to error frames below.
                with serve_span:
                    version = frame.get("v")
                    if version != PROTOCOL_VERSION:
                        raise ProtocolError(
                            f"unsupported protocol version {version!r}; this "
                            f"server speaks version {PROTOCOL_VERSION}")
                    if op_key == "_invalid":
                        raise ProtocolError(
                            f"unknown op {op!r}; available: "
                            f"{', '.join(sorted(self._ops))}")
                    args = frame.get("args", {})
                    if not isinstance(args, dict):
                        raise ValueError("request args must be a JSON object")
                    result = await self._ops[op_key](args)
                response = protocol.result_frame(result)
            except Exception as exc:  # every failure becomes an error frame
                failure = exc
                self._error_count.inc()
                ok = False
                response = protocol.error_frame(exc)
                if response["error"]["kind"] == "InternalError":
                    # Not a client error: a library or interpreter fault.
                    # The frame hides the class, so the event records it.
                    self._internal_errors.inc()
                    self.events.emit("serve.internal_error",
                                     trace_id=trace_id, op=op_key,
                                     error=type(exc).__name__,
                                     message=str(exc))
            if leaf is not None:
                trace.end_leaf(leaf, failure)
        self._request_counts[op_key].inc()
        if (self.slow_query_us is not None
                and timer.elapsed_us >= self.slow_query_us):
            self._slow_queries.inc()
            # trace_id passed explicitly: the serve span exited above, so
            # the flight recorder's auto-stamp would miss the request's id.
            self.events.emit("serve.slow_request", trace_id=trace_id,
                             op=op_key, elapsed_us=int(timer.elapsed_us),
                             ok=ok)
        return response

    def _inline(self, sources: Optional[Tuple[int, int]]) -> bool:
        """Whether a store call over the source window *sources*
        ``(lo, hi)`` runs on the event loop (see :meth:`_run_store`).
        Calls with a window are counted in ``serve.store_calls`` by the
        path they take; calls without one are not store calls and are not
        counted."""
        if sources is None:
            return False
        inline = self.store.cached(*sources, max_shards=_INLINE_MAX_SHARDS)
        self._store_calls["inline" if inline else "pool"].inc()
        return inline

    async def _run_store(self, fn, *args,
                         sources: Optional[Tuple[int, int]] = None):
        """Run one store call where it is cheapest: inline on the event loop
        when the source window *sources* ``(lo, hi)`` overlaps at most
        :data:`_INLINE_MAX_SHARDS` shards and all of them are cached, on the
        bounded decode pool otherwise.  A call without a window (metrics,
        a profile action) always runs on the pool.

        The shard bound keeps a warm bulk call — a wide range, a subgraph
        or egonet over a many-shard store — from copying tens of megabytes
        while every other connection waits; a warm point call touches one
        or two shards and costs less than the hop to a thread and back.

        An inline call runs in the handler's own context, so its spans
        nest under ``serve.<op>``.  ``run_in_executor`` does *not* carry
        ``contextvars``; when a trace is active the pool path copies the
        context explicitly so store-side spans (shard decodes) stay in the
        request's tree.

        The check and the call are not atomic: a pool thread can evict a
        shard in between, and the inline call then decodes it on the loop.
        The answer is still correct and the decode counts as a shard read;
        no lock closes the race.
        """
        if self._inline(sources):
            return fn(*args)
        if trace.current() is not None:
            ctx = contextvars.copy_context()
            return await self._loop.run_in_executor(
                self._executor, lambda: ctx.run(fn, *args))
        return await self._loop.run_in_executor(self._executor, fn, *args)

    async def _store_call(self, method: str, *args,
                          sources: Optional[Tuple[int, int]] = None,
                          **kwargs):
        """One store call — a batch primitive, ``subgraph_edges`` or
        ``egonet_edges`` — as ``store.<method>(*args, **kwargs)``, run where
        :meth:`_run_store` says.  The range router overrides this to await
        its fleet's coroutine for the call on the loop instead."""
        call = getattr(self.store, method)
        return await self._run_store(lambda: call(*args, **kwargs),
                                     sources=sources)

    def _flush_inline(self, window: Tuple[int, int]) -> bool:
        """Whether a coalesced batch over the source *window* flushes on
        the loop: the store-call rule of :meth:`_inline`.  (The range
        router's batch flushes are fan-outs the loop awaits, so there they
        always do.)"""
        return self._inline(window)

    # ------------------------------------------------------------------
    # Coalesced batch kernels (inline when warm, else on the executor)
    # ------------------------------------------------------------------
    def _degrees_batch(self, vertices: List[int]) -> List[int]:
        values = self.store.degrees(np.asarray(vertices, dtype=np.int64))
        return [int(d) for d in values]

    def _neighbors_batch(self, vertices: List[int],
                         with_payload: bool) -> List[np.ndarray]:
        """One ``edges_for_sources`` gather for a whole batch, sliced back
        per requested vertex."""
        vs = np.asarray(vertices, dtype=np.int64)
        return _rows_per_vertex(
            vs, self.store.edges_for_sources(vs, with_payload=with_payload))

    def _check_vertex(self, vertex: int) -> int:
        """Range-check *before* coalescing so one bad vertex cannot fail an
        entire batch of innocent requests (the store's message, verbatim)."""
        if not 0 <= vertex < self.store.n_vertices:
            raise IndexError("product vertex id out of range")
        return vertex

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    async def _op_hello(self, args: dict) -> dict:
        return shaping.hello_shape(self._ops,
                                   shaping.shape_store_info(self.store),
                                   started_at=self._started_at_wall,
                                   uptime_s=self._uptime_s())

    def _uptime_s(self) -> float:
        if self._started_at is None:
            return 0.0
        return time.monotonic() - self._started_at

    async def _op_degree(self, args: dict) -> dict:
        vertex = self._check_vertex(_arg_int(args, "vertex"))
        degree = await self._degree_coalescer.submit(vertex)
        return shaping.degree_shape(vertex, degree)

    async def _op_degrees(self, args: dict) -> dict:
        vertices = _arg_ints(args, "vertices")
        vs = np.asarray(vertices, dtype=np.int64)
        degrees = await self._store_call("degrees", vs,
                                         sources=_window(vertices))
        return shaping.degrees_shape(vs, degrees)

    async def _op_neighbors(self, args: dict) -> dict:
        vertex = self._check_vertex(_arg_int(args, "vertex"))
        with_payload = _arg_bool(args, "with_payload")
        rows = await self._neighbors_coalescers[with_payload].submit(vertex)
        return shaping.neighbors_shape(vertex, rows,
                                       self.store.payload_columns,
                                       with_payload=with_payload)

    async def _op_edges_for_sources(self, args: dict) -> dict:
        vertices = _arg_ints(args, "vertices")
        with_payload = _arg_bool(args, "with_payload")
        vs = np.asarray(vertices, dtype=np.int64)
        rows = await self._store_call("edges_for_sources", vs,
                                      with_payload=with_payload,
                                      sources=_window(vertices))
        return shaping.edges_for_sources_shape(
            vs, rows, self.store.payload_columns, with_payload=with_payload)

    async def _op_edges_in_range(self, args: dict) -> dict:
        lo = _arg_int(args, "lo")
        hi = _arg_int(args, "hi")
        with_payload = _arg_bool(args, "with_payload")
        rows = await self._store_call("edges_in_range", lo, hi,
                                      with_payload=with_payload,
                                      sources=(lo, hi - 1))
        return shaping.range_shape(lo, hi, rows, self.store.payload_columns,
                                   with_payload=with_payload)

    async def _op_egonet(self, args: dict) -> dict:
        vertex = self._check_vertex(_arg_int(args, "vertex"))
        with_payload = _arg_bool(args, "with_payload")
        include_members = _arg_bool(args, "include_members")
        # The neighbour set is unknown until read: the window is the store.
        vertices, rows = await self._store_call(
            "egonet_edges", vertex, with_payload=with_payload,
            sources=(0, self.store.n_vertices - 1))
        return shaping.egonet_shape(vertex, vertices, rows,
                                    self.store.payload_columns,
                                    with_payload=with_payload,
                                    include_members=include_members)

    async def _op_subgraph(self, args: dict) -> dict:
        vertices = _arg_ints(args, "vertices")
        with_payload = _arg_bool(args, "with_payload")
        vs = np.asarray(vertices, dtype=np.int64)
        rows = await self._store_call("subgraph_edges", vs,
                                      with_payload=with_payload,
                                      sources=_window(vertices))
        return shaping.subgraph_shape(vs, rows, self.store.payload_columns,
                                      self.store.manifest.get("name"),
                                      with_payload=with_payload)

    async def _op_edge_payloads(self, args: dict) -> dict:
        ps = _arg_ints(args, "ps")
        qs = _arg_ints(args, "qs")
        if len(ps) != len(qs):
            raise ValueError(f"ps and qs must have matching shapes, "
                             f"got ({len(ps)},) and ({len(qs)},)")
        values = await self._store_call(
            "edge_payloads", np.asarray(ps, dtype=np.int64),
            np.asarray(qs, dtype=np.int64), sources=_window(ps))
        return shaping.edge_payloads_shape(self.store.payload_columns, values)

    async def _op_stats(self, args: dict) -> dict:
        return shaping.stats_answer_shape(self.stats())

    async def _op_metrics(self, args: dict) -> dict:
        # Snapshot on the pool: fn-gauges may take the store's cache lock.
        snapshot = await self._run_store(self.registry.snapshot)
        return shaping.metrics_shape(snapshot)

    async def _op_trace(self, args: dict) -> dict:
        trace_id = _arg(args, "id")
        if not isinstance(trace_id, str):
            raise ValueError("request arg 'id' must be a string trace id")
        return shaping.trace_answer_shape(trace_id,
                                          self.recorder.spans(trace_id))

    #: Actions the ``profile`` op accepts.
    _PROFILE_ACTIONS = frozenset({"start", "stop", "snapshot", "reset"})

    @staticmethod
    def _profile_args(args: dict):
        """Validate and unpack a ``profile`` request's arguments."""
        action = args.get("action", "snapshot")
        if action not in ShardStoreServer._PROFILE_ACTIONS:
            raise ValueError(
                f"request arg 'action' must be one of "
                f"{', '.join(sorted(ShardStoreServer._PROFILE_ACTIONS))}; "
                f"got {action!r}")
        hz = args.get("hz")
        if hz is not None and (isinstance(hz, bool)
                               or not isinstance(hz, (int, float))):
            raise ValueError("request arg 'hz' must be a number or null")
        collapsed = _arg_bool(args, "collapsed", False)
        return action, hz, collapsed

    async def _op_profile(self, args: dict) -> dict:
        action, hz, collapsed = self._profile_args(args)
        # On the pool: ``stop`` joins the sampling thread and must never
        # stall the event loop mid-sample.
        return await self._run_store(self._profile, action, hz, collapsed)

    def _apply_profile_action(self, action: str, hz) -> None:
        if action == "start":
            self.profiler.start(hz=float(hz) if hz is not None else None)
        elif action == "stop":
            self.profiler.stop()
        elif action == "reset":
            self.profiler.reset()

    def _profile(self, action: str, hz, collapsed: bool) -> dict:
        self._apply_profile_action(action, hz)
        stats = self.profiler.snapshot()
        return shaping.profile_shape(
            action, stats.as_dict(), running=self.profiler.running,
            hz=self.profiler.hz,
            collapsed=stats.collapsed() if collapsed else None)

    @staticmethod
    def _events_args(args: dict):
        """Validate and unpack an ``events`` request's arguments."""
        limit = args.get("limit")
        if limit is not None and (isinstance(limit, bool)
                                  or not isinstance(limit, int)):
            raise ValueError("request arg 'limit' must be an integer or null")
        kind = args.get("kind")
        if kind is not None and not isinstance(kind, str):
            raise ValueError("request arg 'kind' must be a string or null")
        return limit, kind

    async def _op_events(self, args: dict) -> dict:
        limit, kind = self._events_args(args)
        return shaping.events_shape(self.events.tail(limit, kind=kind),
                                    dropped=self.events.dropped)

    async def _op_health(self, args: dict) -> dict:
        return shaping.health_shape(status="ok", **self._health_sections())

    def _health_sections(self) -> dict:
        """The liveness facts shared by a single server's ``health`` answer
        and the router's rollup: lifetime, profiler / flight-recorder /
        trace-recorder state, open connections."""
        return {
            "started_at": self._started_at_wall,
            "uptime_s": self._uptime_s(),
            "profiler": {"running": self.profiler.running,
                         "hz": self.profiler.hz,
                         "samples": self.profiler.snapshot().samples},
            "events": {"recorded": len(self.events),
                       "dropped": self.events.dropped,
                       "max_events": self.events.max_events},
            "traces": len(self.recorder.trace_ids()),
            "connections_open": len(self._writers),
        }

    async def _op_reset_stats(self, args: dict) -> dict:
        # The store's counters are series on this registry too.
        self.registry.reset()
        return shaping.reset_stats_shape()

    async def _op_shutdown(self, args: dict) -> dict:
        # Reply first; the loop notices the event after this response flushes.
        self._loop.call_soon(self._stop_event.set)
        return shaping.shutdown_shape()

    # ------------------------------------------------------------------
    # Operational surface
    # ------------------------------------------------------------------
    def _server_stats(self) -> dict:
        """The ``"server"`` counter section alone — shared with the range
        router, whose ``fleet_stats()`` composes it with a fleet rollup
        instead of a single store's counters.  Every number is read off the
        registry series; the dict is a *view*, not a second set of books.
        Latency summaries carry p50/p95/p99 derived from the histogram
        buckets."""
        neighbors = list(self._neighbors_coalescers.values())
        degree = self._degree_coalescer
        return {
            "uptime_s": round(time.monotonic() - self._started_at, 3)
            if self._started_at is not None else 0.0,
            "requests": {op: counter.value
                         for op, counter in self._request_counts.items()
                         if counter.value},
            "errors": self._error_count.value,
            "internal_errors": self._internal_errors.value,
            "protocol_errors": self._protocol_errors.value,
            "connections_open": len(self._writers),
            "connections_total": self._connections_total.value,
            "decode_threads": self.decode_threads,
            "slow_queries": self._slow_queries.value,
            "store_calls": {path: counter.value
                            for path, counter in self._store_calls.items()},
            "binary": {"frames": self._binary_frames.value,
                       "bytes": self._binary_bytes.value},
            "coalesced": {
                "degree": degree.stats() if degree is not None
                else {"requests": 0, "batches": 0, "max_batch": 0},
                "neighbors": {
                    "requests": sum(c.requests for c in neighbors),
                    "batches": sum(c.batches for c in neighbors),
                    "max_batch": max((c.max_batch_seen for c in neighbors),
                                     default=0),
                },
            },
            "latency_us": {op: hist.summary()
                           for op, hist in sorted(self._latency.items())
                           if hist.count},
        }

    def stats(self) -> dict:
        """Request counts, per-op latency, coalescing effectiveness, and the
        store's cache counters — the ``stats`` request returns this."""
        return {
            "server": self._server_stats(),
            "store": self.store.stats(),
        }


class ThreadedServer:
    """A :class:`ShardStoreServer` on a background thread, for synchronous
    callers (tests, benchmarks, examples, and the blocking client).

    ``with ThreadedServer(store_dir) as server:`` starts the event loop on a
    daemon thread, binds an ephemeral port (``server.host`` /
    ``server.port``), and tears everything down — gracefully — on exit.
    """

    def __init__(self, store, *, server_cls=None, **kwargs):
        self._store = store
        self._server_cls = server_cls if server_cls is not None else ShardStoreServer
        self._kwargs = kwargs
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self.server: Optional[ShardStoreServer] = None
        self.host: Optional[str] = None
        self.port: Optional[int] = None

    def start(self) -> "ThreadedServer":
        if self._thread is not None:
            raise RuntimeError("server thread already started")
        self._thread = threading.Thread(
            target=self._run, name="shard-serve", daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        try:
            # Construction opens the store (manifest read, validation) and
            # can fail just like bind — both must surface to start(), never
            # leave it blocked on the ready event.
            server = self._server_cls(self._store, **self._kwargs)
            await server.start()
        except BaseException as exc:  # surface open/bind errors to start()
            self._startup_error = exc
            self._ready.set()
            return
        self.server = server
        self.host, self.port = server.host, server.port
        self._ready.set()
        await server.serve_until_stopped()

    def stop(self) -> None:
        if self._thread is None:
            return
        if self.server is not None:
            self.server.request_stop()
        self._thread.join()
        self._thread = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def __enter__(self) -> "ThreadedServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
