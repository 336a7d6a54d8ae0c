"""Blocking wire-level client for the shard-store query service.

:class:`QueryClient` speaks the :mod:`repro.serve.protocol` framing over one
reused TCP connection and turns the answer shapes back into the exact
objects the in-process :class:`~repro.store.ShardStore` returns — ``int64``
numpy arrays for edge rows and payload values, reconstructed
:class:`~repro.graphs.Graph` / :class:`~repro.graphs.egonet.Egonet` objects
for ``subgraph`` / ``egonet`` — so a consumer can swap a local store for a
served one without changing a line downstream, and the equivalence tests can
assert byte-level equality against the local answers.

Every array of an answer arrives in the binary frame after the JSON
control frame (protocol v3): one ``recv_into`` pass into a mutable buffer,
then :func:`~repro.serve.protocol.place_arrays` wraps each array in place —
writable ``int64``, no per-row JSON decode.

Error frames re-raise the matching Python exception with the server's
message verbatim (a served ``edge_payloads`` miss raises the same
:class:`ValueError` a local call would).  The connection is opened lazily,
reused across requests, and re-opened once per request if the server closed
it in between; batch helpers (:meth:`degrees`, :meth:`edge_payloads`) follow
the repo's array-in / array-out conventions.  Every socket operation
honours the constructor *timeout*, and :meth:`connection_stats` reports
connects, reconnect retries, and binary transfer volume for operational
visibility.

Distributed tracing: when a :mod:`repro.obs.trace` context is
active (``start_trace``), every request runs under a ``client.<op>`` span
and stamps the additive ``"trace"`` key on its frame — the server adopts
the trace and parents its own spans under the client's, so
:meth:`trace_spans` afterwards returns the full cross-process tree.
Without an active trace nothing is stamped and nothing is timed.
"""

from __future__ import annotations

import socket
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.adjacency import Graph
from repro.graphs.egonet import Egonet
from repro.obs import trace
from repro.serve import protocol
from repro.serve.shaping import induced_adjacency

__all__ = ["QueryClient"]


class QueryClient:
    """Synchronous client for one :class:`~repro.serve.ShardStoreServer`.

    Parameters
    ----------
    host, port:
        Server address (``QueryClient.from_address("host:port")`` parses the
        CLI's ``--connect`` form).
    timeout:
        Per-operation socket timeout in seconds (``None`` blocks forever —
        opt-in only; the default keeps a hung server from blocking the
        client indefinitely).  Applies to connect and to every send/recv,
        including binary-frame bodies.
    """

    def __init__(self, host: str, port: int, *,
                 timeout: Optional[float] = 30.0):
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._store_info: Optional[dict] = None
        self._connects = 0
        self._reconnect_retries = 0
        self._requests_sent = 0
        self._binary_frames = 0
        self._binary_bytes = 0

    @classmethod
    def from_address(cls, address: str, **kwargs) -> "QueryClient":
        """Build a client from a ``HOST:PORT`` string."""
        host, sep, port = address.rpartition(":")
        if not sep or not port.isdigit():
            raise ValueError(
                f"expected HOST:PORT, got {address!r}")
        return cls(host or "127.0.0.1", int(port), **kwargs)

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def _connect(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection((self.host, self.port),
                                            timeout=self.timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
            self._connects += 1
        return self._sock

    def close(self) -> None:
        """Close the reused connection (it reopens on the next request)."""
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "QueryClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------
    def request(self, op: str, args: Optional[dict] = None) -> dict:
        """Send one request and return the ``result`` shape, its arrays
        placed back as writable ``int64`` arrays.

        The reused connection is re-opened once if the server closed it
        between requests (idle-timeout, restart); a failure on the fresh
        connection propagates.  Under an active trace the round trip runs
        inside a ``client.<op>`` span whose id is stamped on the frame's
        additive ``"trace"`` key, making the span the parent of everything
        the server records for this request.
        """
        frame = protocol.request_frame(op, args)
        active = trace.current()
        if active is not None:
            # A *leaf* span: the socket round trip opens no nested spans,
            # so skipping the contextvar switch keeps the traced scalar
            # hot path inside the ≤ 5% overhead budget.
            client_span = trace.adopt_leaf_span(
                active.recorder, active.trace_id, active.span_id,
                f"client.{op}", op=op)
            with client_span:
                frame["trace"] = {"id": active.trace_id,
                                  "span": client_span.span_id}
                return self._send_with_retry(frame)
        return self._send_with_retry(frame)

    def _send_with_retry(self, frame: dict) -> dict:
        reused = self._sock is not None
        try:
            return self._roundtrip(frame)
        except (BrokenPipeError, ConnectionResetError, ConnectionAbortedError):
            # Retry once, and only when a *reused* connection died (the
            # server dropped it between requests).  A server-*reported*
            # error frame (re-raised by raise_error) is never retried — the
            # server already executed and refused that request.
            if not reused:
                raise
            self._reconnect_retries += 1
        return self._roundtrip(frame)

    def _roundtrip(self, frame: dict) -> dict:
        sock = self._connect()
        self._requests_sent += 1
        try:
            protocol.write_frame(sock, frame)
            response = protocol.read_frame(sock)
            slots = protocol.array_slots(response) if response else []
            if slots:
                # The control frame holds array descriptors, so the binary
                # frame follows; reading it inside this try drops the socket
                # on a timeout, truncation or bad layout like any transport
                # failure.
                body = protocol.read_binary_frame(sock)
                protocol.place_arrays(slots, body)
                self._binary_frames += 1
                self._binary_bytes += len(body)
        except Exception:
            # Any transport-level failure — timeout mid-response included —
            # leaves the byte stream desynchronized: a later request could
            # otherwise read THIS request's late response as its answer.
            # Never reuse the socket.
            self.close()
            raise
        if response is None:
            self.close()
            raise ConnectionResetError(
                f"server at {self.host}:{self.port} closed the connection "
                "without answering")
        if not response.get("ok"):
            # One frame per request even on failure: the stream stays in
            # sync, so the connection remains reusable (no binary frame
            # ever follows an error frame).
            protocol.raise_error(response.get("error", {}))
        return response.get("result", {})

    # ------------------------------------------------------------------
    # Store metadata
    # ------------------------------------------------------------------
    def hello(self) -> dict:
        """Server/store handshake info (cached after the first call)."""
        if self._store_info is None:
            self._store_info = self.request("hello")
        return self._store_info

    @property
    def payload_columns(self) -> Tuple[str, ...]:
        """The served store's payload column names (from ``hello``)."""
        return tuple(self.hello()["store"]["payload_columns"])

    @property
    def n_vertices(self) -> int:
        return int(self.hello()["store"]["n_vertices"])

    # ------------------------------------------------------------------
    # Queries (mirror the ShardStore surface)
    # ------------------------------------------------------------------
    def degree(self, v: int) -> int:
        """Degree of one vertex, self loop excluded."""
        return int(self.request("degree", {"vertex": int(v)})["degree"])

    def degrees(self, vs: Sequence[int]) -> np.ndarray:
        """Batch degrees (array-in / array-out, one request)."""
        result = self.request(
            "degrees", {"vertices": [int(v) for v in np.asarray(vs)]})
        return result["degrees"]

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbour ids of *v*, self loop excluded."""
        return self.request("neighbors", {"vertex": int(v)})["neighbors"]

    def neighbors_with_payload(self, v: int) -> Tuple[np.ndarray, dict]:
        """Neighbour ids plus ``{column: int64 array}`` ground truth."""
        result = self.request("neighbors",
                              {"vertex": int(v), "with_payload": True})
        return result["neighbors"], result["payload"]

    def edges_for_sources(self, vs: Sequence[int], *,
                          with_payload: bool = False) -> np.ndarray:
        """All stored rows whose source is in *vs* (deduplicated,
        ``(src, dst)``-sorted) — the batch gather mirroring
        :meth:`ShardStore.edges_for_sources`."""
        result = self.request("edges_for_sources", {
            "vertices": [int(v) for v in np.atleast_1d(np.asarray(vs))],
            "with_payload": with_payload,
        })
        return result["edges"]

    def edges_in_range(self, lo: int, hi: int, *,
                       with_payload: bool = False,
                       binary: bool = False) -> np.ndarray:
        """All stored rows with source in ``[lo, hi)``.

        *binary* changes nothing — every answer array travels as raw bytes
        — and is kept because the benchmark's correctness gate
        (``perfbench/gate.py``) passes ``binary=True``."""
        return self.request("edges_in_range", {
            "lo": int(lo), "hi": int(hi), "with_payload": with_payload,
        })["edges"]

    def egonet(self, v: int, *, with_payload: bool = False):
        """Egonet of *v*, reconstructed to match the in-process
        :meth:`ShardStore.egonet` answer exactly (vertex order, adjacency,
        and — with ``with_payload=True`` — the induced payload rows)."""
        result = self.request("egonet", {"vertex": int(v),
                                         "with_payload": with_payload,
                                         "include_members": True})
        vertices = result["vertices"]
        # With payload, the rows carry the topology in their first two
        # columns (the wire does not ship it twice).
        rows = result["rows"] if with_payload else result["edges"]
        name = f"{self.hello()['store'].get('name') or 'store'}[sub]"
        graph = Graph(induced_adjacency(vertices, rows[:, :2]), name=name,
                      validate=False)
        ego = Egonet(center=int(v), vertices=vertices, graph=graph)
        if not with_payload:
            return ego
        return ego, rows

    def subgraph(self, vertices: Sequence[int], *,
                 with_payload: bool = False):
        """Induced subgraph on *vertices* (caller order preserved), equal to
        the in-process :meth:`ShardStore.subgraph` answer."""
        vs = [int(v) for v in np.asarray(vertices)]
        result = self.request("subgraph", {"vertices": vs,
                                           "with_payload": with_payload})
        rows = result["rows"] if with_payload else result["edges"]
        graph = Graph(induced_adjacency(result["vertices"], rows[:, :2]),
                      name=result["name"], validate=False)
        if not with_payload:
            return graph
        return graph, rows

    def edge_payloads(self, ps: Sequence[int], qs: Sequence[int]) -> np.ndarray:
        """Batched payload point lookups — ``(m, k)`` ``int64`` rows in the
        store's :attr:`payload_columns` order."""
        return self.request("edge_payloads", {
            "ps": [int(p) for p in np.atleast_1d(np.asarray(ps))],
            "qs": [int(q) for q in np.atleast_1d(np.asarray(qs))],
        })["payloads"]

    def edge_payload(self, p: int, q: int) -> dict:
        """Payload of one stored edge as ``{column: value}``."""
        result = self.request("edge_payloads",
                              {"ps": [int(p)], "qs": [int(q)]})
        return {name: int(value)
                for name, value in zip(result["columns"],
                                       result["payloads"][0])}

    # ------------------------------------------------------------------
    # Operational surface
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """The server's ``stats`` answer (request counts, latency
        histograms, coalescing, and store cache counters), with this
        client's own :meth:`connection_stats` under ``"client"``."""
        result = self.request("stats")
        result["client"] = self.connection_stats()
        return result

    def metrics(self) -> dict:
        """The server's ``metrics`` answer: the full registry snapshot
        plus its Prometheus-text rendering (same numbers, two surfaces)."""
        return self.request("metrics")

    def trace_spans(self, trace_id: str) -> List[dict]:
        """Every span the server recorded for *trace_id*, start-ordered
        (a router answers with its workers' spans merged in)."""
        return self.request("trace", {"id": str(trace_id)})["spans"]

    def reset_stats(self) -> dict:
        """Zero the server's registry counters (a router fans the reset
        out fleet-wide; the answer then carries the worker count)."""
        return self.request("reset_stats")

    def profile(self, action: str = "snapshot", *,
                hz: Optional[float] = None,
                collapsed: bool = False) -> dict:
        """Drive the server's sampling profiler: ``"start"`` (optionally
        at *hz* samples/s), ``"stop"``, ``"snapshot"``, or ``"reset"`` —
        every action answers with the current aggregate (a router answers
        with the fleet-merged one).  ``collapsed=True`` additionally
        returns the folded-stack flamegraph text."""
        args: dict = {"action": str(action)}
        if hz is not None:
            args["hz"] = float(hz)
        if collapsed:
            args["collapsed"] = True
        return self.request("profile", args)

    def events(self, limit: Optional[int] = None, *,
               kind: Optional[str] = None) -> dict:
        """The server's flight-recorder tail, oldest first (a router
        answers with router and worker events interleaved by wall-clock
        timestamp)."""
        args: dict = {}
        if limit is not None:
            args["limit"] = int(limit)
        if kind is not None:
            args["kind"] = str(kind)
        return self.request("events", args)

    def health(self) -> dict:
        """The server's liveness surface: uptime, profiler / recorder
        state, open connections — and, from a router, per-worker reports
        with any down worker named alongside its vertex range."""
        return self.request("health")

    def connection_stats(self) -> dict:
        """Local connection counters: sockets opened (``connects``),
        transparent retries after a reused connection died
        (``reconnect_retries``), requests written, and binary-frame
        transfer volume."""
        return {
            "connects": self._connects,
            "reconnect_retries": self._reconnect_retries,
            "requests_sent": self._requests_sent,
            "binary_frames": self._binary_frames,
            "binary_bytes": self._binary_bytes,
        }

    def shutdown_server(self) -> dict:
        """Ask the server to stop gracefully."""
        result = self.request("shutdown")
        self.close()
        return result
