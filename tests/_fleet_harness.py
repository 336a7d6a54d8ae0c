"""Reusable serving-fleet harness for tests and benchmarks.

:class:`FleetHarness` partitions a compacted store
(:func:`repro.store.partition_manifest`), spawns one
:class:`~repro.serve.ThreadedServer` worker per slice replica on ephemeral
ports, and fronts them with a :class:`~repro.serve.RangeRouter` on its own
:class:`~repro.serve.ThreadedServer` — a range-routed fleet whose workers
run on their own loops, so the router reaches them by address over the
wire, torn down by ``with``.  (The fleet
of ``serve --fleet`` is a :class:`~repro.serve.LocalFleet`, whose router
calls its workers in process; ``ThreadedServer(store,
server_cls=LocalFleet, n_slices=N)`` runs one.)  Replicas, failover and
the fault injection hooks below need the wire:

* :meth:`FleetHarness.kill` stops a worker mid-test (its port then refuses
  connections, the transport failure the router's channel must fail over);
* ``scripted={slice_index: handler}`` prepends a :func:`scripted_worker`
  socket as that slice's *primary* address, so a worker can die
  mid-request deterministically while a real replica stands behind it.
  :func:`drop_after_request`, :func:`truncate_response` and
  :func:`hang_after_request` are the stock handlers (connection killed
  after reading the request / mid-frame, or never answered).
  ``tests/test_serve.py`` points a :class:`~repro.serve.QueryClient` at
  the same scripted peer for its client-side fuzz cases.

:func:`logged_steps` counts the steps of each store call a server drives,
on either backend: a shard store's turns of the event loop, or a fleet's
fan-outs to its workers.

Shared by ``tests/test_router.py``, ``tests/test_serve.py`` and the fleet
smokes in ``benchmarks/bench_query_server.py`` (the benchmarks conftest
puts this directory on ``sys.path``).
"""

from __future__ import annotations

import socket
import struct
import threading
from typing import Callable, Dict, Optional

from repro.graphs.io import read_shard_manifest
from repro.serve import (
    FleetStore,
    QueryClient,
    RangeRouter,
    ThreadedServer,
    fleet_info_from_manifest,
    protocol,
)
from repro.store import partition_manifest

__all__ = ["FleetHarness", "scripted_worker", "drop_after_request",
           "truncate_response", "hang_after_request"]


def scripted_worker(handler: Callable) -> "tuple[socket.socket, str]":
    """A scripted peer — a fake worker, or a fake server for a client:
    every accepted connection runs *handler(conn)*.

    Returns ``(listener, "host:port")``; close the listener to stop the
    accept thread.
    """
    lsock = socket.socket()
    lsock.bind(("127.0.0.1", 0))
    lsock.listen(8)
    port = lsock.getsockname()[1]

    def run():
        while True:
            try:
                conn, _ = lsock.accept()
            except OSError:
                return  # listener closed: harness torn down
            with conn:
                try:
                    handler(conn)
                except Exception:
                    pass  # a peer that already hung up is fine

    threading.Thread(target=run, daemon=True).start()
    return lsock, f"127.0.0.1:{port}"


def drop_after_request(conn: socket.socket) -> None:
    """Scripted failure: read one request, then die without answering —
    the worker-killed-mid-request fault (client side sees a clean close
    where a response was owed)."""
    protocol.read_frame(conn)


def truncate_response(conn: socket.socket) -> None:
    """Scripted failure: read one request, start a response frame, then die
    mid-body — the worker-killed-mid-response fault (client side sees a
    desynchronized stream)."""
    protocol.read_frame(conn)
    conn.sendall(struct.pack(">I", 4096) + b'{"ok": tru')


def hang_after_request(conn: socket.socket) -> None:
    """Scripted failure: read one request, then never answer — the
    hung-worker fault.  Returns once the peer closes the connection (the
    router's timeout must), so the accept loop can take the next one."""
    protocol.read_frame(conn)
    while conn.recv(1 << 16):
        pass


def logged_steps(store) -> list:
    """Wrap *store*'s steps — a shard store's or a fleet's — so every store
    call appends ``[method, steps]`` to the returned log.  Each step and
    the value sent back for it are forwarded unchanged."""
    log = []
    steps = store.steps

    def counted(inner, entry):
        answer = None
        while True:
            try:
                step = inner.send(answer)
            except StopIteration as done:
                return done.value
            entry[1] += 1
            answer = yield step

    def logged(method, *args, **kwargs):
        entry = [method, 0]
        log.append(entry)
        return counted(steps(method, *args, **kwargs), entry)

    store.steps = logged
    return log


class FleetHarness:
    """Partition + workers + router on ephemeral ports, context-managed.

    Parameters
    ----------
    store_dir:
        A compacted store directory.
    n_slices / boundaries:
        Forwarded to :func:`repro.store.partition_manifest`.
    replicas:
        Real workers per slice (each its own :class:`ThreadedServer` over
        the same slice directory).
    scripted:
        ``{slice_index: handler}`` — prepend a :func:`scripted_worker`
        running *handler* as that slice's primary address (the real
        replicas become its failovers).
    cache_shards:
        Each worker's LRU size.
    timeout:
        Router→worker attempt timeout, and the default timeout of
        :meth:`client` (short: fleet tests want failures to surface fast).
    """

    def __init__(self, store_dir, *, n_slices: Optional[int] = None,
                 boundaries=None, replicas: int = 1,
                 scripted: Optional[Dict[int, Callable]] = None,
                 cache_shards: int = 8,
                 timeout: float = 10.0):
        self.store_dir = store_dir
        self.slices = partition_manifest(store_dir, n_slices=n_slices,
                                         boundaries=boundaries)
        self.manifest = read_shard_manifest(store_dir)
        self.replicas = int(replicas)
        self._scripted_spec = dict(scripted or {})
        self._scripted_listeners = []
        self.workers = []  # workers[slice_index][replica_index]
        self.fleet: Optional[FleetStore] = None
        self.router: Optional[ThreadedServer] = None
        self._cache_shards = cache_shards
        self._timeout = timeout

    def start(self) -> "FleetHarness":
        spec = []
        for entry in self.slices:
            addresses = []
            handler = self._scripted_spec.get(entry["index"])
            if handler is not None:
                listener, address = scripted_worker(handler)
                self._scripted_listeners.append(listener)
                addresses.append(address)
            replicas = []
            for _ in range(self.replicas):
                worker = ThreadedServer(
                    entry["directory"],
                    cache_shards=self._cache_shards).start()
                replicas.append(worker)
                addresses.append(worker.address)
            self.workers.append(replicas)
            spec.append({"src_lo": entry["src_lo"],
                         "src_hi": entry["src_hi"],
                         "addresses": addresses})
        self.fleet = FleetStore(spec, fleet_info_from_manifest(self.manifest),
                                timeout=self._timeout)
        self.router = ThreadedServer(self.fleet,
                                     server_cls=RangeRouter).start()
        return self

    def stop(self) -> None:
        if self.router is not None:
            self.router.stop()  # closes the fleet's worker connections
            self.router = None
        self.fleet = None
        for replicas in self.workers:
            for worker in replicas:
                worker.stop()
        self.workers = []
        for listener in self._scripted_listeners:
            listener.close()
        self._scripted_listeners = []

    def __enter__(self) -> "FleetHarness":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Accessors / fault injection
    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self.router.host

    @property
    def port(self) -> int:
        return self.router.port

    @property
    def address(self) -> str:
        return self.router.address

    def client(self, **kwargs) -> QueryClient:
        """A wire client talking to the *router* (kwargs → QueryClient)."""
        kwargs.setdefault("timeout", self._timeout)
        return QueryClient(self.host, self.port, **kwargs)

    def channel(self, slice_index: int):
        """The router's wire channel for one slice (its failover counters
        are the fault-injection assertions' ground truth)."""
        return self.fleet._channels[slice_index]

    def kill(self, slice_index: int, replica_index: int = 0) -> None:
        """Stop one real worker; its port then refuses connections."""
        self.workers[slice_index][replica_index].stop()

    def owner_of(self, vertex: int) -> int:
        """Slice index whose assigned range contains *vertex*."""
        for entry in self.slices:
            if entry["src_lo"] <= vertex < entry["src_hi"]:
                return entry["index"]
        raise IndexError(f"vertex {vertex} outside every slice range")
