"""Tests for the asyncio edge-query service (repro.serve).

Four layers of coverage:

* the wire protocol (framing, size caps, malformed bodies, error frames,
  the array descriptors and the binary frame that carries the arrays);
* the request coalescer (batching, error isolation, max-batch splitting);
* served-vs-in-process equivalence — every query type answered over the
  socket must equal the local :class:`~repro.store.ShardStore` answer, both
  single-threaded and under many concurrent client threads hammering one
  shared store;
* the failure paths the server must survive per-connection: malformed
  frames, oversized requests, disconnects mid-frame, version mismatches,
  and bad arguments — none of which may take the server (or another
  client's connection) down.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import re
import socket
import struct
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import generators
from repro.core import KroneckerGraph
from repro.graphs import NpyShardSink
from repro.parallel import distributed_generate
from repro.serve import (
    PROTOCOL_VERSION,
    ProtocolError,
    QueryClient,
    ServerError,
    ThreadedServer,
    protocol,
)
from repro.obs import TraceRecorder, trace
from repro.serve.server import ShardStoreServer, _Coalescer
from repro.store import ShardStore, compact_shards

PAYLOAD = ("triangles", "trussness")


# ----------------------------------------------------------------------
# One compacted payload store + one running server for the whole module
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def factors():
    factor_a = generators.webgraph_like(40, edges_per_vertex=3,
                                        triad_probability=0.6, seed=3)
    factor_b = generators.triangle_constrained_pa(15, seed=13)
    return factor_a, factor_b


@pytest.fixture(scope="module")
def product(factors):
    return KroneckerGraph(*factors)


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory, factors, product):
    tmp = tmp_path_factory.mktemp("serve-store")
    sink = NpyShardSink(tmp / "spill", name=product.name,
                        n_vertices=product.n_vertices,
                        payload_columns=PAYLOAD)
    distributed_generate(*factors, 4, streaming=True, a_edges_per_block=8,
                         sink=sink, payload_columns=PAYLOAD)
    compact_shards(tmp / "spill", tmp / "store", target_shard_edges=1200)
    return tmp / "store"


@pytest.fixture(scope="module")
def local_store(store_dir):
    """A reference in-process store, separate from the served instance."""
    return ShardStore(store_dir, cache_shards=8)


@pytest.fixture(scope="module")
def server(store_dir):
    with ThreadedServer(store_dir, cache_shards=8) as handle:
        yield handle


@pytest.fixture
def client(server):
    with QueryClient(server.host, server.port) as c:
        yield c


def _raw_socket(server):
    return socket.create_connection((server.host, server.port), timeout=10)


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_frame_roundtrip(self):
        obj = {"op": "degree", "args": {"vertex": 7}, "v": 1}
        frame = protocol.encode_frame(obj)
        length = struct.unpack(">I", frame[:4])[0]
        assert length == len(frame) - 4
        assert protocol.decode_body(frame[4:]) == obj

    def test_array_frames_roundtrip(self):
        rows = np.arange(12, dtype=np.int64).reshape(4, 3)
        answer = {"query": "x", "rows": rows[:, 1:],
                  "nested": [{"ids": np.arange(3)}], "empty": rows[:0]}
        left, right = socket.socketpair()
        with left, right:
            right.sendall(protocol.encode_frame(protocol.result_frame(answer)))
            control = protocol.read_frame(left)
            assert control["result"]["rows"]["shape"] == [4, 2]
            slots = protocol.array_slots(control)
            protocol.place_arrays(slots, protocol.read_binary_frame(left))
        result = control["result"]
        assert np.array_equal(result["rows"], rows[:, 1:])
        assert np.array_equal(result["nested"][0]["ids"], np.arange(3))
        assert result["empty"].shape == (0, 3)
        for array in (result["rows"], result["nested"][0]["ids"]):
            assert array.dtype == np.int64 and array.flags.writeable

    @staticmethod
    def _dumps_frame(obj) -> bytes:
        """The frame bytes ``json.dumps`` with the wire's arguments gives
        (how every frame was encoded before the encoder was reused)."""
        arrays = []

        def lift(value):
            array = np.ascontiguousarray(value, dtype=np.int64)
            offset = sum(part.nbytes for part in arrays)
            arrays.append(array)
            return {"shape": list(array.shape), "offset": offset}

        body = json.dumps(obj, separators=(",", ":"), sort_keys=True,
                          default=lift).encode("utf-8")
        frame = struct.pack(">I", len(body)) + body
        if arrays:
            frame += struct.pack(">I", sum(a.nbytes for a in arrays))
            frame += b"".join(a.tobytes() for a in arrays)
        return frame

    @staticmethod
    def _encode_corpus(seed: int = 0) -> list:
        """Frames of every kind: plain and traced requests, results with
        arrays at several depths (empty, strided, int32), an error frame
        and non-ASCII text."""
        rng = np.random.default_rng(seed)
        rows = rng.integers(-5, 10 ** 6, size=(9, 4))
        traced = protocol.request_frame("degree", {"vertex": int(rows[0, 0])})
        traced["trace"] = {"id": f"{seed:032x}", "span": f"{seed + 1:016x}"}
        return [
            protocol.request_frame("degrees", {"vertices": rows[:, 0].tolist()}),
            traced,
            protocol.result_frame({"degree": 3, "vertex": int(rows[1, 1])}),
            protocol.result_frame({
                "edges": rows[:, :2], "payload": {"triangles": rows[:, 2],
                                                  "trussness": rows[::2, 3]},
                "nested": [{"ids": rows[0].astype(np.int32)}, [rows[:0]]],
                "name": "F(40,15)[sub] — é"}),
            protocol.error_frame(ValueError(f"edge ({seed}, 2) is not stored")),
        ]

    def test_encoded_bytes_equal_json_dumps(self):
        for obj in self._encode_corpus():
            assert protocol.encode_frame(obj) == self._dumps_frame(obj)

    def test_failed_encode_leaves_the_next_frame_clean(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            protocol.encode_frame({"rows": np.arange(4), "bad": object()})
        obj = protocol.result_frame({"rows": np.arange(6).reshape(3, 2)})
        assert protocol.encode_frame(obj) == self._dumps_frame(obj)

    def test_concurrent_encodes_keep_their_own_arrays(self):
        """Each thread lifts its own frame's arrays: 8 threads encoding
        different corpora, switching every microsecond, all get the bytes
        ``json.dumps`` gives."""
        failures = []

        def encoder(seed):
            try:
                corpus = self._encode_corpus(seed)
                expected = [self._dumps_frame(obj) for obj in corpus]
                for _ in range(200):
                    for obj, frame in zip(corpus, expected):
                        assert protocol.encode_frame(obj) == frame
            except Exception as exc:  # surfaced on the main thread below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=encoder, args=(seed,))
                       for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not failures, failures[:2]

    def test_encode_rejects_oversized(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            protocol.encode_frame({"blob": "x" * 100}, max_bytes=50)

    def test_decode_rejects_bad_json(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            protocol.decode_body(b"{nope")

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            protocol.decode_body(b"[1, 2, 3]")

    def test_error_frame_roundtrips_store_exceptions(self):
        frame = protocol.error_frame(ValueError("edge (1, 2) is not stored"))
        assert frame == {"ok": False, "error": {
            "kind": "ValueError", "message": "edge (1, 2) is not stored"}}
        with pytest.raises(ValueError, match=r"edge \(1, 2\) is not stored"):
            protocol.raise_error(frame["error"])

    def test_unknown_error_kind_becomes_server_error(self):
        with pytest.raises(ServerError, match="InternalError: boom"):
            protocol.raise_error({"kind": "InternalError", "message": "boom"})

    def test_read_frame_clean_eof_returns_none(self, server):
        with _raw_socket(server) as sock:
            pass  # never write anything; the server just sees EOF
        # Client side of the same rule: a socket the peer closed returns None.
        left, right = socket.socketpair()
        right.close()
        assert protocol.read_frame(left) is None
        left.close()

    def test_read_frame_mid_frame_eof_raises(self):
        left, right = socket.socketpair()
        right.sendall(struct.pack(">I", 100) + b"only a little")
        right.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            protocol.read_frame(left)
        left.close()

    def test_read_frame_rejects_oversized_header(self):
        left, right = socket.socketpair()
        right.sendall(struct.pack(">I", 1 << 29))
        with pytest.raises(ProtocolError, match="exceeds"):
            protocol.read_frame(left, max_bytes=1 << 20)
        left.close()
        right.close()


# ----------------------------------------------------------------------
# Request coalescer
# ----------------------------------------------------------------------
class TestCoalescer:
    """Every behaviour holds on both flush paths: on the executor, and
    inline on the loop (the server's choice when the batch's shards are
    cached)."""

    def _run(self, main):
        for inline in (lambda window: False, lambda window: True):
            asyncio.run(main(inline))

    def test_concurrent_submissions_fold_into_one_batch(self):
        async def main(inline):
            loop = asyncio.get_running_loop()
            calls = []

            def flush(values):
                calls.append(list(values))
                return [v * 2 for v in values]

            with ThreadPoolExecutor(2) as executor:
                coalescer = _Coalescer(loop, executor, flush, inline=inline)
                futures = [coalescer.submit(i) for i in range(10)]
                results = await asyncio.gather(*futures)
            assert results == [i * 2 for i in range(10)]
            assert calls == [list(range(10))]
            assert coalescer.stats() == {"requests": 10, "batches": 1,
                                         "max_batch": 10}
        self._run(main)

    def test_max_batch_splits_flushes(self):
        async def main(inline):
            loop = asyncio.get_running_loop()
            calls = []

            def flush(values):
                calls.append(len(values))
                return values

            with ThreadPoolExecutor(2) as executor:
                coalescer = _Coalescer(loop, executor, flush, max_batch=4,
                                       inline=inline)
                futures = [coalescer.submit(i) for i in range(10)]
                assert await asyncio.gather(*futures) == list(range(10))
            assert calls == [4, 4, 2]
        self._run(main)

    def test_flush_failure_fails_every_future_in_batch(self):
        """A failing batch fails all of its own futures and no other
        batch's."""
        async def main(inline):
            loop = asyncio.get_running_loop()

            def flush(values):
                if 1 in values:
                    raise RuntimeError("batch kernel exploded")
                return values

            with ThreadPoolExecutor(2) as executor:
                coalescer = _Coalescer(loop, executor, flush, max_batch=3,
                                       inline=inline)
                futures = [coalescer.submit(i) for i in range(6)]
                results = await asyncio.gather(*futures, return_exceptions=True)
            assert all(isinstance(r, RuntimeError) for r in results[:3])
            assert results[3:] == [3, 4, 5]
        self._run(main)

    def test_inline_is_asked_with_the_batch_window(self):
        async def main():
            asked = []

            def inline(window):
                asked.append(window)
                return True

            coalescer = _Coalescer(asyncio.get_running_loop(), None,
                                   lambda values: values, inline=inline)
            futures = [coalescer.submit(v) for v in (7, 2, 5)]
            assert await asyncio.gather(*futures) == [7, 2, 5]
            assert asked == [(2, 7)]
        asyncio.run(main())


# ----------------------------------------------------------------------
# Served answers equal the in-process store
# ----------------------------------------------------------------------
class TestServedEquivalence:
    def test_hello_describes_store(self, client, local_store):
        info = client.hello()
        assert info["protocol"] == PROTOCOL_VERSION
        assert info["store"]["n_vertices"] == local_store.n_vertices
        assert info["store"]["total_edges"] == local_store.total_edges
        assert info["store"]["payload_columns"] == list(PAYLOAD)
        assert "degree" in info["ops"] and "stats" in info["ops"]

    def test_degree_and_degrees(self, client, local_store, product):
        for v in (0, 37, product.n_vertices - 1):
            assert client.degree(v) == local_store.degree(v)
        vs = np.arange(0, product.n_vertices, 5)
        served = client.degrees(vs)
        assert served.dtype == np.int64
        assert np.array_equal(served, local_store.degrees(vs))

    def test_neighbors(self, client, local_store, rng):
        for v in map(int, rng.choice(local_store.n_vertices, 12,
                                     replace=False)):
            served = client.neighbors(v)
            assert served.dtype == np.int64
            assert np.array_equal(served, local_store.neighbors(v))

    def test_neighbors_with_payload(self, client, local_store):
        v = 37
        ids, payload = client.neighbors_with_payload(v)
        rows = local_store.edges_for_sources([v], with_payload=True)
        rows = rows[rows[:, 1] != v]
        assert np.array_equal(ids, rows[:, 1])
        for offset, name in enumerate(PAYLOAD):
            assert payload[name].dtype == np.int64
            assert np.array_equal(payload[name], rows[:, 2 + offset])

    def test_edges_in_range(self, client, local_store):
        n = local_store.n_vertices
        for lo, hi, with_payload in ((0, n, False), (0, n, True),
                                     (n // 4, n // 2, True), (5, 5, False)):
            served = client.edges_in_range(lo, hi, with_payload=with_payload)
            local = local_store.edges_in_range(lo, hi,
                                               with_payload=with_payload)
            assert served.dtype == local.dtype == np.int64
            assert served.shape == local.shape
            assert np.array_equal(served, local)

    def test_egonet(self, client, local_store, rng):
        for v in map(int, rng.choice(local_store.n_vertices, 8,
                                     replace=False)):
            served = client.egonet(v)
            local = local_store.egonet(v)
            assert np.array_equal(served.vertices, local.vertices)
            assert (served.graph.adjacency != local.graph.adjacency).nnz == 0
            assert served.graph.name == local.graph.name
            assert served.degree_of_center() == local.degree_of_center()
            assert served.triangles_at_center() == local.triangles_at_center()

    def test_egonet_with_payload(self, client, local_store):
        served_ego, served_rows = client.egonet(37, with_payload=True)
        local_ego, local_rows = local_store.egonet(37, with_payload=True)
        assert np.array_equal(served_ego.vertices, local_ego.vertices)
        assert served_rows.dtype == np.int64
        assert np.array_equal(served_rows, local_rows)

    def test_subgraph(self, client, local_store, rng):
        selection = [int(v) for v in
                     rng.choice(local_store.n_vertices, 15, replace=False)]
        served = client.subgraph(selection)
        local = local_store.subgraph(selection)
        assert (served.adjacency != local.adjacency).nnz == 0
        assert served.name == local.name

    def test_subgraph_with_payload(self, client, local_store):
        selection = [5, 3, 99, 37, 200]
        served, served_rows = client.subgraph(selection, with_payload=True)
        local, local_rows = local_store.subgraph(selection, with_payload=True)
        assert (served.adjacency != local.adjacency).nnz == 0
        assert np.array_equal(served_rows, local_rows)

    def test_edge_payloads(self, client, local_store):
        rows = local_store.edges_in_range(0, local_store.n_vertices)
        probe = rows[:: max(1, rows.shape[0] // 32)]
        served = client.edge_payloads(probe[:, 0], probe[:, 1])
        local = local_store.edge_payloads(probe[:, 0], probe[:, 1])
        assert served.dtype == np.int64
        assert np.array_equal(served, local)
        p, q = map(int, rows[0])
        assert client.edge_payload(p, q) == local_store.edge_payload(p, q)

    def test_served_errors_match_local_messages(self, client, local_store):
        with pytest.raises(IndexError, match="out of range"):
            client.degree(10 ** 9)
        with pytest.raises(ValueError, match="not stored in this shard store"):
            client.edge_payloads([0], [0])
        with pytest.raises(ValueError, match="duplicates"):
            client.subgraph([1, 1, 2])
        # The connection survives dispatch-level errors: same client, next
        # request answered normally.
        assert client.degree(37) == local_store.degree(37)

    def test_stats_surface(self, client):
        client.degree(0)
        stats = client.stats()
        assert stats["query"] == "stats"
        server_stats = stats["server"]
        assert server_stats["requests"]["degree"] >= 1
        assert server_stats["connections_total"] >= 1
        assert "degree" in server_stats["latency_us"]
        histogram = server_stats["latency_us"]["degree"]
        assert histogram["count"] == server_stats["requests"]["degree"]
        assert sum(histogram["buckets"].values()) == histogram["count"]
        assert server_stats["coalesced"]["degree"]["requests"] >= 1
        store_stats = stats["store"]
        assert store_stats["n_shards"] >= 1
        assert store_stats["shard_reads"] >= 1


# ----------------------------------------------------------------------
# Concurrent clients against one shared store
# ----------------------------------------------------------------------
class TestConcurrentServing:
    N_THREADS = 10
    N_ROUNDS = 6

    def test_mixed_queries_from_many_threads(self, server, store_dir, product):
        """The acceptance bar: byte-identical answers under ≥ 8 concurrent
        clients, all served by ONE store whose LRU is shared."""
        reference = ShardStore(store_dir, cache_shards=8)
        n = reference.n_vertices
        rows = reference.edges_in_range(0, n, with_payload=True)
        rng = np.random.default_rng(17)
        vertices = rng.choice(n, self.N_THREADS * self.N_ROUNDS)
        expected = {
            "degrees": reference.degrees(np.arange(0, n, 11)),
            "range": reference.edges_in_range(n // 4, n // 2,
                                              with_payload=True),
        }
        store = server.server.store
        store.reset_stats()
        failures = []

        def worker(thread_index: int) -> None:
            try:
                with QueryClient(server.host, server.port) as c:
                    for round_index in range(self.N_ROUNDS):
                        v = int(vertices[thread_index * self.N_ROUNDS
                                         + round_index])
                        assert c.degree(v) == reference.degree(v)
                        assert np.array_equal(c.neighbors(v),
                                              reference.neighbors(v))
                        assert np.array_equal(
                            c.degrees(np.arange(0, n, 11)),
                            expected["degrees"])
                        served_range = c.edges_in_range(
                            n // 4, n // 2, with_payload=True)
                        assert served_range.dtype == np.int64
                        assert np.array_equal(served_range,
                                              expected["range"])
                        ego_served = c.egonet(v)
                        ego_local = reference.egonet(v)
                        assert np.array_equal(ego_served.vertices,
                                              ego_local.vertices)
                        assert (ego_served.triangles_at_center()
                                == ego_local.triangles_at_center())
                        probe = rows[(thread_index * 7 + round_index)
                                     % rows.shape[0]]
                        assert c.edge_payload(int(probe[0]), int(probe[1])) \
                            == reference.edge_payload(int(probe[0]),
                                                      int(probe[1]))
            except Exception as exc:  # surfaced after join
                failures.append((thread_index, exc))

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(self.N_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not failures, failures[:3]

        # One shared LRU served everyone: hits accumulated on the single
        # store instance (shard_reads may legitimately be 0 here — earlier
        # tests already pulled every shard into the shared cache).
        stats = store.stats()
        assert stats["cache_hits"] > 0


# ----------------------------------------------------------------------
# Failure paths: the server survives every bad client
# ----------------------------------------------------------------------
class TestFailurePaths:
    def _assert_server_alive(self, server):
        with QueryClient(server.host, server.port) as probe:
            assert probe.degree(0) >= 0

    def test_malformed_frame_gets_error_then_close(self, server):
        with _raw_socket(server) as sock:
            body = b"this is not json"
            sock.sendall(struct.pack(">I", len(body)) + body)
            response = protocol.read_frame(sock)
            assert response["ok"] is False
            assert response["error"]["kind"] == "ProtocolError"
            assert "JSON" in response["error"]["message"]
            # The stream is untrusted now: the server closes it.
            assert sock.recv(1) == b""
        self._assert_server_alive(server)

    def test_oversized_request_refused_without_allocation(self, server):
        with _raw_socket(server) as sock:
            sock.sendall(struct.pack(">I", (64 << 20)))  # 64 MiB claim
            response = protocol.read_frame(sock)
            assert response["ok"] is False
            assert response["error"]["kind"] == "ProtocolError"
            assert "exceeds" in response["error"]["message"]
            assert sock.recv(1) == b""
        self._assert_server_alive(server)

    def test_disconnect_mid_frame_leaves_server_up(self, server):
        sock = _raw_socket(server)
        sock.sendall(struct.pack(">I", 4096) + b"partial")
        sock.close()  # vanish mid-request
        self._assert_server_alive(server)

    def test_disconnect_mid_header_leaves_server_up(self, server):
        sock = _raw_socket(server)
        sock.sendall(b"\x00\x00")  # half a length prefix
        sock.close()
        self._assert_server_alive(server)

    def test_version_mismatch_keeps_connection_open(self, server):
        """v1 and v2 requests — and any other version — get one
        ProtocolError frame; framing was intact, so the same connection
        still answers the next v3 request."""
        with _raw_socket(server) as sock:
            for version in (99, 1, 2):
                protocol.write_frame(sock, {"v": version, "op": "degree",
                                            "args": {"vertex": 0}})
                response = protocol.read_frame(sock)
                assert response["ok"] is False
                assert response["error"]["kind"] == "ProtocolError"
                assert "version" in response["error"]["message"]
                protocol.write_frame(sock, protocol.request_frame(
                    "degree", {"vertex": 0}))
                assert protocol.read_frame(sock)["ok"] is True

    def test_unknown_op_and_bad_args_are_frames_not_disconnects(self, server):
        with _raw_socket(server) as sock:
            protocol.write_frame(sock, protocol.request_frame("nonsense"))
            response = protocol.read_frame(sock)
            assert response["ok"] is False
            assert "unknown op" in response["error"]["message"]
            protocol.write_frame(sock, protocol.request_frame("degree", {}))
            response = protocol.read_frame(sock)
            assert response["ok"] is False
            assert "missing 'vertex'" in response["error"]["message"]
            protocol.write_frame(sock, protocol.request_frame(
                "degree", {"vertex": "seven"}))
            response = protocol.read_frame(sock)
            assert response["ok"] is False
            assert "must be an integer" in response["error"]["message"]
            # Still alive on the very same connection.
            protocol.write_frame(sock, protocol.request_frame(
                "degree", {"vertex": 0}))
            assert protocol.read_frame(sock)["ok"] is True

    def test_threaded_server_surfaces_startup_errors(self, tmp_path,
                                                     store_dir):
        """A bad store directory or bad option must raise from start(), not
        hang the caller on the ready event while the server thread dies."""
        with pytest.raises(FileNotFoundError):
            ThreadedServer(tmp_path / "no-such-store").start()
        with pytest.raises(ValueError, match="cache_shards"):
            ThreadedServer(store_dir, cache_shards=0).start()

    def test_decode_threads_checked_at_construction(self, store_dir):
        """An empty decode pool is refused when the server is built, not
        later by the executor inside ``start()``; the default is one
        thread."""
        with pytest.raises(ValueError, match="decode_threads"):
            ShardStoreServer(store_dir, decode_threads=0)
        assert ShardStoreServer(store_dir).decode_threads == 1

    def test_shutdown_lets_in_flight_requests_finish(self, store_dir):
        """Graceful stop: a request being served when another client asks
        for shutdown still gets its full response.  The served store is
        hooked so the shutdown provably lands while the query is in
        flight — no scheduling luck involved."""
        import time as time_mod

        with ThreadedServer(store_dir, cache_shards=8) as fresh:
            store = fresh.server.store
            in_flight = threading.Event()
            original = store.edges_in_range

            def slow_edges_in_range(*args, **kwargs):
                in_flight.set()
                time_mod.sleep(0.3)  # hold the request open past the shutdown
                return original(*args, **kwargs)

            store.edges_in_range = slow_edges_in_range
            results = {}

            def big_query():
                with QueryClient(fresh.host, fresh.port) as c:
                    results["rows"] = c.edges_in_range(0, c.n_vertices,
                                                       with_payload=True)

            worker = threading.Thread(target=big_query)
            worker.start()
            assert in_flight.wait(timeout=30)
            with QueryClient(fresh.host, fresh.port) as killer:
                killer.shutdown_server()
            worker.join(timeout=30)
            assert not worker.is_alive()
            assert results["rows"].shape[0] > 0

    def test_one_bad_vertex_cannot_poison_a_coalesced_batch(self, server):
        """Out-of-range scalars are rejected before coalescing, so an
        innocent concurrent request never inherits the IndexError."""
        results = []

        def good():
            with QueryClient(server.host, server.port) as c:
                results.append(c.degree(0))

        def bad():
            with QueryClient(server.host, server.port) as c:
                with pytest.raises(IndexError):
                    c.degree(10 ** 9)

        threads = [threading.Thread(target=t) for t in (good, bad) * 4]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert len(results) == 4


# ----------------------------------------------------------------------
# Where store calls run: inline on the loop when warm, on the pool if not
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def two_shard_store(store_dir, local_store):
    """The module's spill recompacted into two shards."""
    dest = store_dir.parent / "two-shard-store"
    compact_shards(store_dir.parent / "spill", dest,
                   target_shard_edges=local_store.total_edges // 2 + 1)
    return dest


def _inner_vertex(store: ShardStore, index: int) -> int:
    """A vertex only shard *index* holds rows of."""
    shard = store.manifest["shards"][index]
    vertex = (shard["src_min"] + shard["src_max"]) // 2
    assert shard["src_min"] < vertex < shard["src_max"]
    return vertex


class TestStoreCallPaths:
    def test_warm_server_runs_every_store_call_inline(self, two_shard_store,
                                                      local_store):
        with ThreadedServer(two_shard_store, cache_shards=8) as fresh:
            with QueryClient(fresh.host, fresh.port) as c:
                n = c.n_vertices
                c.edges_in_range(0, n)  # cold: both shards decode on the pool
                c.reset_stats()
                v, vs = 37, [3, 90, 400, 5]
                assert c.degree(v) == local_store.degree(v)
                assert np.array_equal(c.degrees(vs), local_store.degrees(vs))
                assert c.degrees([]).size == 0
                assert np.array_equal(c.neighbors(v), local_store.neighbors(v))
                assert np.array_equal(
                    c.edges_for_sources(vs, with_payload=True),
                    local_store.edges_for_sources(vs, with_payload=True))
                assert np.array_equal(
                    c.edges_in_range(n // 4, n // 2, with_payload=True),
                    local_store.edges_in_range(n // 4, n // 2,
                                               with_payload=True))
                assert np.array_equal(c.egonet(v).vertices,
                                      local_store.egonet(v).vertices)
                assert c.subgraph(vs).nnz == local_store.subgraph(vs).nnz
                row = local_store.edges_for_sources([v])[0]
                assert np.array_equal(
                    c.edge_payloads([row[0]], [row[1]]),
                    local_store.edge_payloads([row[0]], [row[1]]))
                stats = fresh.server.stats()
                prometheus = c.metrics()["prometheus"]
        assert fresh.server.store.n_shards == 2
        assert stats["server"]["store_calls"] == {"inline": 9, "pool": 0}
        assert stats["store"]["shard_reads"] == 0
        assert 'serve_store_calls{path="inline"} 9' in prometheus
        # The metrics snapshot has no source window: not a store call.
        assert 'serve_store_calls{path="pool"} 0' in prometheus

    def test_cold_batch_runs_on_the_pool(self, store_dir, local_store):
        with ThreadedServer(store_dir, cache_shards=2) as fresh:
            with QueryClient(fresh.host, fresh.port) as c:
                vertices = np.arange(0, c.n_vertices, 7)
                assert np.array_equal(c.degrees(vertices),
                                      local_store.degrees(vertices))
            stats = fresh.server.stats()
        assert stats["store"]["n_shards"] > stats["store"]["cache_shards"]
        assert stats["server"]["store_calls"] == {"inline": 0, "pool": 1}
        assert stats["store"]["shard_reads"] == stats["store"]["n_shards"]

    def test_warm_call_over_more_than_two_shards_runs_on_the_pool(
            self, store_dir, local_store):
        """Cached or not, a call whose window overlaps three shards copies
        too much for the loop: it runs on the pool."""
        a, b, c3 = (_inner_vertex(local_store, i) for i in range(3))
        with ThreadedServer(store_dir, cache_shards=10_000) as fresh:
            with QueryClient(fresh.host, fresh.port) as c:
                c.edges_in_range(0, c.n_vertices)  # every shard cached
                c.reset_stats()
                for lo, hi in ((a, b + 1), (a, c3 + 1)):
                    assert np.array_equal(
                        c.edges_in_range(lo, hi, with_payload=True),
                        local_store.edges_in_range(lo, hi,
                                                   with_payload=True))
            stats = fresh.server.stats()
        assert stats["server"]["store_calls"] == {"inline": 1, "pool": 1}
        assert stats["store"]["shard_reads"] == 0

    def test_eviction_between_check_and_call_decodes_inline(self, store_dir,
                                                            local_store):
        """A pool thread may evict a shard after the check said inline: the
        inline call then decodes on the loop, answers byte-equal, counts
        one shard read, and its decode span nests under the serve span."""
        v = _inner_vertex(local_store, 1)
        with ThreadedServer(store_dir, cache_shards=8) as fresh:
            store = fresh.server.store
            with QueryClient(fresh.host, fresh.port) as c:
                c.degrees([v])  # v's shard is cached now
                checked = store.cached

                def check_then_evict(lo, hi, **bound):
                    warm = checked(lo, hi, **bound)
                    store.clear_cache()  # the race, made certain
                    return warm

                store.cached = check_then_evict
                c.reset_stats()
                with trace.start_trace("evicted", TraceRecorder()) as t:
                    rows = c.edges_for_sources([v], with_payload=True)
                spans = c.trace_spans(t.trace_id)
            stats = fresh.server.stats()
        assert np.array_equal(
            rows, local_store.edges_for_sources([v], with_payload=True))
        assert stats["server"]["store_calls"] == {"inline": 1, "pool": 0}
        assert stats["store"]["shard_reads"] == 1
        by_name = {s["name"]: s for s in spans}
        assert (by_name["store.decode"]["parent"]
                == by_name["serve.edges_for_sources"]["span"])


# ----------------------------------------------------------------------
# Graceful stop
# ----------------------------------------------------------------------
class TestGracefulStop:
    @pytest.mark.parametrize("n_connections", [1, 4])
    def test_connections_accepted_as_stop_begins(self, store_dir, caplog,
                                                 n_connections):
        """Connections made k loop turns before ``stop()``, for every k up
        to the point their handlers run: ``stop()`` leaves no handler
        pending or cancelled, and asyncio logs nothing at teardown."""
        caplog.set_level(logging.WARNING, logger="asyncio")
        for k in range(8):
            handlers = []

            def record(loop, coro, **kwargs):
                task = asyncio.Task(coro, loop=loop, **kwargs)
                if coro.__qualname__.endswith("._handle_connection"):
                    handlers.append(task)
                return task

            async def main():
                asyncio.get_running_loop().set_task_factory(record)
                server = ShardStoreServer(store_dir, cache_shards=8)
                await server.start()
                socks = [socket.create_connection((server.host, server.port),
                                                  timeout=10)
                         for _ in range(n_connections)]
                try:
                    for _ in range(k):
                        await asyncio.sleep(0)
                    await server.stop()
                    assert all(t.done() for t in handlers), k
                finally:
                    for sock in socks:
                        sock.close()

            asyncio.run(main())
            assert not any(t.cancelled() for t in handlers), k
        assert [r.getMessage() for r in caplog.records
                if r.name == "asyncio"] == []

    def test_idle_connection_cannot_hold_stop_open(self, store_dir):
        """From Python 3.12.1, ``Server.wait_closed()`` waits until every
        accepted connection has dropped.  ``stop()`` closes the connections
        parked between frames before it waits on the listener, so an idle
        client cannot keep it from returning.  The newer ``wait_closed``
        is emulated here, so this holds on every Python."""
        async def main():
            server = ShardStoreServer(store_dir, cache_shards=8)
            await server.start()
            listener = server._server
            loop = asyncio.get_running_loop()

            async def wait_closed():  # CPython 3.12.1's Server.wait_closed
                if listener._waiters is None:
                    return
                waiter = loop.create_future()
                listener._waiters.append(waiter)
                await waiter

            listener.wait_closed = wait_closed
            reader, writer = await asyncio.open_connection(server.host,
                                                           server.port)
            try:
                writer.write(protocol.encode_frame(
                    protocol.request_frame("hello")))
                assert (await protocol.read_frame_async(reader))["ok"]
                await asyncio.wait_for(server.stop(grace_s=60), timeout=10)
                assert await reader.read() == b""  # closed by the server
            finally:
                writer.close()
        asyncio.run(main())

    def test_overlapping_stops_wait_for_the_pool_to_shut_down(
            self, store_dir, monkeypatch):
        """Two overlapping ``stop()`` calls while a cold call holds the
        decode pool, its shard read blocked in a hook: neither call may
        return before the pool is shut down, so both are still waiting
        while the read is held, and both return once it is released."""
        from repro.store import query as store_query

        entered, release, decoded = (threading.Event(), threading.Event(),
                                     threading.Event())
        load = store_query._load_shard_file

        def held_load(*args, **kwargs):
            entered.set()
            assert release.wait(30)
            rows = load(*args, **kwargs)
            decoded.set()
            return rows

        monkeypatch.setattr(store_query, "_load_shard_file", held_load)

        async def main():
            server = ShardStoreServer(store_dir, cache_shards=2)
            await server.start()
            reader, writer = await asyncio.open_connection(server.host,
                                                           server.port)
            try:
                writer.write(protocol.encode_frame(protocol.request_frame(
                    "edges_in_range",
                    {"lo": 0, "hi": server.store.n_vertices})))
                await writer.drain()
                assert await asyncio.to_thread(entered.wait, 30)
                stops = [asyncio.ensure_future(server.stop(grace_s=0.1))
                         for _ in range(2)]
                done, _ = await asyncio.wait(stops, timeout=1.0)
                release.set()
                await asyncio.gather(*stops)
                return len(done)
            finally:
                release.set()
                writer.close()

        returned_early = asyncio.run(main())
        assert returned_early == 0, \
            "a stop() returned before the pool shut down"
        assert decoded.is_set()

    def test_in_flight_request_answered_while_idle_connections_close(
            self, store_dir, local_store):
        with ThreadedServer(store_dir, cache_shards=8) as fresh:
            store = fresh.server.store
            in_flight, release = threading.Event(), threading.Event()
            degrees = store.degrees

            def held_degrees(vs):
                in_flight.set()
                assert release.wait(30)
                return degrees(vs)

            store.degrees = held_degrees
            # The pool, so the loop stays free.
            store.cached = lambda lo, hi, **bound: False
            results = {}

            def request():
                with QueryClient(fresh.host, fresh.port) as c:
                    results["degrees"] = c.degrees([0, 1, 2])

            with _raw_socket(fresh) as idle:
                protocol.write_frame(idle, protocol.request_frame("hello"))
                assert protocol.read_frame(idle)["ok"]  # parked between frames
                worker = threading.Thread(target=request)
                worker.start()
                assert in_flight.wait(30)
                fresh.server.request_stop()
                assert idle.recv(1) == b""  # closed while the request runs
                release.set()
                worker.join(30)
        assert not worker.is_alive()
        assert np.array_equal(results["degrees"],
                              local_store.degrees([0, 1, 2]))


# ----------------------------------------------------------------------
# CLI integration: query --connect and the serve subcommand
# ----------------------------------------------------------------------
class TestServeCli:
    def test_query_connect_matches_local_json(self, server, store_dir,
                                              capsys):
        from repro import cli
        for flags in (["--degree", "37"],
                      ["--neighbors", "37", "--payload"],
                      ["--egonet", "37", "--payload"],
                      ["--range", "0", "100", "--limit", "5"],
                      ["--range", "0", "400", "--payload"]):
            assert cli.main(["query", str(store_dir), "--json", *flags]) == 0
            local = json.loads(capsys.readouterr().out)
            assert cli.main(["query", "--connect", server.address,
                             "--json", *flags]) == 0
            remote = json.loads(capsys.readouterr().out)
            # Cache counters legitimately differ between the two stores;
            # every query-answer key must be identical.
            local.pop("store")
            remote.pop("store")
            assert local == remote

    def test_query_requires_exactly_one_source(self, store_dir, server):
        from repro import cli
        with pytest.raises(SystemExit, match="exactly one"):
            cli.main(["query", "--degree", "3"])
        with pytest.raises(SystemExit, match="exactly one"):
            cli.main(["query", str(store_dir), "--connect", server.address,
                      "--degree", "3"])

    def test_serve_subcommand_end_to_end(self, store_dir):
        """`repro-kron serve` in a real subprocess: binds an ephemeral port,
        answers queries (its loop thread profiles as the event loop), stops
        gracefully on a shutdown request, and prints the request/cache
        summary."""
        env = dict(os.environ)
        src = str((
            __import__("pathlib").Path(__file__).resolve().parent.parent
            / "src"))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-u", "-c",
             "from repro.cli import main; import sys; "
             "sys.exit(main(sys.argv[1:]))",
             "serve", str(store_dir), "--port", "0"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        try:
            banner = process.stdout.readline()
            match = re.search(r"on 127\.0\.0\.1:(\d+)", banner)
            assert match, banner
            with QueryClient("127.0.0.1", int(match.group(1))) as c:
                c.profile("start", hz=200)
                assert c.degree(37) >= 0
                time.sleep(0.1)
                stacks = c.profile("stop")["profile"]["stacks"]
                assert "event_loop" in stacks and "main" not in stacks, \
                    sorted(stacks)
                assert c.stats()["server"]["requests"]["degree"] == 1
                c.shutdown_server()
            stdout, stderr = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, stderr
        assert "served" in stdout and "requests" in stdout


# ----------------------------------------------------------------------
# Protocol v3: every answer array rides one binary frame
# ----------------------------------------------------------------------
def _scripted_server(handler):
    """A listening socket whose every accepted connection runs *handler* —
    the hand-rolled peer for client-side fuzz cases.  Close the returned
    socket to stop the accept thread."""
    lsock = socket.socket()
    lsock.bind(("127.0.0.1", 0))
    lsock.listen(4)
    port = lsock.getsockname()[1]

    def run():
        while True:
            try:
                conn, _ = lsock.accept()
            except OSError:
                return  # listener closed: test over
            with conn:
                try:
                    handler(conn)
                except Exception:
                    pass  # a client that already hung up is fine

    threading.Thread(target=run, daemon=True).start()
    return lsock, port


class TestBinaryPlane:
    def test_hello_announces_v3(self, client):
        info = client.hello()
        assert info["protocol"] == PROTOCOL_VERSION == 3
        assert "protocol_versions" not in info and "binary_ops" not in info

    def test_binary_rows_equal_json_and_local(self, client, local_store):
        """The binary rows agree with their JSON control frame (row count,
        columns) and with the local store."""
        n = local_store.n_vertices
        for lo, hi, with_payload in ((0, n, False), (0, n, True),
                                     (n // 4, n // 2, True), (5, 5, False)):
            local = local_store.edges_in_range(lo, hi,
                                               with_payload=with_payload)
            answer = client.request("edges_in_range", {
                "lo": lo, "hi": hi, "with_payload": with_payload})
            rows = answer["edges"]
            assert answer["n_edges"] == rows.shape[0] == local.shape[0]
            assert len(answer["columns"]) == rows.shape[1] == local.shape[1]
            assert rows.dtype == local.dtype == np.int64
            assert np.array_equal(rows, local)

    def test_multi_array_answers_equal_local(self, client, local_store):
        v = 37
        ids, payload = client.neighbors_with_payload(v)
        rows = local_store.edges_for_sources([v], with_payload=True)
        rows = rows[rows[:, 1] != v]
        served_ego, served_rows = client.egonet(v, with_payload=True)
        local_ego, local_rows = local_store.egonet(v, with_payload=True)
        pairs = [(ids, rows[:, 1]), (served_ego.vertices, local_ego.vertices),
                 (served_rows, local_rows)]
        pairs += [(payload[name], rows[:, 2 + offset])
                  for offset, name in enumerate(PAYLOAD)]
        for served, local in pairs:
            assert served.dtype == np.int64 and served.flags.writeable
            assert np.array_equal(served, local)

    def test_binary_rows_are_writable(self, client, local_store):
        rows = client.edges_in_range(0, local_store.n_vertices)
        rows[0, 0] = -1  # would raise on a read-only frombuffer wrap
        assert rows[0, 0] == -1

    def test_client_counts_binary_transfer(self, client):
        before = client.connection_stats()
        rows = client.edges_in_range(0, 50)
        client.degree(0)  # no arrays: no binary frame
        after = client.connection_stats()
        assert after["binary_frames"] == before["binary_frames"] + 1
        assert after["binary_bytes"] == before["binary_bytes"] + rows.nbytes

    def test_server_counts_binary_transfer(self, server, client):
        before = server.server.stats()["server"]["binary"]
        rows = client.edges_in_range(0, 50)
        after = server.server.stats()["server"]["binary"]
        assert after["frames"] == before["frames"] + 1
        assert after["bytes"] == before["bytes"] + rows.nbytes

    def test_range_answers_copy_no_mapped_rows(self, store_dir):
        """A warm mmap store serves range answers straight from its
        mappings: no decode and no private copy per answer.  (A fresh
        server: point lookups elsewhere build resident key arrays.)"""
        with ThreadedServer(store_dir, cache_shards=64) as fresh:
            store = fresh.server.store
            with QueryClient(fresh.host, fresh.port) as c:
                n = c.n_vertices
                c.edges_in_range(0, n, with_payload=True)  # warm every shard
                warm = store.stats()
                for _ in range(5):
                    c.edges_in_range(n // 4, n // 2, with_payload=True)
            after = store.stats()
        assert after["mmap"] and after["resident_bytes"] == 0
        assert after["shard_reads"] == warm["shard_reads"]
        assert after["mapped_bytes"] == warm["mapped_bytes"]

    def test_connection_survives_interleaved_planes(self, client,
                                                    local_store):
        """JSON-only answers and two-frame array answers alternate on one
        connection without desynchronizing it."""
        n = local_store.n_vertices
        expected = local_store.edges_in_range(0, n // 3)
        for _ in range(3):
            assert np.array_equal(client.edges_in_range(0, n // 3), expected)
            assert client.degree(0) == local_store.degree(0)
        assert client.connection_stats()["connects"] == 1


class TestProtocolV2Compat:
    """Peers of the older protocol versions against the v3 server."""

    def test_v1_client_asking_binary_gets_error_frame(self, server):
        """A v1 peer asking for the old opt-in binary rows gets ONE
        ProtocolError frame — no binary frame follows it — and the
        connection stays usable (framing is intact, nothing was
        desynchronized)."""
        with _raw_socket(server) as sock:
            protocol.write_frame(sock, {
                "v": 1, "op": "edges_in_range",
                "args": {"lo": 0, "hi": 10, "binary": True}})
            response = protocol.read_frame(sock)
            assert response["ok"] is False
            assert response["error"]["kind"] == "ProtocolError"
            assert "version" in response["error"]["message"]
            # The next frame on the stream answers the next request.
            protocol.write_frame(sock, protocol.request_frame(
                "degree", {"vertex": 0}))
            assert protocol.read_frame(sock)["ok"] is True


def _descriptor(shape, offset: int) -> dict:
    return {"shape": list(shape), "offset": offset}


class TestBinaryFuzz:
    """Untrustworthy binary frames: one error, connection dropped cleanly."""

    @staticmethod
    def _answer(arrays: dict, body: bytes, *, length=None):
        """A scripted server answering with *arrays* (name → descriptor) in
        its control frame and *body* as the binary frame (header claiming
        *length* bytes, ``len(body)`` by default)."""
        result = {"query": "edges_in_range", "lo": 0, "hi": 10, **arrays}

        def handler(conn):
            protocol.read_frame(conn)
            conn.sendall(protocol.encode_frame(protocol.result_frame(result)))
            claimed = len(body) if length is None else length
            conn.sendall(struct.pack(">I", claimed) + body)  # then close

        return _scripted_server(handler)

    def _assert_dropped(self, lsock, port, match):
        try:
            with QueryClient("127.0.0.1", port, timeout=10) as c:
                with pytest.raises(ProtocolError, match=match):
                    c.request("edges_in_range", {"lo": 0, "hi": 10})
                # The desynchronized socket was dropped, not kept for reuse.
                assert c._sock is None
        finally:
            lsock.close()

    def test_truncated_binary_frame(self):
        self._assert_dropped(*self._answer(
            {"edges": _descriptor((10, 2), 0)}, b"x" * 50, length=160),
            match="mid-frame")

    def test_nbytes_mismatch_with_header(self):
        # The frame carries 200 bytes; its one array holds 160.
        self._assert_dropped(*self._answer(
            {"edges": _descriptor((10, 2), 0)}, b"y" * 200),
            match="do not tile the 200-byte")

    def test_descriptor_inconsistent_with_itself(self):
        # A negative dimension: the descriptor cannot describe any bytes.
        self._assert_dropped(*self._answer(
            {"edges": _descriptor((-10, 2), 0)}, b"z" * 160),
            match="malformed array descriptor")

    @pytest.mark.parametrize("second_offset, body_bytes", [
        (32, 48),  # [32, 64) runs past the end of the frame
        (16, 48),  # [16, 48) overlaps [0, 32)
        (40, 72),  # nothing claims [32, 40)
    ], ids=["past-end", "overlap", "gap"])
    def test_bad_array_layout(self, second_offset, body_bytes):
        # Arrays are laid out in frame order: "edges" sorts first.
        self._assert_dropped(*self._answer(
            {"edges": _descriptor((4,), 0),
             "n_edges": _descriptor((4,), second_offset)},
            b"w" * body_bytes), match="do not tile")


class TestClientConnection:
    def test_timeout_is_configurable_and_fires(self):
        """A hung server (accepts, never answers) times the client out
        instead of blocking it forever."""
        def handler(conn):
            protocol.read_frame(conn)  # swallow the request, answer nothing
            threading.Event().wait(5)

        lsock, port = _scripted_server(handler)
        try:
            with QueryClient("127.0.0.1", port, timeout=0.3) as c:
                assert c.timeout == 0.3
                with pytest.raises(socket.timeout):
                    c.request("degree", {"vertex": 0})
                assert c._sock is None  # timed-out stream is never reused
        finally:
            lsock.close()

    def test_reconnect_retry_counted_in_stats(self):
        """A server that drops the connection after every answer forces the
        client's retry-once path; connection_stats must show it."""
        answer = protocol.result_frame({"query": "degree", "vertex": 0,
                                        "degree": 7})

        def handler(conn):
            if protocol.read_frame(conn) is not None:
                conn.sendall(protocol.encode_frame(answer))
            # connection closes when the handler returns: one answer each

        lsock, port = _scripted_server(handler)
        try:
            with QueryClient("127.0.0.1", port, timeout=10) as c:
                assert c.request("degree", {"vertex": 0})["degree"] == 7
                assert c.request("degree", {"vertex": 0})["degree"] == 7
                stats = c.connection_stats()
                assert stats["reconnect_retries"] == 1
                assert stats["connects"] == 2
                assert stats["requests_sent"] == 3  # one round trip retried
        finally:
            lsock.close()

    def test_cli_timeout_flag_reaches_the_socket(self, server, capsys,
                                                 monkeypatch):
        from repro import cli
        seen = {}
        original = QueryClient.from_address.__func__

        def spy(cls, address, **kwargs):
            seen.update(kwargs)
            return original(cls, address, **kwargs)

        monkeypatch.setattr(QueryClient, "from_address",
                            classmethod(spy))
        assert cli.main(["query", "--connect", server.address, "--json",
                         "--degree", "0", "--timeout", "7.5"]) == 0
        capsys.readouterr()
        assert seen["timeout"] == 7.5
