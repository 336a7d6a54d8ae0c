"""Tests for the range-routed serving fleet (repro.serve.router).

Four layers of coverage, all through :class:`~tests._fleet_harness.FleetHarness`
(partition → N slice workers → router, on ephemeral ports):

* routing transparency — every query op answered by the router must be
  byte-equal (values *and* dtypes) to the single in-process
  :class:`~repro.store.ShardStore` answer, including queries that span
  slice boundaries and a partition whose boundary falls inside one shard's
  source range, single-threaded and under ≥ 8 concurrent client threads;
* the fleet operational surface — ``hello`` announces the slice layout,
  ``stats`` rolls per-worker reports into fleet-level store counters;
* fault injection — a worker killed mid-request (scripted primary dying
  after reading the request, or mid-response) fails over to its replica
  exactly once and still returns the byte-equal answer; a pooled
  connection to a worker stopped between requests fails over the same way;
  a hung primary times out, fails over, and never stalls the router's
  event loop; a partial fan-out failure leaves nothing running and no
  connection unclosed;
* the no-replica-left path — with every replica of a slice down, the
  router answers with a clear error *frame* naming the worker and its
  range, and the client's connection stays usable for other slices;
* observability — a traced routed query yields one merged span tree
  (router op → per-worker attempts → worker serve spans), a forced
  failover shows the failed attempt and its retry as sibling
  ``fleet.worker_call`` spans under the same trace id, and
  ``reset_stats`` fans out to every worker.

The fleet ``serve --fleet`` builds — a :class:`~repro.serve.LocalFleet`,
whose router calls its workers in process — is covered by
``TestInProcessWorkers`` and the ``serve --fleet`` subprocess tests.
"""

from __future__ import annotations

import asyncio
import gc
import json
import logging
import mmap
import os
import re
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from _fleet_harness import (
    FleetHarness,
    drop_after_request,
    hang_after_request,
    logged_steps,
    truncate_response,
)
from repro import generators
from repro.core import KroneckerGraph
from repro.graphs import NpyShardSink, write_edge_shards
from repro.graphs.io import read_shard_manifest
from repro.obs import TraceRecorder, trace
from repro.parallel import distributed_generate
from repro.serve import (
    FleetStore,
    LocalFleet,
    QueryClient,
    RangeRouter,
    ServerError,
    ShardStoreServer,
    ThreadedServer,
    fleet_info_from_manifest,
    protocol,
)
from repro.store import ShardStore, compact_shards
from repro.store import query as query_mod

PAYLOAD = ("triangles", "trussness")


# ----------------------------------------------------------------------
# One spill for the whole module; each harness compacts its own store so
# re-partitioning for one test can never touch another test's live fleet.
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
def spill_dir(tmp_path_factory, factors, product):
    tmp = tmp_path_factory.mktemp("router-spill")
    sink = NpyShardSink(tmp / "spill", name=product.name,
                        n_vertices=product.n_vertices,
                        payload_columns=PAYLOAD)
    distributed_generate(*factors, 4, streaming=True, a_edges_per_block=8,
                         sink=sink, payload_columns=PAYLOAD)
    return tmp / "spill"


@pytest.fixture(scope="module")
def store_factory(spill_dir, tmp_path_factory):
    counter = iter(range(10 ** 6))

    def make(target_shard_edges: int = 600):
        dest = tmp_path_factory.mktemp(
            f"router-store-{next(counter)}") / "store"
        compact_shards(spill_dir, dest,
                       target_shard_edges=target_shard_edges)
        return dest

    return make


@pytest.fixture(scope="module")
def store_dir(store_factory):
    return store_factory()


@pytest.fixture(scope="module")
def local_store(store_dir):
    """The single-store reference every routed answer must match."""
    return ShardStore(store_dir, cache_shards=16)


@pytest.fixture(scope="module")
def fleet(store_dir):
    with FleetHarness(store_dir, n_slices=3) as harness:
        yield harness


@pytest.fixture
def client(fleet):
    with fleet.client() as c:
        yield c


def _wait_for(predicate, timeout: float = 10.0) -> None:
    """Poll *predicate* until it holds; fail after *timeout* seconds."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def _routed_stream(client, local_store) -> None:
    """Drive ``degree``, ``degrees``, ``egonet`` and ``subgraph`` (the
    last two with and without the payload) and the ``stats``, ``health``,
    ``events`` and ``trace`` rollups through a router, checking every
    answer against the local store: six store calls."""
    n = local_store.n_vertices
    vertices = np.arange(0, n, 5)
    assert np.array_equal(client.degrees(vertices),
                          local_store.degrees(vertices))
    assert client.degree(7) == local_store.degree(7)
    selection = [5, 3, n // 2, n - 1]
    for with_payload in (False, True):
        routed = client.egonet(7, with_payload=with_payload)
        local = local_store.egonet(7, with_payload=with_payload)
        if with_payload:
            (routed, routed_rows), (local, local_rows) = routed, local
            assert np.array_equal(routed_rows, local_rows)
        assert np.array_equal(routed.vertices, local.vertices)
        assert (routed.graph.adjacency != local.graph.adjacency).nnz == 0
        routed = client.subgraph(selection, with_payload=with_payload)
        local = local_store.subgraph(selection, with_payload=with_payload)
        if with_payload:
            (routed, routed_rows), (local, local_rows) = routed, local
            assert np.array_equal(routed_rows, local_rows)
        assert (routed.adjacency != local.adjacency).nnz == 0
    assert client.stats()["fleet"]["workers"] >= 1
    assert client.health()["status"] == "ok"
    assert client.events()["n_events"] >= 0
    assert client.request("trace", {"id": "no-such-trace"})["n_spans"] == 0


def _boundary_vertices(harness):
    """Vertices hugging every internal slice boundary (both sides)."""
    probes = []
    for entry in harness.slices[1:]:
        probes += [entry["src_lo"] - 1, entry["src_lo"]]
    return probes


# ----------------------------------------------------------------------
# Routing transparency: byte-equal to the single store
# ----------------------------------------------------------------------
class TestRoutedEquivalence:
    def test_hello_announces_fleet_layout(self, fleet, client, local_store):
        info = client.hello()
        assert info["store"]["n_vertices"] == local_store.n_vertices
        assert info["store"]["total_edges"] == local_store.total_edges
        assert info["store"]["payload_columns"] == list(PAYLOAD)
        assert "edges_for_sources" in info["ops"]
        layout = info["fleet"]
        assert layout["workers"] == 3
        assert layout["slices"][0]["src_lo"] == 0
        assert layout["slices"][-1]["src_hi"] == local_store.n_vertices
        for left, right in zip(layout["slices"], layout["slices"][1:]):
            assert left["src_hi"] == right["src_lo"]

    def test_degrees_across_all_slices(self, fleet, client, local_store):
        n = local_store.n_vertices
        for v in (0, *_boundary_vertices(fleet), n - 1):
            assert client.degree(v) == local_store.degree(v)
        vs = np.arange(0, n, 7)  # spans every slice in one batch
        routed = client.degrees(vs)
        assert routed.dtype == np.int64
        assert np.array_equal(routed, local_store.degrees(vs))

    def test_neighbors_and_edges_for_sources(self, fleet, client,
                                             local_store, rng):
        for v in map(int, rng.choice(local_store.n_vertices, 10,
                                     replace=False)):
            routed = client.neighbors(v)
            assert routed.dtype == np.int64
            assert np.array_equal(routed, local_store.neighbors(v))
        # One batch whose sources live on all three slices, unsorted.
        vs = [_boundary_vertices(fleet)[0], 3, local_store.n_vertices - 2, 0]
        for with_payload in (False, True):
            routed = client.edges_for_sources(vs, with_payload=with_payload)
            local = local_store.edges_for_sources(vs,
                                                  with_payload=with_payload)
            assert routed.dtype == local.dtype == np.int64
            assert np.array_equal(routed, local)

    def test_edges_in_range_spanning_boundaries(self, fleet, client,
                                                local_store):
        n = local_store.n_vertices
        spans = [(0, n, False), (0, n, True), (5, 5, False)]
        for boundary in _boundary_vertices(fleet)[1::2]:
            spans.append((max(0, boundary - 20), min(n, boundary + 20), True))
        for lo, hi, with_payload in spans:
            routed = client.edges_in_range(lo, hi, with_payload=with_payload)
            local = local_store.edges_in_range(lo, hi,
                                               with_payload=with_payload)
            assert routed.dtype == local.dtype == np.int64
            assert routed.shape == local.shape
            assert np.array_equal(routed, local)

    def test_egonet_and_subgraph(self, fleet, client, local_store, rng):
        for v in map(int, rng.choice(local_store.n_vertices, 6,
                                     replace=False)):
            routed = client.egonet(v)
            local = local_store.egonet(v)
            assert np.array_equal(routed.vertices, local.vertices)
            assert (routed.graph.adjacency != local.graph.adjacency).nnz == 0
            assert routed.triangles_at_center() == local.triangles_at_center()
        routed_ego, routed_rows = client.egonet(37, with_payload=True)
        local_ego, local_rows = local_store.egonet(37, with_payload=True)
        assert np.array_equal(routed_ego.vertices, local_ego.vertices)
        assert np.array_equal(routed_rows, local_rows)
        selection = [5, 3, *(v + 1 for v in _boundary_vertices(fleet)), 200]
        routed_sub, routed_rows = client.subgraph(selection,
                                                  with_payload=True)
        local_sub, local_rows = local_store.subgraph(selection,
                                                     with_payload=True)
        assert (routed_sub.adjacency != local_sub.adjacency).nnz == 0
        assert routed_sub.name == local_sub.name
        assert np.array_equal(routed_rows, local_rows)

    def test_edge_payloads(self, client, local_store):
        rows = local_store.edges_in_range(0, local_store.n_vertices)
        probe = rows[:: max(1, rows.shape[0] // 24)]
        routed = client.edge_payloads(probe[:, 0], probe[:, 1])
        assert routed.dtype == np.int64
        assert np.array_equal(routed,
                              local_store.edge_payloads(probe[:, 0],
                                                        probe[:, 1]))
        p, q = map(int, rows[-1])
        assert client.edge_payload(p, q) == local_store.edge_payload(p, q)

    def test_errors_are_transparent_and_connection_survives(self, client,
                                                            local_store):
        with pytest.raises(IndexError, match="out of range"):
            client.degree(10 ** 9)
        with pytest.raises(ValueError, match="duplicates"):
            client.subgraph([1, 1, 2])
        with pytest.raises(ValueError, match="matching shapes"):
            client.edge_payloads([0, 1], [0])
        assert client.degree(37) == local_store.degree(37)

    def test_store_errors_keep_pooled_worker_connections(self,
                                                         store_factory):
        """A store error travels back as an error frame that leaves the
        router's worker stream in sync, so the pooled connection is reused:
        N routed misses open no new worker connection."""
        store = store_factory()
        reference = ShardStore(store, cache_shards=16)
        with FleetHarness(store, n_slices=2) as harness:
            probes = []  # (source, stored neighbour, non-neighbour) per slice
            for entry in harness.slices:
                p = next(v for v in range(entry["src_lo"], entry["src_hi"])
                         if reference.degree(v) > 0)
                stored = reference.neighbors(p)
                miss = next(q for q in range(reference.n_vertices)
                            if q != p and q not in set(stored.tolist()))
                probes.append((p, int(stored[0]), miss))
            servers = [replicas[0].server for replicas in harness.workers]
            with harness.client() as c:
                for p, hit, _ in probes:  # one pooled connection per worker
                    c.edge_payloads([p], [hit])
                before = [s.stats()["server"]["connections_total"]
                          for s in servers]
                for _ in range(5):
                    for p, _, miss in probes:
                        with pytest.raises(ValueError, match="not stored"):
                            c.edge_payloads([p], [miss])
                after = [s.stats()["server"]["connections_total"]
                         for s in servers]
        assert after == before

    def test_stats_rolls_up_every_worker(self, fleet, client, local_store):
        client.degrees(np.arange(0, local_store.n_vertices, 13))
        stats = client.stats()
        assert stats["query"] == "stats"
        assert stats["server"]["requests"]["degrees"] >= 1
        assert stats["fleet"]["workers"] == 3
        reports = stats["workers"]
        assert [r["worker"] for r in reports] == [0, 1, 2]
        assert all(r["ok"] for r in reports)
        rollup = stats["store"]
        # Slices overlap on boundary shards; the fleet counter reports the
        # parent store's shard count, not the sum of slice counts.
        assert rollup["n_shards"] == local_store.n_shards
        assert rollup["workers"] == 3
        assert rollup["shard_reads"] >= 1

    def test_sync_stats_names_the_stats_op_and_fleet_stats(self, fleet,
                                                           client):
        """A router's workers answer only on its loop, so the synchronous
        ``stats()`` it inherits fails naming the two ways that work."""
        with pytest.raises(RuntimeError,
                           match=r"'stats' op.*await router\.fleet_stats\(\)"):
            fleet.router.server.stats()
        assert client.stats()["fleet"]["workers"] == 3

    def test_boundary_inside_one_shard(self, store_factory):
        """A partition boundary in the middle of a shard's source range:
        the shard is listed by both slices, but each worker serves only its
        assigned half — no duplicated or dropped boundary rows."""
        store = store_factory()
        manifest = read_shard_manifest(store)
        shard = manifest["shards"][len(manifest["shards"]) // 2]
        boundary = (int(shard["src_min"]) + int(shard["src_max"]) + 1) // 2
        assert shard["src_min"] < boundary <= shard["src_max"]
        reference = ShardStore(store, cache_shards=16)
        with FleetHarness(store, boundaries=[boundary]) as harness:
            assert harness.slices[0]["n_shards"] \
                + harness.slices[1]["n_shards"] == len(manifest["shards"]) + 1
            with harness.client() as c:
                lo, hi = boundary - 15, boundary + 15
                for with_payload in (False, True):
                    routed = c.edges_in_range(lo, hi,
                                              with_payload=with_payload)
                    local = reference.edges_in_range(
                        lo, hi, with_payload=with_payload)
                    assert np.array_equal(routed, local)
                vs = np.arange(lo, hi)
                assert np.array_equal(c.degrees(vs), reference.degrees(vs))

    def test_concurrent_clients_byte_equal(self, fleet, local_store):
        """The acceptance bar: ≥ 8 concurrent clients, every routed answer
        byte-identical to the single store."""
        n = local_store.n_vertices
        n_threads, n_rounds = 8, 4
        rng = np.random.default_rng(29)
        vertices = rng.choice(n, n_threads * n_rounds)
        expected = {
            "degrees": local_store.degrees(np.arange(0, n, 11)),
            "range": local_store.edges_in_range(n // 4, n // 2,
                                                with_payload=True),
        }
        failures = []

        def worker(thread_index: int) -> None:
            try:
                with fleet.client() as c:
                    for round_index in range(n_rounds):
                        v = int(vertices[thread_index * n_rounds
                                         + round_index])
                        assert c.degree(v) == local_store.degree(v)
                        assert np.array_equal(c.neighbors(v),
                                              local_store.neighbors(v))
                        assert np.array_equal(
                            c.degrees(np.arange(0, n, 11)),
                            expected["degrees"])
                        routed = c.edges_in_range(n // 4, n // 2,
                                                  with_payload=True)
                        assert routed.dtype == np.int64
                        assert np.array_equal(routed, expected["range"])
                        ego_routed = c.egonet(v)
                        ego_local = local_store.egonet(v)
                        assert np.array_equal(ego_routed.vertices,
                                              ego_local.vertices)
            except Exception as exc:  # surfaced after join
                failures.append((thread_index, exc))

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not failures, failures[:3]


# ----------------------------------------------------------------------
# Fault injection: worker death, replica failover, no-replica-left
# ----------------------------------------------------------------------
class TestFaultInjection:
    def test_worker_killed_mid_request_fails_over_once(self, store_factory):
        """Slice 1's primary dies after reading the request; the router
        retries its replica exactly once and the answer is byte-equal."""
        store = store_factory()
        reference = ShardStore(store, cache_shards=16)
        with FleetHarness(store, n_slices=3,
                          scripted={1: drop_after_request}) as harness:
            target = harness.slices[1]
            vs = np.arange(target["src_lo"], target["src_hi"], 3)
            with harness.client() as c:
                routed = c.degrees(vs)
            assert np.array_equal(routed, reference.degrees(vs))
            channel = harness.channel(1)
            assert channel.failovers == 1
            # The channel stuck to the replica after failing over: a second
            # query must not pay the dead primary again.
            with harness.client() as c:
                assert np.array_equal(c.degrees(vs), reference.degrees(vs))
            assert channel.failovers == 1

    def test_worker_killed_mid_response_fails_over(self, store_factory):
        """Death *mid-frame* (desynchronized stream) is the same failover
        path as a clean close."""
        store = store_factory()
        reference = ShardStore(store, cache_shards=16)
        with FleetHarness(store, n_slices=3,
                          scripted={0: truncate_response}) as harness:
            lo, hi = 0, harness.slices[0]["src_hi"]
            with harness.client() as c:
                routed = c.edges_in_range(lo, hi, with_payload=True)
            assert np.array_equal(
                routed, reference.edges_in_range(lo, hi, with_payload=True))
            assert harness.channel(0).failovers == 1

    def test_pooled_connection_to_stopped_worker_fails_over(
            self, store_factory):
        """A worker stopped *between* requests: the router's pooled client
        hits a dead socket on the next call and fails over to the replica."""
        store = store_factory()
        reference = ShardStore(store, cache_shards=16)
        with FleetHarness(store, n_slices=2, replicas=2) as harness:
            vs = np.arange(0, reference.n_vertices, 9)
            with harness.client() as c:
                assert np.array_equal(c.degrees(vs),
                                      reference.degrees(vs))  # warm pools
                harness.kill(0, 0)
                assert np.array_equal(c.degrees(vs), reference.degrees(vs))
            assert harness.channel(0).failovers == 1

    def test_all_replicas_down_is_an_error_frame_not_a_disconnect(
            self, store_factory):
        """Every replica of one slice down: the router reports a clear
        error naming the worker and its range — and the client connection
        stays usable for queries the surviving slices can answer."""
        store = store_factory()
        reference = ShardStore(store, cache_shards=16)
        with FleetHarness(store, n_slices=3) as harness:
            dead = harness.slices[1]
            harness.kill(1, 0)
            with harness.client() as c:
                with pytest.raises(ServerError, match=(
                        rf"worker 1 \(sources \[{dead['src_lo']}, "
                        rf"{dead['src_hi']}\)\) is unavailable")):
                    c.degrees(np.arange(dead["src_lo"], dead["src_hi"], 5))
                # Same connection, different slice: still answered.
                vs = np.arange(0, dead["src_lo"], 4)
                assert np.array_equal(c.degrees(vs), reference.degrees(vs))
                assert c.connection_stats()["connects"] == 1

    def test_hung_worker_times_out_fails_over_and_never_blocks_the_loop(
            self, store_factory):
        """Slice 1's primary reads the request and never answers.  The
        routed call fails over once the harness timeout expires; while it
        waits, a request for slice 0 is answered (the router's loop is not
        blocked); the hung connection is closed, never reused; and with no
        live replica left behind the hung primary, the client gets the
        worker-naming error frame on a connection that stays open."""
        store = store_factory()
        reference = ShardStore(store, cache_shards=16)
        accepted, released = [], threading.Event()

        def hang(conn):
            accepted.append(conn)
            try:
                hang_after_request(conn)
            finally:
                released.set()  # the router closed the hung connection

        timeout = 1.0
        with FleetHarness(store, n_slices=2, scripted={1: hang},
                          timeout=timeout) as harness:
            channel = harness.channel(1)
            hung = np.arange(harness.slices[1]["src_lo"],
                             harness.slices[1]["src_hi"], 7)
            live = np.arange(0, harness.slices[0]["src_hi"], 7)
            with harness.client(timeout=30) as c, \
                    harness.client(timeout=30) as other, \
                    ThreadPoolExecutor(1) as pool:
                started = time.monotonic()
                waiting = pool.submit(c.degrees, hung)
                _wait_for(lambda: channel.calls)
                assert np.array_equal(other.degrees(live),
                                      reference.degrees(live))
                assert not waiting.done()
                assert time.monotonic() - started < timeout
                assert np.array_equal(waiting.result(timeout=30),
                                      reference.degrees(hung))
            assert time.monotonic() - started >= timeout
            assert channel.failovers == 1
            assert released.wait(10)
            assert len(accepted) == 1
            assert all(index == 1 for index, _ in channel._idle)

            # The replica dies too: the retry lands on the hung primary.
            harness.kill(1)
            primary = re.escape(channel.addresses[0])
            with harness.client(timeout=30) as c:
                with pytest.raises(ServerError, match=(
                        r"worker 1 \(sources .*\) is unavailable: .*; "
                        rf"retry on {primary} failed \(no answer from "
                        rf"{primary} within 1 s\)")):
                    c.degrees(hung)
                assert np.array_equal(c.degrees(live),
                                      reference.degrees(live))
                assert c.connection_stats()["connects"] == 1
            assert len(accepted) == 2

    def test_stop_cancels_a_routed_egonet_waiting_on_a_hung_worker(
            self, store_factory):
        """A routed egonet awaits its fleet calls on the router's loop.
        When it outlives the stop grace on a hung primary, stop() cancels
        its handler and with it the worker call, whose connection is
        closed: stop() returns and the router's thread ends without
        waiting out the channel timeout, and nothing fails over."""
        store = store_factory()
        with FleetHarness(store, n_slices=2, scripted={1: hang_after_request},
                          timeout=60.0) as harness:
            server = harness.router.server
            center = harness.slices[1]["src_lo"]
            with harness.client(timeout=30) as c, \
                    ThreadPoolExecutor(1) as pool:
                waiting = pool.submit(c.egonet, center)
                _wait_for(lambda: harness.channel(1).calls)
                asyncio.run_coroutine_threadsafe(
                    server.stop(grace_s=0.1), server._loop).result(timeout=20)
                with pytest.raises(ConnectionResetError):
                    waiting.result(timeout=20)  # its handler was cancelled
            harness.router._thread.join(timeout=20)
            assert not harness.router._thread.is_alive()
            assert harness.channel(1).failovers == 0

    def test_partial_fan_out_failure_is_clean(self, store_factory, caplog):
        """Every replica of slice 1 dead under a two-slice ``degrees``: the
        answer is the error frame naming worker 1, slice 0's call still
        completes and its connection goes back to the idle pool, and no
        task exception is left unretrieved nor a transport unclosed once
        the harness stops."""
        store = store_factory()
        gc.collect()  # earlier tests' garbage is not this test's
        with warnings.catch_warnings(record=True) as caught, \
                caplog.at_level(logging.ERROR, logger="asyncio"):
            warnings.simplefilter("always", ResourceWarning)
            with FleetHarness(store, n_slices=2) as harness:
                vs = [harness.slices[0]["src_lo"],
                      harness.slices[1]["src_lo"]]
                survivor = harness.channel(0)
                with harness.client() as c:
                    c.degrees(vs)  # one pooled connection per worker
                    pooled = list(survivor._idle)
                    harness.kill(1)
                    with pytest.raises(ServerError, match=(
                            r"worker 1 \(sources .*\) is unavailable")):
                        c.degrees(vs)
                    assert survivor.calls == 2
                    assert survivor._idle == pooled
            gc.collect()
        assert not [record for record in caplog.records
                    if "never retrieved" in record.getMessage()]
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)], caught


# ----------------------------------------------------------------------
# Observability: merged span trees, failover visibility, fleet-wide reset
# ----------------------------------------------------------------------
class TestFleetObservability:
    def test_routed_trace_spans_failed_and_failover_attempts(
            self, store_factory):
        """The acceptance scenario: a traced ``egonet`` against a 3-slice
        fleet whose slice-1 primary dies mid-request.  The ``trace`` op
        must return one tree — router op span, per-worker fan-out, worker
        serve spans — with the failed attempt and its successful failover
        retry as sibling ``fleet.worker_call`` spans under one trace id."""
        store = store_factory()
        reference = ShardStore(store, cache_shards=16)
        with FleetHarness(store, n_slices=3,
                          scripted={1: drop_after_request}) as harness:
            center = (harness.slices[1]["src_lo"]
                      + harness.slices[1]["src_hi"]) // 2
            recorder = TraceRecorder()
            with harness.client() as c:
                with trace.start_trace("acceptance", recorder) as t:
                    routed = c.egonet(center)
                spans = c.trace_spans(t.trace_id)
            assert np.array_equal(routed.vertices,
                                  reference.egonet(center).vertices)

            assert spans, "router returned no spans for the trace"
            assert {s["trace"] for s in spans} == {t.trace_id}
            by_name = {}
            for s in spans:
                by_name.setdefault(s["name"], []).append(s)
            # The router's own op span, parented under the client's span.
            (op_span,) = by_name["serve.egonet"]
            client_spans = {s["name"]: s for s in recorder.spans(t.trace_id)}
            assert op_span["parent"] == client_spans["client.egonet"]["span"]
            # Both slice-1 attempts: the dead primary as an error span, the
            # replica retry as its ok sibling marked failover.
            attempts = [s for s in by_name["fleet.worker_call"]
                        if s.get("worker") == 1]
            failed = [s for s in attempts if s["status"] == "error"]
            retried = [s for s in attempts if s.get("failover")]
            assert len(failed) == 1 and len(retried) == 1
            assert retried[0]["status"] == "ok"
            assert failed[0]["parent"] == retried[0]["parent"]  # siblings
            # Worker-side serve spans were merged in over the wire: the
            # fan-out's batch gathers parent under the router's
            # channel-client request spans, and their shard decodes under
            # them (``serve.hello``/``serve.egonet`` are router-recorded).
            channel_request_ids = {s["span"] for s in spans
                                   if s["name"].startswith("client.")}
            worker_serve = by_name.get("serve.edges_for_sources", [])
            assert worker_serve, "no worker spans were merged into the tree"
            assert all(s["parent"] in channel_request_ids
                       for s in worker_serve)
            worker_serve_ids = {s["span"] for s in worker_serve}
            assert any(s["parent"] in worker_serve_ids
                       for s in by_name.get("store.decode", []))

    def test_routed_metrics_exposes_fleet_series(self, fleet, client,
                                                 local_store):
        client.degrees(np.arange(0, local_store.n_vertices, 13))
        answer = client.metrics()
        counters = {(c["name"], c["labels"].get("worker")): c["value"]
                    for c in answer["metrics"]["counters"]}
        assert sum(counters[("fleet.worker_calls", str(w))]
                   for w in range(3)) >= 3
        assert 'fleet_worker_calls{worker="0"}' in answer["prometheus"]

    def test_routed_calls_stay_on_the_loop_and_warm_workers_inline(
            self, store_factory, local_store):
        """The router awaits every store call on its event loop — point
        and batch ops, egonet and subgraph with and without the payload —
        and its rollups there too, so the fleet starts no thread; each
        worker, warm on its slice, answers its store calls on its event
        loop without handing it back."""
        store = store_factory(target_shard_edges=3000)
        with FleetHarness(store, n_slices=3) as harness:
            with harness.client() as c:
                n = c.n_vertices
                c.edges_in_range(0, n)  # every worker decodes its slice
                c.reset_stats()
                logs = [logged_steps(worker.server.store)
                        for replicas in harness.workers
                        for worker in replicas]
                threads = threading.active_count()
                _routed_stream(c, local_store)
                stats = c.stats()
                assert threading.active_count() <= threads
        calls = [entry for log in logs for entry in log]
        assert len(calls) >= 6, calls
        assert all(yields == 0 for _, yields in calls), calls
        assert stats["store"]["shard_reads"] == 0
        assert "store_calls" not in stats["server"]

    def test_reset_stats_fans_out_fleet_wide(self, store_factory):
        store = store_factory()
        with FleetHarness(store, n_slices=3) as harness:
            with harness.client() as c:
                c.degrees(np.arange(0, 300, 5))
                assert c.stats()["server"]["requests"]["degrees"] == 1
                answer = c.reset_stats()
                assert answer == {"query": "reset_stats", "reset": True,
                                  "workers": 3}
                stats = c.stats()
                assert "degrees" not in stats["server"]["requests"]
                # Worker-side counters were reset over the wire too.
                assert stats["store"]["shard_reads"] == 0
                assert all(r["stats"]["server"]["requests"].get(
                    "degrees") is None for r in stats["workers"])


# ----------------------------------------------------------------------
# Flight recorder + profiler + health rollups (PR 10 acceptance)
# ----------------------------------------------------------------------
class TestFleetFlightRecorder:
    def test_failover_event_carries_the_trace_id(self, store_factory):
        """Acceptance: a forced failover during a routed *batch* query must
        surface on the router's ``events`` op as a ``fleet.failover``
        event stamped with that query's trace id.  (Scalar ops coalesce
        through the batch flush without a copied trace context by design,
        so the stamped path is the batch one.)"""
        store = store_factory()
        with FleetHarness(store, n_slices=3,
                          scripted={0: drop_after_request}) as harness:
            probe = harness.slices[0]["src_lo"]
            recorder = TraceRecorder()
            with harness.client() as c:
                with trace.start_trace("failover", recorder) as t:
                    c.degrees([probe, probe + 1])
                answer = c.events()
            assert answer["workers"] == 3
            events = answer["events"]
            deaths = [e for e in events
                      if e["kind"] == "fleet.replica_death"]
            assert deaths and deaths[0]["worker"] == 0
            failovers = [e for e in events if e["kind"] == "fleet.failover"]
            assert len(failovers) == 1
            event = failovers[0]
            assert event["trace"] == t.trace_id
            assert event["worker"] == 0
            assert (event["src_lo"], event["src_hi"]) == (
                harness.slices[0]["src_lo"], harness.slices[0]["src_hi"])
            assert event["from_address"] != event["to_address"]

    def test_merged_profile_is_the_sum_of_worker_profiles(
            self, store_factory, local_store):
        """Acceptance: after a fleet-wide profiler stop, the router's
        merged snapshot equals its own aggregate plus the per-worker
        aggregates read back directly from each worker."""
        from repro.obs import ProfileStats

        store = store_factory()
        with FleetHarness(store, n_slices=3) as harness:
            with harness.client() as c:
                started = c.profile("start", hz=500)
                assert started["running"] is True and started["workers"] == 3
                for lo in range(0, local_store.n_vertices, 40):
                    c.degrees(np.arange(lo, min(lo + 20,
                                                local_store.n_vertices)))
                answer = c.profile("stop")
                assert answer["running"] is False
            merged = ProfileStats.from_dict(answer["profile"])
            own = ProfileStats.from_dict(answer["router"])
            worker_sum = ProfileStats()
            for (worker,) in harness.workers:
                with QueryClient(worker.host, worker.port) as direct:
                    direct_answer = direct.profile()
                    assert direct_answer["running"] is False
                    worker_sum += ProfileStats.from_dict(
                        direct_answer["profile"])
            assert merged == own + worker_sum
            assert merged.samples >= own.samples

    def test_health_degraded_names_the_dead_worker(self, store_factory):
        """Acceptance: with one worker's only replica down, ``health``
        reports ``degraded`` naming the worker and its source range —
        while the rest of the fleet keeps serving."""
        store = store_factory()
        with FleetHarness(store, n_slices=3) as harness:
            harness.kill(2)
            with harness.client() as c:
                health = c.health()
                assert health["status"] == "degraded"
                assert health["fleet"] == {"workers": 3, "down": 1}
                (down,) = health["down"]
                assert down["worker"] == 2
                assert (down["src_lo"], down["src_hi"]) == (
                    harness.slices[2]["src_lo"],
                    harness.slices[2]["src_hi"])
                assert down["error"]
                reports = {r["worker"]: r for r in health["workers"]}
                assert reports[0]["ok"] and reports[1]["ok"]
                assert not reports[2]["ok"]
                # The healthy slices answer as if nothing happened.
                assert c.degree(harness.slices[0]["src_lo"]) >= 0

    def test_merged_answers_name_the_missing_worker(self, store_factory):
        """With one worker killed, the merged profile, events and trace
        answers each name it and its range in ``missing_workers`` (the
        shape of health's ``down`` entries), health answers degraded, and
        a fleet-wide reset fails rather than skip the dead worker."""
        store = store_factory()
        with FleetHarness(store, n_slices=3) as harness:
            dead = harness.slices[1]
            harness.kill(1)
            live = [harness.slices[0]["src_lo"], harness.slices[2]["src_lo"]]
            recorder = TraceRecorder()
            with harness.client() as c:
                with trace.start_trace("partial", recorder) as t:
                    c.degrees(live)
                answers = {"profile": c.profile(), "events": c.events(),
                           "trace": c.request("trace", {"id": t.trace_id})}
                health = c.health()
                with pytest.raises(ServerError, match="worker 1"):
                    c.reset_stats()
            listed = {op: answer["missing_workers"]
                      for op, answer in answers.items()}
            listed["health"] = health["down"]
            for op, entries in listed.items():
                (missing,) = entries
                assert missing.keys() == {"worker", "src_lo", "src_hi",
                                          "error"}, op
                assert (missing["worker"], missing["src_lo"],
                        missing["src_hi"]) == (1, dead["src_lo"],
                                               dead["src_hi"]), op
                assert "unavailable" in missing["error"], op
            assert health["status"] == "degraded"
            # The live workers' spans still merge into the tree.
            assert any(span["name"] == "serve.degrees"
                       for span in answers["trace"]["spans"])

    def test_healthy_fleet_reports_ok(self, fleet, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["fleet"] == {"workers": 3, "down": 0}
        assert health["down"] == []
        assert all(r.get("health", {}).get("status") == "ok"
                   for r in health["workers"])


# ----------------------------------------------------------------------
# In-process workers: the fleet `serve --fleet` builds (LocalFleet)
# ----------------------------------------------------------------------
def _local_fleet(store, **kwargs) -> ThreadedServer:
    """A :class:`LocalFleet` — router and slice workers on one loop, the
    workers called in process — on a background thread."""
    return ThreadedServer(store, server_cls=LocalFleet, **kwargs)


def _mapped(rows: np.ndarray) -> bool:
    """Whether *rows* is a view of a memory-mapped shard."""
    base = rows
    while isinstance(base, np.ndarray):
        base = base.base
    return isinstance(base, mmap.mmap)


class TestInProcessWorkers:
    @pytest.mark.usefixtures("mapped_shards")
    def test_router_only_reads_in_process_answer_arrays(self, store_factory,
                                                        local_store):
        """A single worker's ``edges_for_sources`` and ``edges_in_range``
        without the payload answer ``rows[:, :2]``: a read-only, strided
        view of its mapped shard rows, handed to the router as is.  The
        router only reads it: the routed answers are byte-equal and the
        worker's rows are unchanged."""
        store = store_factory()
        n = local_store.n_vertices
        v = next(u for u in range(n) if local_store.degree(u) > 2)
        with _local_fleet(store, n_slices=1) as handle:
            (worker,) = handle.server.workers
            dispatch, answers = worker.dispatch, []

            async def recorded(frame):
                response = await dispatch(frame)
                edges = response.get("result", {}).get("edges")
                if edges is not None:
                    answers.append((edges, edges.copy()))
                return response

            worker.dispatch = recorded
            with QueryClient(handle.host, handle.port) as c:
                routed = c.edges_for_sources([v])
                assert routed.dtype == np.int64
                assert np.array_equal(routed,
                                      local_store.edges_for_sources([v]))
                routed = c.edges_in_range(v, v + 3)
                assert routed.dtype == np.int64
                assert np.array_equal(routed,
                                      local_store.edges_in_range(v, v + 3))
        assert len(answers) == 2
        for edges, before in answers:
            assert edges.shape[1] == 2 and edges.shape[0] > 0
            assert not edges.flags.writeable
            assert not edges.flags.c_contiguous
            assert _mapped(edges)
            assert np.array_equal(edges, before)

    def test_rollups_keep_their_shape(self, store_factory, local_store):
        """Per-worker rollup answers arrive in process as the workers' live
        objects: the router's ``stats``, ``health`` and ``events`` answers
        have the key sets of a fleet reached over the wire, and reading a
        rollup twice changes no worker's own stats."""
        store = store_factory()
        vertices = np.arange(0, local_store.n_vertices, 7)

        def key_sets(c) -> dict:
            c.degrees(vertices)
            stats, health = c.stats(), c.health()
            report, checked = stats["workers"][0], health["workers"][0]
            return {
                "stats": set(stats), "fleet": set(stats["fleet"]),
                "slice": set(stats["fleet"]["slices"][0]),
                "store": set(stats["store"]),
                "stats report": set(report),
                "worker stats": set(report["stats"]),
                "worker server": set(report["stats"]["server"]),
                "worker store": set(report["stats"]["store"]),
                "health": set(health), "health report": set(checked),
                "worker health": set(checked["health"]),
                "events": set(c.events()),
            }

        with FleetHarness(store, n_slices=3) as harness:
            with harness.client() as c:
                over_the_wire = key_sets(c)
        with _local_fleet(store, n_slices=3) as handle:
            with QueryClient(handle.host, handle.port) as c:
                assert key_sets(c) == over_the_wire

                def own_stats() -> list:
                    """Each worker's stats, without the ``stats`` op's
                    own traffic and the clock."""
                    sections = []
                    for worker in handle.server.workers:
                        stats = worker.stats()
                        server = stats["server"]
                        del server["uptime_s"]
                        del server["requests"]["stats"]
                        del server["latency_us"]["stats"]
                        sections.append(stats)
                    return sections

                before = own_stats()
                first, second = c.stats(), c.stats()
                assert own_stats() == before
        assert [r["stats"]["store"] for r in first["workers"]] \
            == [r["stats"]["store"] for r in second["workers"]] \
            == [worker["store"] for worker in before]

    def test_fleet_store_calls_are_steps(self, store_factory):
        """The router drives its fleet's store calls as a server drives a
        shard store's: through the steps every backend yields.  Each
        primitive call takes one step — its fan-out, sent back the workers'
        answers — ``egonet`` two, ``subgraph`` one and an empty ``degrees``
        none, and every answer is byte-equal to the shard store's, dtype
        included."""
        store = store_factory()
        reference = ShardStore(store, cache_shards=16)
        n = reference.n_vertices
        rows = reference.edges_in_range(0, n)[::37]
        calls = [
            ("degrees", (np.arange(0, n, 5),), {}),
            ("degrees", (np.zeros(0, dtype=np.int64),), {}),
            ("edges_for_sources", (np.arange(0, n, 41),),
             {"with_payload": True}),
            ("edges_in_range", (n // 4, 3 * n // 4), {}),
            ("edge_payloads", (rows[:, 0], rows[:, 1]), {}),
            ("egonet_edges", (7,), {"with_payload": True}),
            ("subgraph_edges", (np.asarray([5, 3, n // 2, n - 1]),), {}),
        ]

        def assert_same(got, expected):
            if isinstance(expected, tuple):
                assert isinstance(got, tuple) and len(got) == len(expected)
                for part, want in zip(got, expected):
                    assert_same(part, want)
                return
            assert got.dtype == expected.dtype
            assert got.shape == expected.shape
            assert np.array_equal(got, expected)

        with _local_fleet(store, n_slices=3) as handle:
            router = handle.server.router
            log = logged_steps(router.store)
            for method, args, kwargs in calls:
                answer = asyncio.run_coroutine_threadsafe(
                    router._store_call(method, *args, **kwargs),
                    router.loop).result(timeout=30)
                assert_same(answer, getattr(reference, method)(*args,
                                                               **kwargs))
            with QueryClient(handle.host, handle.port) as c:
                # The coalesced flushes run the same steps.
                assert c.degree(7) == reference.degree(7)
                assert np.array_equal(c.neighbors(7), reference.neighbors(7))
        assert log == [["degrees", 1], ["degrees", 0],
                       ["edges_for_sources", 1], ["edges_in_range", 1],
                       ["edge_payloads", 1], ["egonet_edges", 2],
                       ["subgraph_edges", 1], ["degrees", 1],
                       ["edges_for_sources", 1]]

    def test_error_answers_are_reraised_in_process(self, store_factory):
        """A worker's store error travels back to the router as the
        error answer of its ordinary dispatch — counted in its
        ``serve.errors`` — and is re-raised verbatim, with no connection
        opened to any worker."""
        store = store_factory()
        reference = ShardStore(store, cache_shards=16)
        p = next(v for v in range(reference.n_vertices)
                 if reference.degree(v) > 0)
        stored = set(reference.neighbors(p).tolist())
        miss = next(q for q in range(reference.n_vertices)
                    if q != p and q not in stored)
        with _local_fleet(store, n_slices=2) as handle:
            with QueryClient(handle.host, handle.port) as c:
                for _ in range(3):
                    with pytest.raises(ValueError, match="not stored"):
                        c.edge_payloads([p], [miss])
                reports = c.stats()["workers"]
        owner = next(r for r in reports if r["src_lo"] <= p < r["src_hi"])
        assert owner["stats"]["server"]["errors"] == 3
        assert all(r["stats"]["server"]["connections_total"] == 0
                   for r in reports)

    def test_a_worker_on_another_loop_is_refused(self, store_factory):
        """A worker object is called in process only on the router's own
        loop: one served on another thread's loop makes the routed call
        fail with an internal error naming the worker."""
        store = store_factory()
        manifest = read_shard_manifest(store)
        with ThreadedServer(store) as worker:
            fleet = FleetStore(
                [{"src_lo": 0, "src_hi": int(manifest["n_vertices"]),
                  "addresses": [worker.server]}],
                fleet_info_from_manifest(manifest))
            with ThreadedServer(fleet, server_cls=RangeRouter) as router:
                with QueryClient(router.host, router.port) as c:
                    with pytest.raises(ServerError,
                                       match="worker 0 .*another loop"):
                        c.degrees([0])
            assert worker.server.stats()["server"]["requests"] == {}

    def test_an_in_process_worker_has_no_replicas(self, store_factory):
        """An in-process worker shares the router's process and loop, so
        no failover could reach a replica beside it."""
        store = store_factory()
        manifest = read_shard_manifest(store)
        with ThreadedServer(store) as server:
            with pytest.raises(ValueError, match="only replica"):
                FleetStore([{"src_lo": 0,
                             "src_hi": int(manifest["n_vertices"]),
                             "addresses": [server.server, server.address]}],
                           fleet_info_from_manifest(manifest))

    def test_a_slow_in_process_call_has_no_deadline(self, store_factory,
                                                     local_store,
                                                     monkeypatch):
        """A slow in-process worker call is still making progress on the
        router's own loop, so the channel's timeout does not cancel it and
        re-run it: a routed ``edges_in_range`` whose shard decodes outlast
        two timeouts answers byte-equal, with one worker call and one read
        per shard."""
        store = store_factory(target_shard_edges=380)
        manifest = read_shard_manifest(store)
        n, n_shards = int(manifest["n_vertices"]), len(manifest["shards"])
        timeout, decode_s = 0.2, 0.03
        assert n_shards * decode_s > 2 * timeout  # the retry expires too
        load = query_mod._load_shard_file

        def slow_load(*args, **kwargs):
            time.sleep(decode_s)
            return load(*args, **kwargs)

        monkeypatch.setattr(query_mod, "_load_shard_file", slow_load)

        async def routed():
            worker = ShardStoreServer(store, cache_shards=2)
            await worker.start()
            try:
                fleet = FleetStore(
                    [{"src_lo": 0, "src_hi": n, "addresses": [worker]}],
                    fleet_info_from_manifest(manifest), timeout=timeout)
                router = RangeRouter(fleet)
                await router.start()
                try:
                    response = await router.dispatch(protocol.request_frame(
                        "edges_in_range", {"lo": 0, "hi": n}))
                finally:
                    await router.stop()
                return response, fleet.describe(), worker.store.shard_reads
            finally:
                await worker.stop()

        response, described, shard_reads = asyncio.run(routed())
        assert response["ok"], response["error"]
        edges = response["result"]["edges"]
        expected = local_store.edges_in_range(0, n)
        assert edges.dtype == expected.dtype
        assert np.array_equal(edges, expected)
        assert described["slices"][0]["calls"] == 1
        assert described["slices"][0]["failovers"] == 0
        assert shard_reads == n_shards


class TestPayloadOnTopologyOnlyStore:
    """A payload request on a store without payload columns fails before
    it reads a shard or calls a worker — in process, served and routed —
    with the store's message."""

    @pytest.fixture(scope="class")
    def topology_store(self, product, tmp_path_factory):
        """A topology-only store of about a dozen shards."""
        tmp = tmp_path_factory.mktemp("topology")
        write_edge_shards(product, tmp / "spill", a_edges_per_block=16)
        total = read_shard_manifest(tmp / "spill")["total_edges"]
        compact_shards(tmp / "spill", tmp / "store",
                       target_shard_edges=total // 12 + 1)
        return tmp / "store"

    @staticmethod
    def _requests(n: int, v: int) -> list:
        """``(label, call(api))`` per payload request, against a
        :class:`ShardStore` or a :class:`QueryClient`."""
        everyone = np.arange(n)
        return [
            ("edges_in_range",
             lambda api: api.edges_in_range(0, n, with_payload=True)),
            ("edges_for_sources",
             lambda api: api.edges_for_sources(everyone, with_payload=True)),
            ("subgraph",
             lambda api: api.subgraph(everyone[::3], with_payload=True)),
            ("egonet", lambda api: api.egonet(v, with_payload=True)),
        ]

    def test_payload_request_reads_no_shard(self, topology_store):
        store = ShardStore(topology_store, cache_shards=2)
        assert store.payload_columns == () and store.n_shards >= 10
        n = store.n_vertices
        v = next(u for u in range(n) if store.degree(u) > 2)
        store.clear_cache()
        message = (f"{topology_store}: store carries no payload columns "
                   "(manifest payload_columns is ['src', 'dst']); re-stream "
                   "the spill with payload columns to serve per-edge "
                   "ground truth")

        def counters(stats: dict) -> tuple:
            return stats["shard_reads"], stats["evictions"]

        for label, request in self._requests(n, v) + [
                ("subgraph_edges", lambda api: api.subgraph_edges(
                    np.arange(n), with_payload=True)),
                ("egonet_edges", lambda api: api.egonet_edges(
                    v, with_payload=True))]:
            before = counters(store.stats())
            with pytest.raises(ValueError) as raised:
                request(store)
            assert str(raised.value) == message, label
            assert counters(store.stats()) == before, label

        with ThreadedServer(topology_store, cache_shards=2) as served:
            with QueryClient(served.host, served.port) as c:
                for label, request in self._requests(n, v) + [
                        ("neighbors", lambda api: api.neighbors_with_payload(
                            v))]:
                    before = counters(served.server.stats()["store"])
                    with pytest.raises(ValueError) as raised:
                        request(c)
                    assert str(raised.value) == message, label
                    assert counters(served.server.stats()["store"]) \
                        == before, label

        with _local_fleet(topology_store, n_slices=2,
                          cache_shards=2) as handle:
            fleet = handle.server.router.fleet

            def routed() -> list:
                return ([s["calls"] for s in fleet.describe()["slices"]],
                        [counters(w.store.stats())
                         for w in handle.server.workers])

            with QueryClient(handle.host, handle.port) as c:
                for label, request in self._requests(n, v) + [
                        ("neighbors", lambda api: api.neighbors_with_payload(
                            v))]:
                    before = routed()
                    with pytest.raises(ValueError,
                                       match="store carries no payload "
                                             "columns"):
                        request(c)
                    assert routed() == before, label


# ----------------------------------------------------------------------
# CLI: serve --fleet and query --connect routing transparency
# ----------------------------------------------------------------------
class TestFleetCLI:
    def test_query_connect_routes_transparently(self, fleet, store_dir,
                                                capsys):
        from repro import cli
        for flags in (["--degree", "37"],
                      ["--neighbors", "37", "--payload"],
                      ["--egonet", "37", "--payload"],
                      ["--range", "0", "300", "--limit", "5"]):
            assert cli.main(["query", str(store_dir), "--json", *flags]) == 0
            local = json.loads(capsys.readouterr().out)
            assert cli.main(["query", "--connect", fleet.address,
                             "--json", *flags]) == 0
            routed = json.loads(capsys.readouterr().out)
            # Cache counters legitimately differ (fleet rollup vs local
            # store); every query-answer key must be identical.
            local.pop("store")
            routed.pop("store")
            assert local == routed

    def test_health_cli_exit_code_tracks_degradation(self, store_factory,
                                                     capsys):
        from repro import cli
        store = store_factory()
        with FleetHarness(store, n_slices=3) as harness:
            assert cli.main(["health", "--connect", harness.address]) == 0
            assert f"{harness.address}: ok" in capsys.readouterr().out
            harness.kill(1)
            assert cli.main(["health", "--connect", harness.address]) == 1
            out = capsys.readouterr().out
            assert "degraded" in out
            assert "worker 1" in out and "DOWN" in out

    def test_serve_fleet_subcommand_end_to_end(self, store_dir, local_store):
        """`repro-kron serve --fleet 2` in a real subprocess: partitions,
        spawns the slice workers, fronts them with the router, answers
        routed queries — a cold scan behind 2-shard LRUs on the process's
        threads it started with — and shuts down gracefully with the fleet
        summary.  The router calls its workers in process: no worker ever
        accepts a connection, a traced routed request keeps its span
        chain, and the fleet profile samples the process once."""
        env = dict(os.environ)
        src = str((
            __import__("pathlib").Path(__file__).resolve().parent.parent
            / "src"))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-u", "-c",
             "from repro.cli import main; import sys; "
             "sys.exit(main(sys.argv[1:]))",
             "serve", str(store_dir), "--port", "0", "--fleet", "2",
             "--cache", "2"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        try:
            banner = process.stdout.readline()
            match = re.search(r"on 127\.0\.0\.1:(\d+)", banner)
            assert match, banner
            assert "fleet of 2" in banner
            with QueryClient("127.0.0.1", int(match.group(1))) as c:
                assert c.hello()["fleet"]["workers"] == 2
                # Router and workers serve every call, a cold scan's
                # included, on the one loop thread: none is started.
                tasks = Path(f"/proc/{process.pid}/task")
                threads = len(list(tasks.iterdir()))
                n = local_store.n_vertices
                assert np.array_equal(c.degrees(np.arange(n)),
                                      local_store.degrees(np.arange(n)))
                assert np.array_equal(c.edges_in_range(0, n),
                                      local_store.edges_in_range(0, n))
                assert c.stats()["store"]["evictions"] > 0
                assert len(list(tasks.iterdir())) == threads
                c.profile("start", hz=200)
                # One sampler sees the whole process: the router's.
                assert len(list(tasks.iterdir())) == threads + 1
                _routed_stream(c, local_store)
                time.sleep(0.1)
                # Router and workers serve on the one loop thread, and it
                # samples as the event loop.
                profile = c.profile("stop")
                stacks = profile["profile"]["stacks"]
                assert "event_loop" in stacks and "main" not in stacks, \
                    sorted(stacks)
                assert profile["profile"]["samples"] \
                    == profile["router"]["samples"] > 0
                assert profile["missing_workers"] == []
                # The workers are called in process, never connected to.
                reports = c.stats()["workers"]
                assert [r["stats"]["server"]["connections_total"]
                        for r in reports] == [0, 0]
                assert all(r["stats"]["server"]["requests"]["degrees"]
                           for r in reports)
                # The span chain of a routed request over the wire:
                # router op -> worker call -> client leaf -> worker op.
                recorder = TraceRecorder()
                with trace.start_trace("in-process", recorder) as t:
                    c.degrees([0, n - 1])
                spans = c.trace_spans(t.trace_id)
                (client_span,) = [s for s in recorder.spans(t.trace_id)
                                  if s["name"] == "client.degrees"]
                children = {}
                for span in spans:
                    children.setdefault(span["parent"], []).append(span)
                (routed,) = children[client_span["span"]]
                assert routed["name"] == "serve.degrees"
                calls = children[routed["span"]]
                assert {s["name"] for s in calls} == {"fleet.worker_call"}
                assert sorted(s["worker"] for s in calls) == [0, 1]
                for call in calls:
                    (leaf,) = children[call["span"]]
                    assert leaf["name"] == "client.degrees"
                    (served,) = children[leaf["span"]]
                    assert served["name"] == "serve.degrees"
                c.shutdown_server()
            stdout, stderr = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, stderr
        assert "served" in stdout and "2 workers" in stdout

    def test_serve_fleet_has_no_replicas(self, store_dir, capsys):
        """In-process workers have no replicas: ``--replicas`` is not an
        option of ``serve``."""
        from repro import cli
        with pytest.raises(SystemExit) as exited:
            cli.main(["serve", str(store_dir), "--fleet", "2",
                      "--replicas", "2"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --replicas 2" \
            in capsys.readouterr().err
