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
* the no-replica-left path — with every replica of a slice down, the
  router answers with a clear error *frame* naming the worker and its
  range, and the client's connection stays usable for other slices;
* observability — a traced routed query yields one merged span tree
  (router op → per-worker attempts → worker serve spans), a forced
  failover shows the failed attempt and its retry as sibling
  ``fleet.worker_call`` spans under the same trace id, and
  ``reset_stats`` fans out to every worker.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest

from _fleet_harness import (
    FleetHarness,
    drop_after_request,
    truncate_response,
)
from repro import generators
from repro.core import KroneckerGraph
from repro.graphs import NpyShardSink
from repro.graphs.io import read_shard_manifest
from repro.obs import TraceRecorder, trace
from repro.parallel import distributed_generate
from repro.serve import QueryClient, ServerError
from repro.store import ShardStore, compact_shards

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
        routed queries, and shuts down gracefully with the fleet summary."""
        env = dict(os.environ)
        src = str((
            __import__("pathlib").Path(__file__).resolve().parent.parent
            / "src"))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-u", "-c",
             "from repro.cli import main; import sys; "
             "sys.exit(main(sys.argv[1:]))",
             "serve", str(store_dir), "--port", "0", "--fleet", "2"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        try:
            banner = process.stdout.readline()
            match = re.search(r"on 127\.0\.0\.1:(\d+)", banner)
            assert match, banner
            assert "fleet of 2" in banner
            with QueryClient("127.0.0.1", int(match.group(1))) as c:
                assert c.hello()["fleet"]["workers"] == 2
                assert c.degree(37) == local_store.degree(37)
                vs = np.arange(0, local_store.n_vertices, 17)
                assert np.array_equal(c.degrees(vs), local_store.degrees(vs))
                c.shutdown_server()
            stdout, stderr = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, stderr
        assert "served" in stdout and "2 workers" in stdout
