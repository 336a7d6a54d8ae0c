"""Tests for the PR 10 observability surface: the sampling profiler, the
flight-recorder event log, and the served ``profile`` / ``events`` /
``health`` ops.

Unit halves first (:class:`~repro.obs.EventLog` ring-buffer semantics,
:class:`~repro.obs.ProfileStats` accumulator algebra,
:class:`~repro.obs.SamplingProfiler` lifecycle), then the wire surface on
a real :class:`~repro.serve.ThreadedServer` (additive ops, no protocol
bump), and finally a 16-thread churn test that doubles as lock-discipline
coverage for the two new ``obs.*`` lock classes under the session-wide
lock-order sanitizer.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import generators
from repro.core import KroneckerGraph
from repro.graphs import NpyShardSink
from repro.lint.runtime import CheckedLock
from repro.obs import (
    EventLog,
    ProfileStats,
    SamplingProfiler,
    TraceRecorder,
    merge_events,
    trace,
)
from repro.obs.events import KNOWN_EVENT_KINDS
from repro.obs.profile import (
    EXTERNAL_STACK,
    OVERFLOW_STACK,
    thread_role,
)
from repro.parallel import distributed_generate
from repro.serve import QueryClient, ServerError, ThreadedServer
from repro.store import ShardStore, compact_shards


# ----------------------------------------------------------------------
# EventLog
# ----------------------------------------------------------------------
class TestEventLog:
    def test_emit_records_kind_timestamp_and_attrs(self):
        log = EventLog()
        record = log.emit("serve.slow_request", op="degree", elapsed_us=7)
        assert record["kind"] == "serve.slow_request"
        assert record["op"] == "degree"
        assert record["elapsed_us"] == 7
        assert record["seq"] == 1
        assert record["ts_us"] > 0
        assert "trace" not in record  # no active trace context

    def test_ring_buffer_drops_oldest_and_counts(self):
        log = EventLog(max_events=3)
        for index in range(5):
            log.emit("serve.slow_request", index=index)
        assert len(log) == 3
        assert log.dropped == 2
        assert [event["index"] for event in log.tail()] == [2, 3, 4]
        # seq keeps counting across drops: the timeline stays unambiguous.
        assert [event["seq"] for event in log.tail()] == [3, 4, 5]

    def test_tail_limit_and_kind_filter(self):
        log = EventLog()
        log.emit("fleet.failover", worker=0)
        log.emit("serve.slow_request", op="degree")
        log.emit("fleet.failover", worker=1)
        failovers = log.tail(kind="fleet.failover")
        assert [event["worker"] for event in failovers] == [0, 1]
        assert [event["worker"] for event in log.tail(1, kind="fleet.failover")] \
            == [1]
        assert log.tail(0) == []

    def test_tail_returns_copies(self):
        log = EventLog()
        log.emit("serve.shutdown")
        log.tail()[0]["kind"] = "mutated"
        assert log.tail()[0]["kind"] == "serve.shutdown"

    def test_clear_zeroes_drops_but_not_seq(self):
        log = EventLog(max_events=1)
        log.emit("serve.shutdown")
        log.emit("serve.shutdown")
        assert log.dropped == 1
        log.clear()
        assert len(log) == 0 and log.dropped == 0
        assert log.emit("serve.shutdown")["seq"] == 3

    def test_active_trace_is_stamped_automatically(self):
        log = EventLog()
        recorder = TraceRecorder()
        with trace.start_trace("t", recorder) as handle:
            record = log.emit("fleet.failover", worker=2)
        assert record["trace"] == handle.trace_id
        # An explicit id wins (the slow-request hook fires after its span
        # has already exited).
        assert log.emit("serve.slow_request",
                        trace_id="feed01")["trace"] == "feed01"

    def test_max_events_validated(self):
        with pytest.raises(ValueError, match="max_events"):
            EventLog(max_events=0)

    def test_merge_events_interleaves_by_wall_clock_then_seq(self):
        router = [{"ts_us": 10, "seq": 1, "kind": "fleet.failover"},
                  {"ts_us": 30, "seq": 2, "kind": "serve.shutdown"}]
        worker = [{"ts_us": 20, "seq": 1, "kind": "serve.internal_error"},
                  {"ts_us": 10, "seq": 2, "kind": "serve.slow_request"}]
        merged = merge_events([router, worker])
        assert [event["ts_us"] for event in merged] == [10, 10, 20, 30]
        # Same microsecond: per-log sequence breaks the tie.
        assert [event["seq"] for event in merged[:2]] == [1, 2]
        assert [event["kind"] for event in merge_events([router, worker],
                                                        limit=1)] == \
            ["serve.shutdown"]

    def test_known_kinds_are_dotted(self):
        assert all("." in kind for kind in KNOWN_EVENT_KINDS)


# ----------------------------------------------------------------------
# ProfileStats
# ----------------------------------------------------------------------
class TestProfileStats:
    def test_record_and_overflow_fold(self):
        stats = ProfileStats()
        stats.record("event_loop", "a;b")
        stats.record("event_loop", "a;b")
        stats.record("event_loop", "c", max_stacks=1)
        assert stats.stacks["event_loop"] == {"a;b": 2, OVERFLOW_STACK: 1}

    def test_add_merges_roles_and_counts(self):
        a = ProfileStats(2, {"main": {"x": 2}})
        b = ProfileStats(3, {"main": {"x": 1, "y": 4}, "writer": {"z": 1}})
        merged = a + b
        assert merged.samples == 5
        assert merged.stacks == {"main": {"x": 3, "y": 4}, "writer": {"z": 1}}
        # Value semantics: the operands are untouched.
        assert a.stacks == {"main": {"x": 2}}

    def test_sum_builtin_merges_a_fleet(self):
        parts = [ProfileStats(1, {"main": {"x": 1}}) for _ in range(3)]
        assert sum(parts, ProfileStats()) == \
            ProfileStats(3, {"main": {"x": 3}})
        assert sum(parts) == ProfileStats(3, {"main": {"x": 3}})  # radd(0)

    def test_dict_round_trip(self):
        stats = ProfileStats(4, {"event_loop": {"s": 4}})
        assert ProfileStats.from_dict(stats.as_dict()) == stats

    def test_collapsed_emits_rooted_folded_lines(self):
        stats = ProfileStats(3, {"event_loop": {"m:f;m:g": 2},
                                 "main": {EXTERNAL_STACK: 1}})
        assert stats.collapsed() == ("event_loop;m:f;m:g 2\n"
                                     f"main;{EXTERNAL_STACK} 1\n")
        assert ProfileStats().collapsed() == ""

    def test_thread_role_classification(self):
        assert thread_role("shard-serve") == "event_loop"
        assert thread_role("shard-decode_0") == "other"  # no decode pool
        assert thread_role("repro-profiler") == "profiler"
        assert thread_role("MainThread") == "main"
        assert thread_role("ThreadPoolExecutor-9_0") == "other"


# ----------------------------------------------------------------------
# SamplingProfiler
# ----------------------------------------------------------------------
class TestSamplingProfiler:
    def test_samples_accumulate_and_stop_freezes(self):
        profiler = SamplingProfiler(hz=500)
        assert profiler.start() is True
        assert profiler.start() is False  # idempotent while running
        deadline = time.monotonic() + 2.0
        while (profiler.snapshot().samples < 3
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert profiler.stop() is True
        assert profiler.stop() is False
        frozen = profiler.snapshot()
        assert frozen.samples >= 3
        assert "main" in frozen.stacks
        time.sleep(0.02)
        assert profiler.snapshot() == frozen  # aggregate no longer changes

    def test_aggregate_survives_runs_until_reset(self):
        profiler = SamplingProfiler(hz=500)
        with profiler:
            time.sleep(0.02)
        first = profiler.snapshot().samples
        with profiler:
            time.sleep(0.02)
        assert profiler.snapshot().samples >= first
        profiler.reset()
        assert profiler.snapshot() == ProfileStats()

    def test_hz_validated(self):
        with pytest.raises(ValueError, match="hz"):
            SamplingProfiler(hz=0)
        with pytest.raises(ValueError, match="hz"):
            SamplingProfiler().start(hz=-1)


# ----------------------------------------------------------------------
# The served surface
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    factor_a = generators.webgraph_like(30, edges_per_vertex=3,
                                        triad_probability=0.6, seed=3)
    factor_b = generators.triangle_constrained_pa(10, seed=13)
    product = KroneckerGraph(factor_a, factor_b)
    tmp = tmp_path_factory.mktemp("profile-store")
    sink = NpyShardSink(tmp / "spill", name=product.name,
                        n_vertices=product.n_vertices)
    distributed_generate(factor_a, factor_b, 2, streaming=True,
                         a_edges_per_block=16, sink=sink)
    compact_shards(tmp / "spill", tmp / "store", target_shard_edges=2000)
    return tmp / "store"


class TestServedProfile:
    def test_profile_lifecycle_over_the_wire(self, store_dir):
        with ThreadedServer(store_dir) as handle, \
                QueryClient(handle.host, handle.port) as client:
            answer = client.profile("start", hz=500)
            assert answer["running"] is True and answer["hz"] == 500
            deadline = time.monotonic() + 2.0
            while (client.profile()["profile"]["samples"] < 3
                   and time.monotonic() < deadline):
                client.degree(5)
            stopped = client.profile("stop", collapsed=True)
            assert stopped["running"] is False
            profile = stopped["profile"]
            assert profile["samples"] >= 3
            # The asyncio serve thread is always on a sampled stack.
            assert "event_loop" in profile["stacks"]
            # collapsed text is derived from the same aggregate.
            assert stopped["collapsed"] == \
                ProfileStats.from_dict(profile).collapsed()
            assert client.profile("reset")["profile"]["samples"] == 0

    def test_profile_rejects_bad_action_and_hz(self, store_dir):
        with ThreadedServer(store_dir) as handle, \
                QueryClient(handle.host, handle.port) as client:
            with pytest.raises(ValueError, match="action"):
                client.profile("flamegraph")
            with pytest.raises(ValueError, match="hz"):
                client.request("profile", {"action": "start", "hz": "fast"})

    def test_hello_reports_lifetime(self, store_dir):
        before = time.time()
        with ThreadedServer(store_dir) as handle, \
                QueryClient(handle.host, handle.port) as client:
            hello = client.hello()
            assert before - 1 <= hello["started_at"] <= time.time() + 1
            assert 0 <= hello["uptime_s"] < 60


class TestServedEvents:
    def test_slow_request_event_carries_the_trace_id(self, store_dir):
        recorder = TraceRecorder()
        with ThreadedServer(store_dir, slow_query_us=0) as handle, \
                QueryClient(handle.host, handle.port) as client:
            with trace.start_trace("lookup", recorder) as t:
                client.degree(5)
            events = client.events(kind="serve.slow_request")["events"]
            assert events, "slow_query_us=0 must flag every request"
            traced = [e for e in events if e.get("trace") == t.trace_id]
            assert traced and traced[0]["op"] == "degree"
            assert traced[0]["ok"] is True
            assert client.stats()["server"]["slow_queries"] >= 1

    def test_internal_fault_is_counted_and_recorded(self, store_dir,
                                                    monkeypatch):
        """A fault inside the server (here the shard decode raising
        ``SystemError``) counts in ``errors`` and ``internal_errors`` and
        leaves one ``serve.internal_error`` event naming the real class,
        the op and the request's trace id; a client error (a bad vertex id)
        counts in ``errors`` only."""
        import repro.store.query as query_mod

        def broken_decode(*args, **kwargs):
            raise SystemError("AST constructor recursion depth mismatch")

        recorder = TraceRecorder()
        with ThreadedServer(store_dir) as handle, \
                QueryClient(handle.host, handle.port) as client:
            with pytest.raises(IndexError):
                client.degrees([10 ** 9])
            served = client.stats()["server"]
            assert (served["errors"], served["internal_errors"]) == (1, 0)
            assert client.events(kind="serve.internal_error")["events"] == []
            monkeypatch.setattr(query_mod, "_load_shard_file", broken_decode)
            with trace.start_trace("lookup", recorder) as t:
                with pytest.raises(ServerError, match="InternalError"):
                    client.degrees([5])
            served = client.stats()["server"]
            assert (served["errors"], served["internal_errors"]) == (2, 1)
            events = client.events(kind="serve.internal_error")["events"]
            assert len(events) == 1
            assert events[0]["trace"] == t.trace_id
            assert events[0]["op"] == "degrees"
            assert events[0]["error"] == "SystemError"
            assert events[0]["message"] == "AST constructor recursion depth mismatch"

    def test_evictions_are_counted_not_recorded(self, store_dir):
        store = ShardStore(store_dir, cache_shards=1)
        assert store.n_shards >= 2
        with ThreadedServer(store) as handle, \
                QueryClient(handle.host, handle.port) as client:
            # Touch every shard with a 1-deep LRU: evictions guaranteed.
            client.edges_in_range(0, store.n_vertices)
            client.degree(5)
            counters = client.stats()["store"]
            assert counters["evictions"] > 0
            assert counters["evictions"] == (counters["shard_reads"]
                                             - counters["cached_shards"])
            assert (f"store_evictions {counters['evictions']}"
                    in client.metrics()["prometheus"].splitlines())
            assert not [event for event in client.events()["events"]
                        if event["kind"].startswith("store.")]

    def test_internal_error_event_survives_cold_traffic(self, store_dir,
                                                        monkeypatch):
        """The flight recorder keeps a fault's event through heavy cold
        traffic: 600 requests that each decode a shard and evict another
        leave the earlier ``serve.internal_error`` in the 512-event ring."""
        import repro.store.query as query_mod

        def broken_decode(*args, **kwargs):
            raise SystemError("decoder fault")

        store = ShardStore(store_dir, cache_shards=1)
        assert store.n_shards >= 2
        last = store.n_vertices - 1
        with ThreadedServer(store) as handle, \
                QueryClient(handle.host, handle.port) as client:
            real_decode = query_mod._load_shard_file
            monkeypatch.setattr(query_mod, "_load_shard_file", broken_decode)
            with pytest.raises(ServerError, match="InternalError"):
                client.degrees([5])
            monkeypatch.setattr(query_mod, "_load_shard_file", real_decode)
            for index in range(600):
                lo = 0 if index % 2 else last
                client.edges_in_range(lo, lo + 1)
            events = client.events(kind="serve.internal_error")["events"]
            assert [event["message"] for event in events] == ["decoder fault"]
            assert client.stats()["store"]["evictions"] >= 599

    def test_events_limit_and_dropped_surface(self, store_dir):
        with ThreadedServer(store_dir, slow_query_us=0) as handle, \
                QueryClient(handle.host, handle.port) as client:
            for vertex in range(5):
                client.degree(vertex)
            answer = client.events(limit=2)
            assert answer["n_events"] == 2 and len(answer["events"]) == 2
            assert answer["dropped"] == 0

    def test_shutdown_records_a_final_event(self, store_dir):
        handle = ThreadedServer(store_dir).start()
        try:
            with QueryClient(handle.host, handle.port) as client:
                client.degree(5)
        finally:
            handle.stop()
        shutdown = handle.server.events.tail(kind="serve.shutdown")
        assert len(shutdown) == 1
        assert shutdown[0]["uptime_s"] >= 0

    def test_health_reports_liveness(self, store_dir):
        with ThreadedServer(store_dir) as handle, \
                QueryClient(handle.host, handle.port) as client:
            client.profile("start", hz=500)
            health = client.health()
            assert health["status"] == "ok"
            assert health["uptime_s"] >= 0
            assert health["profiler"]["running"] is True
            assert health["profiler"]["hz"] == 500
            assert health["events"]["max_events"] > 0
            assert health["connections_open"] >= 1
            assert "workers" not in health  # single server, no fleet


# ----------------------------------------------------------------------
# Lock discipline under churn (the sanitizer is installed suite-wide)
# ----------------------------------------------------------------------
class TestChurn:
    N_THREADS = 16

    def test_profiler_and_events_survive_16_thread_churn(self, store_dir):
        store = ShardStore(store_dir, cache_shards=1)
        events = EventLog()
        # The new obs.* locks go through new_lock(): the session sanitizer
        # wraps them, so this churn is also a lock-order proof.
        assert isinstance(events._lock, CheckedLock)
        profiler = SamplingProfiler(hz=500)
        assert isinstance(profiler._lock, CheckedLock)
        errors = []
        start = threading.Barrier(self.N_THREADS)

        def churn(seed):
            try:
                start.wait()
                for round_index in range(20):
                    store.degree((seed * 31 + round_index) % store.n_vertices)
                    events.emit("serve.slow_request", op="degree",
                                thread=seed, round=round_index)
                    if round_index % 5 == 0:
                        profiler.snapshot()
                        events.tail(3)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        with profiler:
            threads = [threading.Thread(target=churn, args=(index,),
                                        name=f"churn-{index}")
                       for index in range(self.N_THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert errors == []
        assert len(events) >= 1
        assert profiler.snapshot().samples >= 0
        # The churn evicted (counted under store.lru → obs.instrument, the
        # documented order the session sanitizer checks).
        assert store.stats()["evictions"] > 0
