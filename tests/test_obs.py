"""Unit tests for :mod:`repro.obs` plus the served observability surface.

Covers the metrics registry (counters / gauges / histograms, labels, name
validation, percentiles, snapshot/reset), Prometheus-text rendering — with a
round-trip check that the rendered numbers equal the snapshot's — the span
recorder / context plumbing in :mod:`repro.obs.trace`, and the server-side
``metrics`` / ``trace`` / ``reset_stats`` ops.
"""

from __future__ import annotations

import asyncio
import re

import numpy as np
import pytest

from repro import generators
from repro.core import KroneckerGraph
from repro.graphs import NpyShardSink
from repro.obs import (
    MetricsError,
    MetricsRegistry,
    TraceRecorder,
    render_prometheus,
    trace,
)
from repro.parallel import distributed_generate
from repro.serve import QueryClient, ThreadedServer, protocol
from repro.store import compact_shards


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("test.requests")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_same_series_is_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("test.hits", op="degree")
        b = registry.counter("test.hits", op="degree")
        assert a is b

    def test_label_sets_are_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("test.hits", op="degree").inc()
        registry.counter("test.hits", op="egonet").inc(2)
        values = {tuple(sorted(entry["labels"].items())): entry["value"]
                  for entry in registry.snapshot()["counters"]}
        assert values[(("op", "degree"),)] == 1
        assert values[(("op", "egonet"),)] == 2

    @pytest.mark.parametrize("bad", ["flat", "Bad.Name", "x.9start", "a..b"])
    def test_names_must_be_dotted_snake_case(self, bad):
        with pytest.raises(MetricsError):
            MetricsRegistry().counter(bad)

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("test.metric")
        with pytest.raises(MetricsError):
            registry.gauge("test.metric")

    def test_gauge_set_and_watermark(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("test.batch_max")
        gauge.set_max(4)
        gauge.set_max(2)
        assert gauge.read() == 4
        gauge.set(1)
        assert gauge.read() == 1

    def test_callback_gauge_reads_live_and_rejects_set(self):
        registry = MetricsRegistry()
        state = {"n": 3}
        gauge = registry.gauge("test.occupancy", fn=lambda: state["n"])
        assert gauge.read() == 3
        state["n"] = 7
        assert gauge.read() == 7
        with pytest.raises(MetricsError):
            gauge.set(1)

    def test_histogram_percentiles_clamp_to_observed_max(self):
        registry = MetricsRegistry()
        bounds = tuple(range(10, 101, 10))
        hist = registry.histogram("test.latency", bounds, unit="us")
        for value in range(1, 101):
            hist.record(value)
        summary = hist.summary()
        # Rank-50 lands in the <=50 bucket; rank 95 and 99 in <=100.
        assert summary["p50_us"] == 50
        assert summary["p95_us"] == 100
        assert summary["p99_us"] == 100
        # A lone small sample is clamped to the observed max, not the
        # bucket's upper bound.
        lone = registry.histogram("test.lone", bounds, unit="us")
        lone.record(3)
        assert lone.summary()["p99_us"] == 3

    def test_histogram_overflow_bucket_percentile_is_max(self):
        registry = MetricsRegistry()
        hist = registry.histogram("test.latency", (10, 20), unit="us")
        hist.record(500)
        summary = hist.summary()
        assert summary["p99_us"] == 500
        assert summary["buckets"][">20us"] == 1

    def test_histogram_summary_keeps_legacy_wire_keys(self):
        registry = MetricsRegistry()
        hist = registry.histogram("test.latency", (100, 500), unit="us")
        hist.record(40)
        hist.record(60)
        summary = hist.summary()
        assert summary["count"] == 2
        assert summary["mean_us"] == 50.0
        assert summary["max_us"] == 60
        assert set(summary["buckets"]) == {"<=100us", "<=500us", ">500us"}

    def test_histogram_timer_records_elapsed(self):
        registry = MetricsRegistry()
        hist = registry.histogram("test.latency", (10**9,), unit="us")
        with hist.time() as timer:
            pass
        assert hist.count == 1
        assert timer.elapsed_us >= 0

    def test_reset_zeroes_everything_but_callback_gauges(self):
        registry = MetricsRegistry()
        registry.counter("test.n").inc(9)
        registry.gauge("test.level").set(5)
        registry.gauge("test.live", fn=lambda: 42)
        registry.histogram("test.h", (10,)).record(1)
        registry.reset()
        snapshot = registry.snapshot()
        assert snapshot["counters"][0]["value"] == 0
        gauges = {g["name"]: g["value"] for g in snapshot["gauges"]}
        assert gauges["test.level"] == 0
        assert gauges["test.live"] == 42
        assert snapshot["histograms"][0]["count"] == 0


# ----------------------------------------------------------------------
# Prometheus rendering
# ----------------------------------------------------------------------
def _parse_prometheus(text: str) -> dict:
    """``{(mangled_name, label_string): float_value}`` for every sample."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = re.fullmatch(r"([a-z0-9_]+)(?:\{(.*)\})? (.+)", line)
        assert match, f"unparseable exposition line: {line!r}"
        samples[(match.group(1), match.group(2) or "")] = float(match.group(3))
    return samples


class TestPrometheus:
    def test_round_trips_snapshot_numbers(self):
        registry = MetricsRegistry()
        registry.counter("test.requests", op="degree").inc(7)
        registry.gauge("test.open").set(3)
        hist = registry.histogram("test.latency", (10, 100), unit="us")
        for value in (5, 50, 5000):
            hist.record(value)
        snapshot = registry.snapshot()
        samples = _parse_prometheus(render_prometheus(snapshot))
        assert samples[("test_requests", 'op="degree"')] == 7
        assert samples[("test_open", "")] == 3
        # Cumulative buckets, +Inf == _count, and _sum — all equal to the
        # snapshot's numbers.
        assert samples[("test_latency_bucket", 'le="10"')] == 1
        assert samples[("test_latency_bucket", 'le="100"')] == 2
        assert samples[("test_latency_bucket", 'le="+Inf"')] == 3
        assert samples[("test_latency_count", "")] == 3
        assert samples[("test_latency_sum", "")] == 5055

    def test_type_lines_present(self):
        registry = MetricsRegistry()
        registry.counter("test.n").inc()
        registry.histogram("test.h", (1,)).record(0)
        text = render_prometheus(registry.snapshot())
        assert "# TYPE test_n counter" in text
        assert "# TYPE test_h histogram" in text

    def test_help_lines_name_the_dotted_source_once(self):
        registry = MetricsRegistry()
        registry.counter("test.n", op="degree").inc()
        registry.counter("test.n", op="egonet").inc()
        lines = render_prometheus(registry.snapshot()).splitlines()
        # One announcement per mangled name — not per labelled series —
        # and the help text maps it back to the dotted registry name.
        help_lines = [l for l in lines if l.startswith("# HELP test_n ")]
        assert help_lines == \
            ["# HELP test_n repro registry series test.n (counter)"]
        # HELP immediately precedes its TYPE line.
        assert lines[lines.index(help_lines[0]) + 1] == \
            "# TYPE test_n counter"


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class TestTrace:
    def test_span_is_noop_without_active_trace(self):
        with trace.span("orphan") as record:
            assert record is None
        assert trace.current() is None

    def test_start_trace_records_tree(self):
        recorder = TraceRecorder()
        with trace.start_trace("root", recorder, op="egonet") as handle:
            with trace.span("child", worker=1):
                pass
        spans = {s["name"]: s for s in recorder.spans(handle.trace_id)}
        assert spans["root"]["parent"] is None
        assert spans["child"]["parent"] == spans["root"]["span"]
        assert spans["root"]["op"] == "egonet"
        assert all(s["status"] == "ok" for s in spans.values())
        assert all(s["elapsed_us"] >= 0 for s in spans.values())

    def test_span_attributes_set_mid_flight_are_recorded(self):
        """``span`` yields the span's own attribute dict, and what is set
        on it before the span closes is recorded: a traced streaming run
        gives each ``stream.rank`` span its ``n_edges`` and ``n_blocks``,
        which sum to the run's totals."""
        factor_a = generators.webgraph_like(30, edges_per_vertex=3,
                                            triad_probability=0.6, seed=3)
        factor_b = generators.triangle_constrained_pa(10, seed=13)
        recorder = TraceRecorder()
        with trace.start_trace("generate", recorder) as handle:
            result = distributed_generate(factor_a, factor_b, 3,
                                          streaming=True, a_edges_per_block=8)
        spans = recorder.spans(handle.trace_id)
        (run,) = [s for s in spans if s["name"] == "stream.run"]
        ranks = [s for s in spans if s["name"] == "stream.rank"]
        assert sorted(s["rank"] for s in ranks) == [0, 1, 2]
        assert all(s["parent"] == run["span"] for s in ranks)
        assert sum(s["n_edges"] for s in ranks) == result.n_edges > 0
        assert sum(s["n_blocks"] for s in ranks) \
            == result.total.n_blocks > len(ranks)

    def test_error_spans_mark_status_and_reraise(self):
        recorder = TraceRecorder()
        with pytest.raises(ValueError):
            with trace.start_trace("root", recorder) as handle:
                with trace.span("failing"):
                    raise ValueError("boom")
        spans = {s["name"]: s for s in recorder.spans(handle.trace_id)}
        assert spans["failing"]["status"] == "error"
        assert "boom" in spans["failing"]["error"]

    def test_activate_adopts_incoming_trace(self):
        recorder = TraceRecorder()
        with trace.activate(recorder, "cafe01", parent_span_id="beef"):
            with trace.span("serve.degree"):
                pass
        (record,) = recorder.spans("cafe01")
        assert record["parent"] == "beef"

    def test_recorder_evicts_oldest_trace(self):
        recorder = TraceRecorder(max_traces=2)
        for tid in ("t1", "t2", "t3"):
            with trace.activate(recorder, tid):
                with trace.span("s"):
                    pass
        assert recorder.spans("t1") == []
        assert recorder.trace_ids() == ["t2", "t3"]

    def test_recorder_caps_spans_visibly(self):
        recorder = TraceRecorder(max_spans=2)
        with trace.activate(recorder, "hot"):
            for _ in range(5):
                with trace.span("s"):
                    pass
        spans = recorder.spans("hot")
        assert len(spans) == 3  # 2 kept + 1 truncation marker
        assert spans[-1]["name"] == "trace.truncated"


# ----------------------------------------------------------------------
# The served surface: metrics / trace / reset_stats ops, slow-query log
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    factor_a = generators.webgraph_like(30, edges_per_vertex=3,
                                        triad_probability=0.6, seed=3)
    factor_b = generators.triangle_constrained_pa(10, seed=13)
    product = KroneckerGraph(factor_a, factor_b)
    tmp = tmp_path_factory.mktemp("obs-store")
    sink = NpyShardSink(tmp / "spill", name=product.name,
                        n_vertices=product.n_vertices)
    distributed_generate(factor_a, factor_b, 2, streaming=True,
                         a_edges_per_block=16, sink=sink)
    compact_shards(tmp / "spill", tmp / "store", target_shard_edges=2000)
    return tmp / "store"


class TestServedSurface:
    def test_metrics_op_round_trips_registry(self, store_dir):
        with ThreadedServer(store_dir) as handle, \
                QueryClient(handle.host, handle.port) as client:
            client.degree(5)
            answer = client.metrics()
            counters = {(c["name"], c["labels"].get("op")): c["value"]
                        for c in answer["metrics"]["counters"]}
            assert counters[("serve.requests", "degree")] >= 1
            samples = _parse_prometheus(answer["prometheus"])
            assert samples[('serve_requests', 'op="degree"')] == \
                counters[("serve.requests", "degree")]

    def test_stats_is_a_view_over_the_registry(self, store_dir):
        with ThreadedServer(store_dir) as handle, \
                QueryClient(handle.host, handle.port) as client:
            client.degree(5)
            stats = client.stats()
            histogram = stats["server"]["latency_us"]["degree"]
            assert {"p50_us", "p95_us", "p99_us"} <= set(histogram)
            # The same numbers through the metrics op.
            snapshot = client.metrics()["metrics"]
            served = {(c["name"], c["labels"].get("op")): c["value"]
                      for c in snapshot["counters"]}
            assert stats["server"]["requests"]["degree"] == \
                served[("serve.requests", "degree")]

    def test_traced_query_yields_server_span_tree(self, store_dir):
        recorder = TraceRecorder()
        with ThreadedServer(store_dir) as handle, \
                QueryClient(handle.host, handle.port) as client:
            with trace.start_trace("lookup", recorder) as t:
                client.egonet(5)
            server_spans = client.trace_spans(t.trace_id)
            names = [s["name"] for s in server_spans]
            assert "serve.egonet" in names
            # The server's op span parents under the client's request span.
            client_spans = {s["name"]: s for s in recorder.spans(t.trace_id)}
            serve_span = next(s for s in server_spans
                              if s["name"] == "serve.egonet")
            assert serve_span["parent"] == \
                client_spans["client.egonet"]["span"]
            # Shard decodes on the executor inherit the request context.
            decode = [s for s in server_spans if s["name"] == "store.decode"]
            assert decode, "expected store.decode spans on a cold cache"
            assert all(s["parent"] == serve_span["span"] for s in decode)

    def test_only_an_id_string_names_the_serve_span_parent(self, store_dir):
        """The ``"trace"`` key names the serve span's parent by its id
        string; another value is not adopted (a number would read as a
        span of the server's own process)."""
        with ThreadedServer(store_dir) as handle:
            server = handle.server
            for parent in ("beef", 7, None):
                frame = protocol.request_frame("degree", {"vertex": 5})
                frame["trace"] = {"id": "cafe", "span": parent}
                answer = asyncio.run_coroutine_threadsafe(
                    server.dispatch(frame), server.loop).result(timeout=30)
                assert answer["ok"]
            parents = [s["parent"] for s in server.recorder.spans("cafe")]
        assert parents == ["beef", None, None]

    def test_untraced_requests_record_no_spans(self, store_dir):
        with ThreadedServer(store_dir) as handle, \
                QueryClient(handle.host, handle.port) as client:
            client.degree(5)
            assert handle.server.recorder.trace_ids() == []

    def test_reset_stats_zeroes_counters(self, store_dir):
        with ThreadedServer(store_dir) as handle, \
                QueryClient(handle.host, handle.port) as client:
            client.degree(5)
            client.degree(6)
            assert client.stats()["server"]["requests"]["degree"] == 2
            answer = client.reset_stats()
            assert answer["reset"] is True
            assert "workers" not in answer  # single server, no fleet
            assert "degree" not in client.stats()["server"]["requests"]
            assert client.stats()["store"]["shard_reads"] == 0

    @pytest.mark.usefixtures("mapped_shards")
    def test_store_gauges_report_cache_occupancy(self, store_dir):
        with ThreadedServer(store_dir) as handle, \
                QueryClient(handle.host, handle.port) as client:
            client.egonet(5)
            gauges = {g["name"]: g["value"]
                      for g in client.metrics()["metrics"]["gauges"]}
            assert gauges["store.cached_shards"] >= 1
            assert gauges["store.mapped_bytes"] > 0
