"""Perf — the asyncio edge-query service over a compacted shard store.

The serving acceptance bar (PR 5): stand a :class:`repro.serve`
server on an ephemeral localhost port over ONE concurrent-safe
:class:`~repro.store.ShardStore`, hammer it from many client threads, and
assert that **every query type served over the socket returns results
exactly equal — values and, for payloads, dtype — to the in-process store
answer**: ``degree`` / ``degrees`` / ``neighbors`` (± payload) /
``edges_in_range`` (± payload) / ``egonet`` (± payload) / ``subgraph``
(± payload) / ``edge_payloads``.  After the run the shared store's
``stats()`` must show ``cache_hits > 0`` — the LRU is one per worker, not
one per connection.

Runs in two modes:

* **smoke** — swept into the tier-1 ``pytest`` run by
  ``benchmarks/conftest.py``: small sizes, the full equality matrix under
  8 concurrent clients on every CI run, requests/s reported;
* **full** — ``pytest -m slow benchmarks/bench_query_server.py``: the
  Section VI-scale pair with a client-concurrency throughput sweep
  (1 → 16 threads) over the scalar-coalescing hot path and the mixed-query
  workload.  Full runs record their headline numbers as ``BENCH_*.json``
  at the repo root.

PR 7 adds the fleet tier: the smoke stands a range-routed fleet
(:class:`~tests._fleet_harness.FleetHarness`: partition → 3 slice workers →
:class:`~repro.serve.RangeRouter`) behind the *same* full equality matrix —
routed answers byte-equal to the single store under ≥ 8 concurrent
clients — and the full run sweeps 1 → 4 workers over the mixed workload,
recording ``BENCH_query_router.json``.

PR 8 adds the observability bar: warmups are routed through the new
``reset_stats`` op (so reported counters cover only the timed window), and
a tier-1 smoke asserts the tracing instrumentation costs ≤ 5% on the
scalar degree path — a traced pass vs. a trace-disabled pass, best-of-N
interleaved.

The cold-path stress runs the same 8-client equivalence against a server
whose LRU holds 2 shards and against fleets whose workers hold 2 each —
one reached over the wire, and the :class:`~repro.serve.LocalFleet` of
``serve --fleet``, whose router calls its workers in process — so cold
calls from different connections interleave their shard decodes on one
event loop; LRU evictions must show they ran cold.

PR 10 extends that bar to the continuous sampling profiler: a tier-1
smoke arms the profiler over the wire (the ``profile`` op, toggled
outside the timed windows) and asserts the armed scalar path costs ≤ 5%
vs. unarmed, position-paired per round; the full run records the headline
numbers as ``BENCH_profiler_overhead.json``.
"""

from __future__ import annotations

import gc
import threading
import time

import numpy as np
import pytest

from repro import generators
from repro.core import KroneckerGraph
from repro.graphs import NpyShardSink
from repro.obs import TraceRecorder, trace
from repro.parallel import distributed_generate
from repro.serve import LocalFleet, QueryClient, ThreadedServer
from repro.store import ShardStore, compact_shards
from benchmarks._report import emit_bench_json, print_section

N_RANKS = 6
N_CLIENTS = 8
PAYLOAD = ("triangles", "trussness")


def _build_store(factor_a, factor_b, tmp_path, *, block, target):
    product = KroneckerGraph(factor_a, factor_b)
    sink = NpyShardSink(tmp_path / "spill", name=product.name,
                        n_vertices=product.n_vertices,
                        payload_columns=PAYLOAD)
    distributed_generate(factor_a, factor_b, N_RANKS,
                         streaming=True, a_edges_per_block=block, sink=sink,
                         payload_columns=PAYLOAD)
    compact_shards(tmp_path / "spill", tmp_path / "store",
                   target_shard_edges=target)
    return tmp_path / "store", product


def _assert_every_query_type_equal(client: QueryClient,
                                   reference: ShardStore,
                                   vertices, selection) -> int:
    """One client's pass over the full query surface; returns requests sent."""
    requests = 0
    n = reference.n_vertices
    for v in map(int, vertices):
        assert client.degree(v) == reference.degree(v)
        served_neighbors = client.neighbors(v)
        local_neighbors = reference.neighbors(v)
        assert served_neighbors.dtype == local_neighbors.dtype == np.int64
        assert np.array_equal(served_neighbors, local_neighbors)
        requests += 2

    batch = np.asarray(vertices, dtype=np.int64)
    served_degrees = client.degrees(batch)
    assert served_degrees.dtype == np.int64
    assert np.array_equal(served_degrees, reference.degrees(batch))
    requests += 1

    for with_payload in (False, True):
        served_rows = client.edges_in_range(n // 4, n // 2,
                                            with_payload=with_payload)
        local_rows = reference.edges_in_range(n // 4, n // 2,
                                              with_payload=with_payload)
        assert served_rows.dtype == local_rows.dtype == np.int64
        assert np.array_equal(served_rows, local_rows)
        requests += 1

    centre = int(vertices[0])
    served_ego, served_ego_rows = client.egonet(centre, with_payload=True)
    local_ego, local_ego_rows = reference.egonet(centre, with_payload=True)
    assert np.array_equal(served_ego.vertices, local_ego.vertices)
    assert (served_ego.graph.adjacency != local_ego.graph.adjacency).nnz == 0
    assert served_ego.triangles_at_center() == local_ego.triangles_at_center()
    assert served_ego_rows.dtype == local_ego_rows.dtype == np.int64
    assert np.array_equal(served_ego_rows, local_ego_rows)
    requests += 1

    served_sub, served_sub_rows = client.subgraph(selection, with_payload=True)
    local_sub, local_sub_rows = reference.subgraph(selection, with_payload=True)
    assert (served_sub.adjacency != local_sub.adjacency).nnz == 0
    assert np.array_equal(served_sub_rows, local_sub_rows)
    requests += 1

    probe = local_rows[:: max(1, local_rows.shape[0] // 16)]
    served_payloads = client.edge_payloads(probe[:, 0], probe[:, 1])
    local_payloads = reference.edge_payloads(probe[:, 0], probe[:, 1])
    assert served_payloads.dtype == local_payloads.dtype == np.int64
    assert np.array_equal(served_payloads, local_payloads)
    requests += 1
    return requests


def _concurrent_equivalence(server, reference, *, n_clients, rounds, seed):
    """`n_clients` threads × `rounds` full-surface passes; returns
    (total requests, wall seconds, failures)."""
    rng = np.random.default_rng(seed)
    n = reference.n_vertices
    failures = []
    counts = [0] * n_clients
    barrier = threading.Barrier(n_clients + 1)
    # Draw every worker's inputs here, single-threaded: numpy Generators are
    # not thread-safe, and the run must be reproducible from the seed.
    inputs = [(rng.choice(n, 6, replace=False),
               [int(v) for v in rng.choice(n, 10, replace=False)])
              for _ in range(n_clients)]

    def worker(index):
        vertices, selection = inputs[index]
        try:
            with QueryClient(server.host, server.port) as client:
                barrier.wait(timeout=60)
                for _ in range(rounds):
                    counts[index] += _assert_every_query_type_equal(
                        client, reference, vertices, selection)
        except Exception as exc:
            failures.append((index, exc))

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(n_clients)]
    for thread in threads:
        thread.start()
    # Workers block on the barrier until everyone's connection is up, so the
    # timed window measures concurrent serving, not connection setup.
    barrier.wait(timeout=60)
    start = time.perf_counter()
    for thread in threads:
        thread.join(timeout=300)
    elapsed = time.perf_counter() - start
    return sum(counts), elapsed, failures


def test_query_server_smoke(tmp_path, quick_mode):
    """Tier-1: every query type byte-equal over the socket, ≥ 8 concurrent
    clients, one shared store LRU (cache hits > 0)."""
    factor_a = generators.webgraph_like(60 if quick_mode else 320,
                                        edges_per_vertex=3,
                                        triad_probability=0.6, seed=3)
    factor_b = generators.triangle_constrained_pa(20 if quick_mode else 90,
                                                  seed=13)
    store_dir, product = _build_store(factor_a, factor_b, tmp_path,
                                      block=8 if quick_mode else 32,
                                      target=1500 if quick_mode else 65_536)
    reference = ShardStore(store_dir, cache_shards=8)

    with ThreadedServer(store_dir, cache_shards=8) as server:
        served_store = server.server.store
        requests, elapsed, failures = _concurrent_equivalence(
            server, reference, n_clients=N_CLIENTS,
            rounds=1 if quick_mode else 3, seed=7)
        assert not failures, failures[:3]

        # The acceptance criterion: one ShardStore served every connection
        # and its LRU was shared across them.
        stats = served_store.stats()
        assert stats["cache_hits"] > 0
        assert stats["cached_shards"] <= 8

        server_stats = server.server.stats()["server"]
        assert server_stats["errors"] == 0
        assert server_stats["connections_total"] >= N_CLIENTS
        assert sum(server_stats["requests"].values()) >= requests
        assert server_stats["binary"]["frames"] >= 2 * N_CLIENTS

    print_section("Perf — asyncio query server "
                  f"({'smoke' if quick_mode else 'full'})")
    print(f"  product: {product.nnz:,} directed edges; "
          f"{reference.n_shards} shards served to {N_CLIENTS} "
          "concurrent clients")
    print(f"  equivalence: {requests:,} mixed requests, every answer "
          f"byte-equal to the in-process store "
          f"({requests / elapsed:,.0f} requests/s)")
    print(f"  shared LRU: {stats['shard_reads']} shard reads, "
          f"{stats['cache_hits']} cache hits across all connections")
    print(f"  coalescing: degree {server_stats['coalesced']['degree']}, "
          f"neighbors {server_stats['coalesced']['neighbors']}")


def test_query_router_smoke(tmp_path, quick_mode):
    """Tier-1: the range-routed fleet answers the full query surface
    byte-equal to the single store, ≥ 8 concurrent clients."""
    from _fleet_harness import FleetHarness

    factor_a = generators.webgraph_like(60 if quick_mode else 320,
                                        edges_per_vertex=3,
                                        triad_probability=0.6, seed=3)
    factor_b = generators.triangle_constrained_pa(20 if quick_mode else 90,
                                                  seed=13)
    store_dir, product = _build_store(factor_a, factor_b, tmp_path,
                                      block=8 if quick_mode else 32,
                                      target=600 if quick_mode else 65_536)
    reference = ShardStore(store_dir, cache_shards=8)

    with FleetHarness(store_dir, n_slices=3) as harness:
        requests, elapsed, failures = _concurrent_equivalence(
            harness, reference, n_clients=N_CLIENTS,
            rounds=1 if quick_mode else 3, seed=7)
        assert not failures, failures[:3]

        # The fleet rollup reports the *parent* store's shard count (slices
        # overlap on boundary shards) and real worker traffic.
        with harness.client() as client:
            stats = client.stats()
        assert stats["fleet"]["workers"] == 3
        assert all(report["ok"] for report in stats["workers"])
        assert stats["store"]["n_shards"] == reference.n_shards
        assert stats["store"]["shard_reads"] >= 1

    print_section("Perf — range-routed fleet "
                  f"({'smoke' if quick_mode else 'full'})")
    print(f"  product: {product.nnz:,} directed edges; "
          f"{reference.n_shards} shards split over 3 slice workers, "
          f"{N_CLIENTS} concurrent clients")
    print(f"  equivalence: {requests:,} routed requests, every answer "
          f"byte-equal to the single store "
          f"({requests / elapsed:,.0f} requests/s)")


def _cold_smoke_store(tmp_path, quick_mode):
    factor_a = generators.webgraph_like(60 if quick_mode else 320,
                                        edges_per_vertex=3,
                                        triad_probability=0.6, seed=3)
    factor_b = generators.triangle_constrained_pa(20 if quick_mode else 90,
                                                  seed=13)
    return _build_store(factor_a, factor_b, tmp_path,
                        block=8 if quick_mode else 32,
                        target=600 if quick_mode else 16_384)


def test_query_server_cold_smoke(tmp_path, quick_mode):
    """Tier-1 cold-path stress: the 8-client equivalence against a server
    whose LRU holds 2 shards, so cold calls from different connections
    interleave their shard decodes on the one event loop.  Every answer
    is byte-equal; LRU evictions show the calls ran cold."""
    store_dir, _ = _cold_smoke_store(tmp_path, quick_mode)
    reference = ShardStore(store_dir, cache_shards=8)
    with ThreadedServer(store_dir, cache_shards=2) as server:
        requests, elapsed, failures = _concurrent_equivalence(
            server, reference, n_clients=N_CLIENTS,
            rounds=1 if quick_mode else 3, seed=11)
        assert not failures, failures[:3]
        stats = server.server.stats()
    assert stats["server"]["errors"] == 0
    assert stats["store"]["evictions"] > 0

    print_section("Perf — asyncio query server behind a 2-shard LRU "
                  f"({'smoke' if quick_mode else 'full'})")
    print(f"  equivalence: {requests:,} mixed requests over "
          f"{reference.n_shards} shards, every answer byte-equal "
          f"({requests / elapsed:,.0f} requests/s); "
          f"{stats['store']['shard_reads']} shard reads, "
          f"{stats['store']['evictions']} evictions")


def test_query_router_cold_smoke(tmp_path, quick_mode):
    """Tier-1 cold-path stress through a fleet: the 8-client equivalence
    against 3 slice workers whose LRUs hold 2 shards each.  Every routed
    answer is byte-equal; LRU evictions show the calls ran cold."""
    from _fleet_harness import FleetHarness

    store_dir, _ = _cold_smoke_store(tmp_path, quick_mode)
    reference = ShardStore(store_dir, cache_shards=8)
    with FleetHarness(store_dir, n_slices=3, cache_shards=2) as harness:
        requests, elapsed, failures = _concurrent_equivalence(
            harness, reference, n_clients=N_CLIENTS,
            rounds=1 if quick_mode else 3, seed=11)
        assert not failures, failures[:3]
        with harness.client() as client:
            stats = client.stats()
    assert all(report["ok"] for report in stats["workers"])
    assert stats["store"]["evictions"] > 0

    print_section("Perf — range-routed fleet behind 2-shard LRUs "
                  f"({'smoke' if quick_mode else 'full'})")
    print(f"  equivalence: {requests:,} routed requests over "
          f"{reference.n_shards} shards, every answer byte-equal "
          f"({requests / elapsed:,.0f} requests/s); "
          f"{stats['store']['shard_reads']} shard reads, "
          f"{stats['store']['evictions']} evictions")


def test_local_fleet_cold_smoke(tmp_path, quick_mode):
    """Tier-1 cold-path stress through the fleet ``serve --fleet`` builds
    (:class:`~repro.serve.LocalFleet`): the 8-client equivalence against 3
    slice workers whose LRUs hold 2 shards each, all on the router's loop
    and called in process.  Every routed answer is byte-equal, LRU
    evictions show the calls ran cold, and no worker accepted a
    connection."""
    store_dir, _ = _cold_smoke_store(tmp_path, quick_mode)
    reference = ShardStore(store_dir, cache_shards=8)
    with ThreadedServer(store_dir, server_cls=LocalFleet, n_slices=3,
                        cache_shards=2) as fleet:
        requests, elapsed, failures = _concurrent_equivalence(
            fleet, reference, n_clients=N_CLIENTS,
            rounds=1 if quick_mode else 3, seed=13)
        assert not failures, failures[:3]
        with QueryClient(fleet.host, fleet.port) as client:
            stats = client.stats()
    assert stats["server"]["errors"] == 0
    assert all(report["ok"] for report in stats["workers"])
    assert all(report["stats"]["server"]["connections_total"] == 0
               for report in stats["workers"])
    assert stats["store"]["evictions"] > 0

    print_section("Perf — in-process fleet behind 2-shard LRUs "
                  f"({'smoke' if quick_mode else 'full'})")
    print(f"  equivalence: {requests:,} routed requests over "
          f"{reference.n_shards} shards, every answer byte-equal "
          f"({requests / elapsed:,.0f} requests/s); "
          f"{stats['store']['shard_reads']} shard reads, "
          f"{stats['store']['evictions']} evictions")


def _scalar_pass(client: QueryClient, vertices, expected,
                 latencies_ns: list) -> None:
    """One serial pass of scalar ``degree`` requests, appending each
    request's round-trip time (ns) to *latencies_ns*."""
    for v, d in zip(vertices, expected):
        start = time.perf_counter_ns()
        answer = client.degree(int(v))
        latencies_ns.append(time.perf_counter_ns() - start)
        assert answer == int(d)


def test_instrumentation_overhead_smoke(tmp_path, quick_mode):
    """Tier-1: the PR 8 instrumentation (registry counters + trace spans)
    costs ≤ 5% on the scalar degree hot path.

    Every vertex is queried twice back to back — once trace-disabled,
    once under an active trace (per-request client span, wire-propagated
    trace id, server-side span recording) — and the *median of the paired
    per-request deltas* is compared against the budget.  Pairing, not
    pass totals: the instrumentation is a uniform microsecond-scale shift
    per request, while anything aggregated over seconds is dominated by
    scheduler-noise tails and second-scale machine drift that would drown
    it.  The pair order alternates so warm-second-request bias cancels.

    The budget check is best-of-3: client, event loop, and decode
    executor ping-pong context switches on however few cores CI grants,
    so any single wall measurement carries tens of µs of scheduling
    noise that only ever *inflates* the delta.  The deterministic
    instrumentation cost is the minimum over repeated measurements
    (the same reasoning behind min-based perf CI comparisons); a real
    regression — say a per-span ``os.urandom`` call or an extra
    contextvar switch sneaking back in — shifts every attempt and still
    fails.
    """
    factor_a = generators.webgraph_like(60, edges_per_vertex=3,
                                        triad_probability=0.6, seed=3)
    factor_b = generators.triangle_constrained_pa(20, seed=13)
    store_dir, _ = _build_store(factor_a, factor_b, tmp_path,
                                block=8, target=1500)
    reference = ShardStore(store_dir, cache_shards=8)
    rng = np.random.default_rng(17)
    vertices = rng.choice(reference.n_vertices, 100 if quick_mode else 200)
    expected = reference.degrees(vertices)
    rounds = 8 if quick_mode else 10

    with ThreadedServer(store_dir, cache_shards=8) as server:
        with QueryClient(server.host, server.port) as client:
            # Warm the server LRU and both code paths, then route the warmup
            # through the PR 8 reset op: the registry afterwards reports only
            # the timed window below, not the warmup traffic.
            _scalar_pass(client, vertices, expected, [])
            with trace.start_trace("warmup", TraceRecorder()):
                _scalar_pass(client, vertices, expected, [])
            assert client.reset_stats() == {"query": "reset_stats",
                                            "reset": True}

            # GC pauses are benchmark noise, not instrumentation cost:
            # collect up front, then sample both modes with the collector
            # off.  ``activate`` (one trace per round, entered around just
            # the traced half of each pair, outside the timed window)
            # keeps the recorder on its fast path while letting the two
            # modes alternate request by request.
            def measure() -> tuple:
                """One attempt: (plain median µs, paired-delta median µs)."""
                deltas_ns = []
                plain_ns = []
                pcn = time.perf_counter_ns
                gc.collect()
                gc.disable()
                try:
                    for round_index in range(rounds):
                        adopt = trace.activate(TraceRecorder(),
                                               trace.new_trace_id())
                        for i, (v, d) in enumerate(zip(vertices, expected)):
                            v, d = int(v), int(d)
                            if (round_index + i) % 2 == 0:
                                t0 = pcn()
                                a_plain = client.degree(v)
                                t1 = pcn()
                                with adopt:
                                    t2 = pcn()
                                    a_traced = client.degree(v)
                                    t3 = pcn()
                            else:
                                with adopt:
                                    t2 = pcn()
                                    a_traced = client.degree(v)
                                    t3 = pcn()
                                t0 = pcn()
                                a_plain = client.degree(v)
                                t1 = pcn()
                            assert a_plain == d and a_traced == d
                            plain_ns.append(t1 - t0)
                            deltas_ns.append((t3 - t2) - (t1 - t0))
                finally:
                    gc.enable()
                return (float(np.median(plain_ns)) / 1e3,
                        float(np.median(deltas_ns)) / 1e3)

            # The absolute epsilon (10 µs) is the observed scheduling-noise
            # floor of paired measurements on a busy one-core container.
            attempts = []
            for _ in range(3):
                plain_us, delta_us = measure()
                attempts.append((plain_us, delta_us))
                if delta_us <= plain_us * 0.05 + 10.0:
                    break

        # reset_stats wiped the two warmup passes: the degree counter
        # covers exactly the timed attempts, two passes each.
        requests = server.server.stats()["server"]["requests"]
        assert requests.get("degree", 0) == (
            2 * rounds * len(vertices) * len(attempts))

    plain_us, delta_us = attempts[-1]
    overhead = delta_us / plain_us
    pairs = rounds * len(vertices)
    assert delta_us <= plain_us * 0.05 + 10.0, (
        f"tracing adds {delta_us:+.0f} µs to the {plain_us:.0f} µs median "
        f"scalar round trip ({overhead * 100:+.1f}%; best of "
        f"{len(attempts)} attempts × {pairs} request pairs: "
        + ", ".join(f"{d:+.0f} µs" for _, d in attempts)
        + "); the instrumentation budget is 5%")

    print_section("Perf — instrumentation overhead (smoke)")
    print(f"  scalar degree path, {pairs} traced/untraced request pairs "
          f"per attempt, {len(attempts)} attempt(s):")
    print(f"  trace-disabled: {plain_us:>6.0f} µs median round trip")
    print(f"  tracing delta:  {delta_us:>+6.1f} µs median paired delta "
          f"({overhead * 100:+.1f}%; budget 5% + 10 µs noise floor = "
          f"{plain_us * 0.05 + 10.0:.0f} µs)")


def _profiler_overhead_attempt(client: QueryClient, vertices, expected,
                               *, rounds: int, hz: float) -> tuple:
    """One attempt: (plain median µs, paired-delta median µs).

    Each round runs one unarmed and one profiler-armed serial pass over
    the *same* vertices — the profiler toggled through the wire
    ``profile`` op strictly outside the timed windows — and pairs the
    two passes position by position (same vertex, same LRU state).  The
    pass order alternates per round so warm-second-pass bias and
    second-scale machine drift cancel in the deltas.
    """
    plain_ns: list = []
    armed_ns: list = []
    gc.collect()
    gc.disable()
    try:
        for round_index in range(rounds):
            order = (("plain", "armed") if round_index % 2 == 0
                     else ("armed", "plain"))
            for mode in order:
                sink: list = []
                if mode == "armed":
                    client.profile("start", hz=hz)
                _scalar_pass(client, vertices, expected, sink)
                if mode == "armed":
                    client.profile("stop")
                (armed_ns if mode == "armed" else plain_ns).extend(sink)
    finally:
        gc.enable()
    deltas = np.asarray(armed_ns, dtype=np.int64) - \
        np.asarray(plain_ns, dtype=np.int64)
    return (float(np.median(plain_ns)) / 1e3,
            float(np.median(deltas)) / 1e3)


def _run_profiler_overhead(client: QueryClient, vertices, expected,
                           *, rounds: int, hz: float) -> list:
    """Warm both modes, zero the aggregates, then measure best-of-3.

    Returns the attempt list of (plain µs, delta µs); same best-of
    reasoning as the tracing gate above — scheduling noise only ever
    inflates a paired delta, so the deterministic cost is the minimum
    over repeated attempts.
    """
    _scalar_pass(client, vertices, expected, [])
    client.profile("start", hz=hz)
    _scalar_pass(client, vertices, expected, [])
    client.profile("stop")
    client.profile("reset")
    client.reset_stats()

    attempts = []
    for _ in range(3):
        plain_us, delta_us = _profiler_overhead_attempt(
            client, vertices, expected, rounds=rounds, hz=hz)
        attempts.append((plain_us, delta_us))
        if delta_us <= plain_us * 0.05 + 10.0:
            break
    return attempts


def _assert_profiler_budget(attempts: list, hz: float) -> None:
    plain_us, delta_us = attempts[-1]
    assert delta_us <= plain_us * 0.05 + 10.0, (
        f"the armed profiler ({hz:g} Hz) adds {delta_us:+.0f} µs to the "
        f"{plain_us:.0f} µs median scalar round trip "
        f"({delta_us / plain_us * 100:+.1f}%; best of {len(attempts)} "
        "attempts: "
        + ", ".join(f"{d:+.0f} µs" for _, d in attempts)
        + "); the profiler budget is 5%")


def test_profiler_overhead_smoke(tmp_path, quick_mode):
    """Tier-1: the PR 10 sampling profiler, armed at its default rate,
    costs ≤ 5% on the scalar degree hot path.

    Unlike the tracing gate the profiler is a server-wide toggle, not a
    per-request mode — so the pairing is pass-against-pass per round
    (position-matched vertices), not request-against-request.
    """
    factor_a = generators.webgraph_like(60, edges_per_vertex=3,
                                        triad_probability=0.6, seed=3)
    factor_b = generators.triangle_constrained_pa(20, seed=13)
    store_dir, _ = _build_store(factor_a, factor_b, tmp_path,
                                block=8, target=1500)
    reference = ShardStore(store_dir, cache_shards=8)
    rng = np.random.default_rng(17)
    vertices = rng.choice(reference.n_vertices, 100 if quick_mode else 200)
    expected = reference.degrees(vertices)
    rounds = 8 if quick_mode else 10
    hz = 67.0  # the profiler's default operating rate

    with ThreadedServer(store_dir, cache_shards=8) as server:
        with QueryClient(server.host, server.port) as client:
            attempts = _run_profiler_overhead(
                client, vertices, expected, rounds=rounds, hz=hz)
            # The armed halves really sampled: the aggregate the attempts
            # left behind is non-empty and frozen (profiler disarmed).
            answer = client.profile()
            assert answer["running"] is False
            assert answer["profile"]["samples"] >= 1
        assert server.server.stats()["server"]["errors"] == 0

    _assert_profiler_budget(attempts, hz)
    plain_us, delta_us = attempts[-1]
    print_section("Perf — sampling profiler overhead (smoke)")
    print(f"  scalar degree path, {rounds} armed/unarmed pass pairs "
          f"× {len(vertices)} vertices, {len(attempts)} attempt(s):")
    print(f"  unarmed:       {plain_us:>6.0f} µs median round trip")
    print(f"  armed @ {hz:g} Hz: {delta_us:>+6.1f} µs median paired delta "
          f"({delta_us / plain_us * 100:+.1f}%; budget 5% + 10 µs noise "
          f"floor = {plain_us * 0.05 + 10.0:.0f} µs)")


@pytest.mark.slow
def test_profiler_overhead_full(tmp_path):
    """Full sizes: the profiler-armed scalar path at the default and a 4×
    rate, headline numbers recorded as ``BENCH_profiler_overhead.json``."""
    factor_a = generators.webgraph_like(320, edges_per_vertex=3,
                                        triad_probability=0.6, seed=3)
    factor_b = generators.triangle_constrained_pa(90, seed=13)
    store_dir, product = _build_store(factor_a, factor_b, tmp_path,
                                      block=32, target=65_536)
    reference = ShardStore(store_dir, cache_shards=16)
    rng = np.random.default_rng(17)
    vertices = rng.choice(reference.n_vertices, 512)
    expected = reference.degrees(vertices)
    rounds = 10

    print_section("Perf — sampling profiler overhead (full)")
    print(f"  product: {product.nnz:,} directed edges, "
          f"{reference.n_shards} shards; {rounds} pass pairs × "
          f"{len(vertices)} vertices per attempt")
    sweep = []
    with ThreadedServer(store_dir, cache_shards=16) as server:
        with QueryClient(server.host, server.port) as client:
            for hz in (67.0, 268.0):
                attempts = _run_profiler_overhead(
                    client, vertices, expected, rounds=rounds, hz=hz)
                _assert_profiler_budget(attempts, hz)
                plain_us, delta_us = attempts[-1]
                samples = client.profile()["profile"]["samples"]
                assert samples >= 1
                sweep.append({"hz": hz,
                              "plain_us": round(plain_us, 2),
                              "delta_us": round(delta_us, 2),
                              "overhead_pct": round(
                                  delta_us / plain_us * 100, 2),
                              "samples": int(samples),
                              "attempts": len(attempts)})
                print(f"  armed @ {hz:>5g} Hz: {delta_us:>+6.1f} µs on a "
                      f"{plain_us:.0f} µs round trip "
                      f"({delta_us / plain_us * 100:+.1f}%, "
                      f"{samples} samples)")
        assert server.server.stats()["server"]["errors"] == 0

    emit_bench_json("profiler_overhead", {
        "mode": "full",
        "product_edges": int(product.nnz),
        "n_shards": int(reference.n_shards),
        "pairs_per_attempt": rounds * len(vertices),
        "budget_pct": 5.0,
        "sweep": sweep,
    })


@pytest.mark.slow
def test_query_router_scaling_full(tmp_path):
    """Full sizes: the mixed workload against fleets of 1 → 4 slice
    workers, routed answers byte-equal throughout."""
    from _fleet_harness import FleetHarness

    factor_a = generators.webgraph_like(320, edges_per_vertex=3,
                                        triad_probability=0.6, seed=3)
    factor_b = generators.triangle_constrained_pa(90, seed=13)
    store_dir, product = _build_store(factor_a, factor_b, tmp_path,
                                      block=32, target=65_536)
    reference = ShardStore(store_dir, cache_shards=16)

    print_section("Perf — range-routed fleet (1 → 4 worker sweep)")
    print(f"  product: {product.nnz:,} directed edges, "
          f"{reference.n_shards} shards")
    sweep = []
    for n_workers in (1, 2, 3, 4):
        with FleetHarness(store_dir, n_slices=n_workers,
                          cache_shards=16, timeout=60.0) as harness:
            requests, elapsed, failures = _concurrent_equivalence(
                harness, reference, n_clients=8, rounds=2,
                seed=29 + n_workers)
            assert not failures, failures[:3]
            with harness.client() as client:
                rollup = client.stats()["store"]
            assert rollup["workers"] == n_workers
            assert rollup["n_shards"] == reference.n_shards
        rate = requests / elapsed
        sweep.append({"workers": n_workers, "requests": requests,
                      "seconds": round(elapsed, 3),
                      "requests_per_s": round(rate, 1)})
        print(f"  {n_workers:>2} workers: {rate:>8,.0f} mixed requests/s "
              f"({requests:,} in {elapsed * 1e3:.0f} ms), "
              "every answer byte-equal")

    emit_bench_json("query_router", {
        "mode": "full",
        "product_edges": int(product.nnz),
        "n_shards": int(reference.n_shards),
        "n_clients": 8,
        "sweep": sweep,
    })


@pytest.mark.slow
def test_query_server_throughput_full(tmp_path):
    """Full sizes: client-concurrency sweep over the scalar hot path."""
    factor_a = generators.webgraph_like(320, edges_per_vertex=3,
                                        triad_probability=0.6, seed=3)
    factor_b = generators.triangle_constrained_pa(90, seed=13)
    store_dir, product = _build_store(factor_a, factor_b, tmp_path,
                                      block=32, target=65_536)
    reference = ShardStore(store_dir, cache_shards=16)
    n = reference.n_vertices
    rng = np.random.default_rng(11)
    hot_vertices = rng.choice(n // 4, 2048)
    expected_degrees = reference.degrees(hot_vertices)

    print_section("Perf — asyncio query server (concurrency sweep)")
    print(f"  product: {product.nnz:,} directed edges, "
          f"{reference.n_shards} shards")
    with ThreadedServer(store_dir, cache_shards=16) as server:
        # Warm the LRU, then zero the counters through the reset op so the
        # coalescing numbers printed below cover only the sweep itself.
        with QueryClient(server.host, server.port) as warm:
            for v in hot_vertices[:64]:
                warm.degree(int(v))
            warm.reset_stats()
        for n_clients in (1, 2, 4, 8, 16):
            per_client = 2048 // n_clients
            failures = []
            barrier = threading.Barrier(n_clients + 1)

            def worker(index):
                lo = index * per_client
                chunk = hot_vertices[lo:lo + per_client]
                expected = expected_degrees[lo:lo + per_client]
                try:
                    with QueryClient(server.host, server.port) as client:
                        barrier.wait(timeout=60)
                        for v, d in zip(chunk, expected):
                            assert client.degree(int(v)) == int(d)
                except Exception as exc:
                    failures.append((index, exc))

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(n_clients)]
            for thread in threads:
                thread.start()
            barrier.wait(timeout=60)
            start = time.perf_counter()
            for thread in threads:
                thread.join(timeout=300)
            elapsed = time.perf_counter() - start
            assert not failures, failures[:3]
            total = per_client * n_clients
            print(f"  {n_clients:>3} clients: {total / elapsed:>8,.0f} "
                  f"scalar degree requests/s ({total:,} in "
                  f"{elapsed * 1e3:.0f} ms)")
        coalesced = server.server.stats()["server"]["coalesced"]["degree"]
        print(f"  coalescing over the sweep: {coalesced['requests']:,} "
              f"requests in {coalesced['batches']:,} batches "
              f"(max batch {coalesced['max_batch']})")

        # Mixed workload at 8 clients for the headline number.
        requests, elapsed, failures = _concurrent_equivalence(
            server, reference, n_clients=8, rounds=2, seed=29)
        assert not failures, failures[:3]
        print(f"  mixed workload: {requests / elapsed:,.0f} requests/s "
              f"over 8 clients, every answer byte-equal")
        assert server.server.stats()["store"]["cache_hits"] > 0

    emit_bench_json("query_server_scalar", {
        "mode": "full",
        "product_edges": int(product.nnz),
        "n_shards": int(reference.n_shards),
        "mixed_requests_per_s": round(requests / elapsed, 1),
        "coalesced_degree_batches": int(coalesced["batches"]),
        "coalesced_degree_requests": int(coalesced["requests"]),
    })
