"""Self-tests of the benchmark's helpers (collected by a plain ``pytest``)."""

from __future__ import annotations

import numpy as np
import pytest

from perfbench import build, gate, inputs, measure

#: F(100, 12): 1,200 vertices, enough for the 1,024-vertex hot set.
TINY = (100, 12)


@pytest.fixture(scope="module")
def tiny_store(tmp_path_factory):
    return inputs.build_store(tmp_path_factory.mktemp("tiny"), sizes=TINY)


def test_percentile_and_sample_count_rule():
    values = list(range(1, 101))
    assert measure.percentile(values, 50) == 50
    assert measure.percentile(values, 99) == 99
    assert measure.percentile(values, 100) == 100
    assert measure.samples_beyond(1000, 99) == 10
    assert measure.samples_beyond(999, 99) == 9
    summary = measure.latency_summary([float(x) for x in range(1000)])
    assert summary == {"p50": 499.0, "p99": 989.0, "n": 1000, "beyond_p99": 10}
    assert measure.latency_summary([1.0] * 999)["p99"] is None


def test_self_time_folds_concurrent_children():
    # A router fan-out: two overlapping worker calls and one that outlives
    # the parent; the covered part is [10, 60) plus [90, 100).
    parent = {"start_us": 0, "elapsed_us": 100}
    children = [{"start_us": 10, "elapsed_us": 30},
                {"start_us": 20, "elapsed_us": 40},
                {"start_us": 90, "elapsed_us": 30}]
    assert measure.self_time(parent, children) == 40
    assert measure.self_time(parent, []) == 100
    assert measure.union_length([(0, 5), (5, 7), (9, 9)]) == 7


def test_timing_sink_leaves_the_store_byte_identical(tmp_path):
    factors = inputs.factor_pair(40, 12, seed=9)
    stores = []
    for name, wrap in (("plain", lambda sink: sink),
                       ("timed", build.TimingSink)):
        spill, store = tmp_path / name / "spill", tmp_path / name / "store"
        sink = wrap(inputs.spill_sink(spill, *factors))
        inputs.generate(*factors, sink)
        inputs.compact(spill, store)
        stores.append(store)
    files = [sorted(p.name for p in store.iterdir()) for store in stores]
    assert files[0] == files[1] and "manifest.json" in files[0]
    for name in files[0]:
        assert (stores[0] / name).read_bytes() == (stores[1] / name).read_bytes()
    assert sink.bytes > 0 and len(sink.landed) > 0


def test_one_seed_gives_one_stream(tiny_store):
    from repro.store import ShardStore

    store = ShardStore(tiny_store)

    def keys(stream):
        return [(op.kind, op.keep, tuple(np.asarray(a).tolist()
                                         for a in op.args)) for op in stream]

    point = keys(inputs.point_stream(store, 7, 0, 300))
    assert point == keys(inputs.point_stream(store, 7, 0, 300))
    assert point != keys(inputs.point_stream(store, 8, 0, 300))
    assert point != keys(inputs.point_stream(store, 7, 1, 300))
    scan = keys(inputs.scan_stream(store.n_vertices, 7, 0, 300))
    assert scan == keys(inputs.scan_stream(store.n_vertices, 7, 0, 300))
    assert scan != keys(inputs.scan_stream(store.n_vertices, 8, 0, 300))
    kinds = {op[0] for op in point}
    assert kinds == {kind for kind, _ in inputs.POINT_MIX}


def test_corrupted_reference_fails_the_gate(tiny_store):
    from repro.serve import QueryClient, ThreadedServer
    from repro.store import ShardStore

    store = ShardStore(tiny_store, cache_shards=64)
    streams = [inputs.point_stream(store, 3, 0, 120),
               inputs.scan_stream(store.n_vertices, 3, 1, 60)]
    refs = gate.references(store, streams)
    with ThreadedServer(tiny_store) as server:
        with QueryClient.from_address(server.address) as client:
            results = [[(p, gate.served(client, op))
                        for p, op in enumerate(stream)] for stream in streams]
    assert gate.mismatches(streams, refs, results) == []

    def first(thread, kind, keep=True):
        return next(p for p, op in enumerate(streams[thread])
                    if op.kind == kind and op.keep == keep)

    def bump_last_column(answer):
        rows = (answer[1] if isinstance(answer, tuple) else answer).copy()
        rows[0, -1] += 1
        return (answer[0], rows) if isinstance(answer, tuple) else rows

    cases = [(0, first(0, "degree"), lambda want: want + 1),
             (0, first(0, "egonet"), bump_last_column),
             (1, first(1, "edges_in_range", keep=False), lambda want: want + 1),
             (1, first(1, "edges_in_range"), bump_last_column)]
    for thread, position, corrupt in cases:
        corrupted = [list(answers) for answers in refs]
        corrupted[thread][position] = corrupt(corrupted[thread][position])
        wrong = gate.mismatches(streams, corrupted, results)
        assert [(w["thread"], w["position"]) for w in wrong] == \
            [(thread, position)]
