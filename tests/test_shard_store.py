"""Tests for the out-of-core shard store (repro.store).

Covers the two layers — compaction/manifest v2 and the ShardStore query
layer — plus the spill edge cases: zero-edge ranks, single-shard
directories, and idempotent re-compaction.  The
acceptance-criterion check that queries decode only the manifest-selected
shards uses a counting hook over the store's file loader.
"""

import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import KroneckerGraph
from repro.graphs import NpyShardSink, load_edge_shards, read_shard_manifest
from repro.graphs.egonet import egonet
from repro.parallel import distributed_generate
from repro.store import ShardStore, compact_shards
import repro.store.query as query_mod


def _sorted_edges(edges: np.ndarray) -> np.ndarray:
    return edges[np.lexsort((edges[:, 1], edges[:, 0]))]


def _payload_store(directory, rows, n_vertices: int, target_shard_edges: int):
    """Compact hand-written ``(src, dst, triangles)`` rows, in any order,
    into a store (the spill is written in the ``(src, dst)`` order
    compaction requires)."""
    sink = NpyShardSink(directory / "spill", n_vertices=n_vertices,
                        payload_columns=("triangles",))
    sink.write(0, 0, _sorted_edges(np.asarray(rows, dtype=np.int64)))
    sink.finalize()
    compact_shards(directory / "spill", directory / "store",
                   target_shard_edges=target_shard_edges)
    return directory / "store"


@pytest.fixture
def product(weblike_small, delta_le_one_factor) -> KroneckerGraph:
    return KroneckerGraph(weblike_small, delta_le_one_factor)


def _write_v2_store(directory, blocks, n_vertices: int):
    """Hand-write *blocks* as a manifest v2 store, one shard each, past
    the sink's order checks, so compaction's own check must catch a bad
    row.  Returns the shard paths."""
    directory.mkdir()
    shards, paths = [], []
    for index, rows in enumerate(blocks):
        rows = np.asarray(rows, dtype=np.int64)
        path = directory / f"shard-{index:06d}.npy"
        np.save(path, rows)
        paths.append(path)
        shards.append({"file": path.name, "n_edges": int(rows.shape[0]),
                       "src_min": int(rows[:, 0].min()),
                       "src_max": int(rows[:, 0].max())})
    (directory / "manifest.json").write_text(json.dumps({
        "format_version": 2, "kind": "edge-shards", "name": "",
        "n_vertices": n_vertices,
        "total_edges": sum(shard["n_edges"] for shard in shards),
        "sorted_by": "source", "payload_columns": ["src", "dst"],
        "shards": shards}))
    return paths


@pytest.fixture
def spill_dir(tmp_path, product, weblike_small, delta_le_one_factor):
    """A 4-rank per-block spill of the product (a manifest v2 store)."""
    sink = NpyShardSink(tmp_path / "spill", name=product.name,
                        n_vertices=product.n_vertices)
    distributed_generate(weblike_small, delta_le_one_factor, 4,
                         streaming=True, a_edges_per_block=8, sink=sink)
    return tmp_path / "spill"


@pytest.fixture
def store_dir(tmp_path, spill_dir):
    compact_shards(spill_dir, tmp_path / "store", target_shard_edges=1500)
    return tmp_path / "store"


class TestCompaction:
    def test_manifest_v2_schema(self, store_dir, product):
        manifest = read_shard_manifest(store_dir)
        assert manifest["format_version"] == 2
        assert manifest["sorted_by"] == "source"
        assert manifest["payload_columns"] == ["src", "dst"]
        assert manifest["total_edges"] == product.nnz
        assert manifest["n_vertices"] == product.n_vertices
        for shard in manifest["shards"]:
            assert shard["src_min"] <= shard["src_max"]

    def test_edges_survive_and_sort(self, store_dir, product):
        edges = load_edge_shards(store_dir)
        assert np.array_equal(edges, _sorted_edges(product.edges()))

    def test_target_shard_size_respected(self, store_dir):
        manifest = read_shard_manifest(store_dir)
        assert all(s["n_edges"] == 1500 for s in manifest["shards"][:-1])
        assert manifest["shards"][-1]["n_edges"] <= 1500

    def test_ranges_match_shard_contents(self, store_dir):
        manifest = read_shard_manifest(store_dir)
        for shard in manifest["shards"]:
            edges = np.load(store_dir / shard["file"])
            assert shard["src_min"] == int(edges[0, 0])
            assert shard["src_max"] == int(edges[-1, 0])
            assert np.all(np.diff(edges[:, 0]) >= 0)

    def test_idempotent_recompaction(self, tmp_path, store_dir):
        """Compacting an already-compacted store reproduces it exactly."""
        compact_shards(store_dir, tmp_path / "again", target_shard_edges=1500)
        first = read_shard_manifest(store_dir)
        second = read_shard_manifest(tmp_path / "again")
        assert second["shards"] == first["shards"]
        for shard in first["shards"]:
            assert np.array_equal(np.load(store_dir / shard["file"]),
                                  np.load(tmp_path / "again" / shard["file"]))

    def test_resharding_to_new_target(self, tmp_path, store_dir, product):
        compact_shards(store_dir, tmp_path / "coarse", target_shard_edges=10_000)
        coarse = read_shard_manifest(tmp_path / "coarse")
        assert len(coarse["shards"]) < len(read_shard_manifest(store_dir)["shards"])
        assert np.array_equal(load_edge_shards(tmp_path / "coarse"),
                              _sorted_edges(product.edges()))

    def test_peak_memory_is_one_cut(self, tmp_path):
        """Compaction holds one output shard's rows at a time: the rows
        waiting for the next cut stay views of their mapped input, so the
        traced peak stays under 1.5 cuts (two cuts when a concatenated
        block outlives its flush)."""
        import tracemalloc

        target, block = 8000, 990
        sources = np.arange(40_000, dtype=np.int64)
        rows = np.column_stack([sources, sources + 1])
        _write_v2_store(tmp_path / "spill",
                        [rows[at:at + block] for at in range(0, len(rows), block)],
                        n_vertices=sources.size + 1)
        tracemalloc.start()
        try:
            compact_shards(tmp_path / "spill", tmp_path / "store",
                           target_shard_edges=target)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * target * rows.shape[1] * 8, peak
        assert np.array_equal(load_edge_shards(tmp_path / "store"), rows)

    def test_same_directory_rejected(self, spill_dir):
        with pytest.raises(ValueError, match="different directory"):
            compact_shards(spill_dir, spill_dir)

    def test_stale_output_cleared(self, tmp_path, spill_dir, product):
        dest = tmp_path / "store"
        compact_shards(spill_dir, dest, target_shard_edges=300)
        n_fine = len(read_shard_manifest(dest)["shards"])
        compact_shards(spill_dir, dest, target_shard_edges=5000)
        manifest = read_shard_manifest(dest)
        assert len(manifest["shards"]) < n_fine
        files = {p.name for p in dest.glob("*.npy")}
        assert files == {s["file"] for s in manifest["shards"]}
        assert load_edge_shards(dest).shape[0] == product.nnz

    def test_invalid_parameters(self, spill_dir, tmp_path):
        with pytest.raises(ValueError, match="target_shard_edges"):
            compact_shards(spill_dir, tmp_path / "x", target_shard_edges=0)

    def test_metadata_carried_and_merged(self, tmp_path, product, small_er, triangle):
        from repro.graphs import write_edge_shards

        src = KroneckerGraph(small_er, triangle)
        write_edge_shards(src, tmp_path / "s", a_edges_per_block=5,
                          metadata={"origin": "spill", "keep": True})
        manifest = compact_shards(tmp_path / "s", tmp_path / "d",
                                  metadata={"origin": "compact"})
        assert manifest["metadata"]["origin"] == "compact"
        assert manifest["metadata"]["keep"] is True
        assert manifest["metadata"]["compaction"]["target_shard_edges"] == 262_144

    def test_corrupt_spill_total_detected(self, tmp_path, spill_dir):
        manifest_path = spill_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["total_edges"] += 7
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="corrupt"):
            compact_shards(spill_dir, tmp_path / "d")

    #: Spills that break the (src, dst) order, as per-rank blocks, and the
    #: block whose file the error must name.
    UNORDERED_SPILLS = {
        "within-one-shard": ([[[1, 2], [3, 4], [2, 9]]], 0),
        "overlapping-shards": ([[[1, 2], [4, 0]], [[3, 5], [6, 1]]], 1),
        "duplicated-row": ([[[1, 2], [3, 4]], [[3, 4], [5, 0]]], 1),
    }

    @pytest.mark.parametrize("case", sorted(UNORDERED_SPILLS))
    def test_unordered_spill_rejected(self, tmp_path, spill_dir, case):
        """Nothing sorts a shard store.  Rows out of order, shards whose
        ranges overlap and a repeated row are each a ValueError naming the
        shard file: from the sink, which publishes no manifest, and from
        compaction over the same rows written by hand as a v2 store, which
        leaves no manifest in the destination — including one from an
        earlier compaction."""
        blocks, culprit = self.UNORDERED_SPILLS[case]
        sink = NpyShardSink(tmp_path / "bad", n_vertices=10)
        with pytest.raises(ValueError, match="strictly increasing") as caught:
            for rank, rows in enumerate(blocks):
                sink.write(rank, 0, np.asarray(rows, dtype=np.int64))
            sink.finalize()
        assert str(sink.shard_path(culprit, 0)) in str(caught.value)
        assert not (tmp_path / "bad" / "manifest.json").exists()

        dest = tmp_path / "store"
        compact_shards(spill_dir, dest)
        paths = _write_v2_store(tmp_path / "by-hand", blocks, n_vertices=10)
        with pytest.raises(ValueError, match="strictly increasing") as caught:
            compact_shards(tmp_path / "by-hand", dest)
        assert str(paths[culprit]) in str(caught.value)
        assert not (dest / "manifest.json").exists()


class TestSpillEdgeCases:
    def test_zero_edge_rank_shards(self, tmp_path):
        """Ranks that produce zero edges leave empty shards; compaction and
        queries shrug them off."""
        sink = NpyShardSink(tmp_path / "spill", n_vertices=10)
        sink.write(0, 0, np.asarray([[1, 2], [3, 4]], dtype=np.int64))
        sink.write(1, 0, np.zeros((0, 2), dtype=np.int64))
        sink.write(2, 0, np.zeros((0, 2), dtype=np.int64))
        sink.finalize()
        manifest = compact_shards(tmp_path / "spill", tmp_path / "store")
        assert manifest["total_edges"] == 2
        assert len(manifest["shards"]) == 1
        store = ShardStore(tmp_path / "store")
        assert store.neighbors(1).tolist() == [2]
        assert store.degree(5) == 0

    def test_entirely_empty_spill(self, tmp_path):
        sink = NpyShardSink(tmp_path / "spill", n_vertices=6)
        sink.write(0, 0, np.zeros((0, 2), dtype=np.int64))
        sink.finalize()
        manifest = compact_shards(tmp_path / "spill", tmp_path / "store")
        assert manifest["shards"] == [] and manifest["total_edges"] == 0
        store = ShardStore(tmp_path / "store")
        assert store.degree(0) == 0
        assert store.neighbors(3).size == 0
        assert store.edges_in_range(0, 6).shape == (0, 2)
        assert store.egonet(2).n_vertices == 1

    def test_single_shard_directory(self, tmp_path, small_er, triangle):
        from repro.graphs import write_edge_shards

        product = KroneckerGraph(small_er, triangle)
        write_edge_shards(product, tmp_path / "spill", a_edges_per_block=10_000)
        assert len(read_shard_manifest(tmp_path / "spill")["shards"]) == 1
        manifest = compact_shards(tmp_path / "spill", tmp_path / "store")
        assert len(manifest["shards"]) == 1
        store = ShardStore(tmp_path / "store")
        assert np.array_equal(store.edges_in_range(0, product.n_vertices),
                              _sorted_edges(product.edges()))


class TestShardStoreQueries:
    def test_rejects_uncompacted_spill(self, spill_dir, downgrade_to_v1):
        """A per-block spill of an earlier release (manifest v1, no source
        ranges) is not opened: the error names its version and says to
        re-stream."""
        downgrade_to_v1(spill_dir)
        with pytest.raises(ValueError, match="format_version 1.*re-stream"):
            ShardStore(spill_dir)

    def test_rejects_bad_cache_size(self, store_dir):
        with pytest.raises(ValueError, match="cache_shards"):
            ShardStore(store_dir, cache_shards=0)

    def test_payload_width_mismatch_detected_on_decode(self, store_dir):
        """A manifest promising payload columns the shard files do not carry
        fails with a file-naming error at first decode, not a silent
        mis-slice."""
        manifest_path = store_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["payload_columns"] = ["src", "dst", "triangles"]
        manifest_path.write_text(json.dumps(manifest))
        store = ShardStore(store_dir)
        assert store.payload_columns == ("triangles",)
        with pytest.raises(ValueError, match="payload_columns"):
            store.degree(0)

    def test_manifest_payload_columns_must_start_with_endpoints(self, store_dir):
        manifest_path = store_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["payload_columns"] = ["dst", "src"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="payload_columns"):
            ShardStore(store_dir)

    def test_rejects_unordered_shard_ranges(self, store_dir):
        manifest_path = store_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["shards"][0], manifest["shards"][1] = (
            manifest["shards"][1], manifest["shards"][0])
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="nondecreasing"):
            ShardStore(store_dir)

    def test_edges_in_range_equals_materialized(self, store_dir, product):
        store = ShardStore(store_dir)
        reference = _sorted_edges(product.edges())
        assert np.array_equal(store.edges_in_range(0, product.n_vertices),
                              reference)
        lo, hi = product.n_vertices // 3, 2 * product.n_vertices // 3
        window = reference[(reference[:, 0] >= lo) & (reference[:, 0] < hi)]
        assert np.array_equal(store.edges_in_range(lo, hi), window)
        assert store.edges_in_range(5, 5).shape == (0, 2)
        assert store.edges_in_range(7, 3).shape == (0, 2)

    def test_degrees_match_product(self, store_dir, product):
        store = ShardStore(store_dir)
        vs = np.arange(product.n_vertices)
        assert np.array_equal(store.degrees(vs), product.degrees())
        edges = product.edges()
        assert np.array_equal(store.out_degrees(vs),
                              np.bincount(edges[:, 0],
                                          minlength=product.n_vertices))

    def test_scalar_wrappers_match_batch(self, store_dir, product, rng):
        store = ShardStore(store_dir)
        for v in map(int, rng.choice(product.n_vertices, 10, replace=False)):
            assert store.degree(v) == product.degree(v)
            assert store.out_degree(v) == int(store.out_degrees([v])[0])

    def test_neighbors_match_product(self, store_dir, product, rng):
        store = ShardStore(store_dir)
        for v in map(int, rng.choice(product.n_vertices, 10, replace=False)):
            assert np.array_equal(store.neighbors(v), product.neighbors(v))

    def test_self_loops_excluded_like_kronecker(self, tmp_path, small_er_loops):
        """B with self loops ⇒ product with self loops; degree conventions
        must keep matching KroneckerGraph."""
        from repro.graphs import write_edge_shards

        product = KroneckerGraph(small_er_loops, small_er_loops)
        write_edge_shards(product, tmp_path / "spill", a_edges_per_block=16)
        compact_shards(tmp_path / "spill", tmp_path / "store",
                       target_shard_edges=900)
        store = ShardStore(tmp_path / "store")
        assert product.has_self_loops
        vs = np.arange(product.n_vertices)
        assert np.array_equal(store.degrees(vs), product.degrees())
        loops = np.flatnonzero(store.out_degrees(vs) - store.degrees(vs))
        assert loops.size == product.n_self_loops
        v = int(loops[0])
        assert store.has_edge(v, v)
        assert v not in store.neighbors(v)
        assert v in store.neighbors(v, include_self_loop=True)

    def test_has_edge(self, store_dir, product, rng):
        store = ShardStore(store_dir)
        edges = product.edges()
        for row in rng.choice(edges.shape[0], 10, replace=False):
            p, q = map(int, edges[row])
            assert store.has_edge(p, q)
        assert not store.has_edge(0, 0)

    def test_egonet_matches_product(self, store_dir, product, rng):
        store = ShardStore(store_dir)
        for v in map(int, rng.choice(product.n_vertices, 8, replace=False)):
            ego_store, ego_graph = store.egonet(v), egonet(product, v)
            assert np.array_equal(ego_store.vertices, ego_graph.vertices)
            assert (ego_store.graph.adjacency
                    != ego_graph.graph.adjacency).nnz == 0
            assert ego_store.triangles_at_center() == ego_graph.triangles_at_center()
            assert ego_store.degree_of_center() == product.degree(v)

    def test_subgraph_matches_product(self, store_dir, product, rng):
        store = ShardStore(store_dir)
        vs = rng.choice(product.n_vertices, 25, replace=False)
        got = store.subgraph_adjacency(vs)
        expected = product.subgraph_adjacency(vs)
        assert (got != expected).nnz == 0

    def test_subgraph_rejects_duplicates(self, store_dir):
        store = ShardStore(store_dir)
        with pytest.raises(ValueError, match="duplicates"):
            store.subgraph_adjacency([1, 2, 1])

    def test_vertex_out_of_range(self, store_dir, product):
        store = ShardStore(store_dir)
        with pytest.raises(IndexError):
            store.degree(product.n_vertices)
        with pytest.raises(IndexError):
            store.out_degrees([-1])

    def test_lookups_beyond_the_old_key_limit(self, tmp_path):
        """The self-loop and payload probes search source segments and
        encode nothing, so ``degrees`` and ``edge_payloads`` answer for
        vertex counts whose ``src · n + dst`` would overflow ``int64``."""
        hub, other = 3_999_999_999, 2_500_000_000
        store = ShardStore(_payload_store(
            tmp_path, [(0, hub, 5), (hub, 0, 5), (hub, hub, 0),
                       (hub, other, 4), (other, hub, 4)],
            n_vertices=4_000_000_000, target_shard_edges=2))
        assert store.n_shards > 1
        assert store.degrees([0, other, hub, 1]).tolist() == [1, 1, 2, 0]
        assert store.out_degree(hub) == 3
        assert store.edge_payloads([0, hub, other, hub],
                                   [hub, other, hub, hub]).tolist() == [
            [5], [4], [4], [0]]

    def test_empty_batch(self, store_dir):
        store = ShardStore(store_dir)
        assert store.out_degrees(np.zeros(0, dtype=np.int64)).shape == (0,)
        assert store.edges_for_sources([]).shape == (0, 2)


class TestShardStoreIO:
    def test_only_overlapping_shards_decoded(self, store_dir, monkeypatch):
        """Acceptance criterion: a vertex query touches only the shards the
        manifest's range search selects (counted via a file-open hook)."""
        opened = []
        real_load = query_mod._load_shard_file

        def counting_load(path, columns, mmap_mode=None):
            opened.append(path.name)
            return real_load(path, columns, mmap_mode=mmap_mode)

        monkeypatch.setattr(query_mod, "_load_shard_file", counting_load)
        store = ShardStore(store_dir, cache_shards=2)
        manifest = read_shard_manifest(store_dir)
        v = manifest["shards"][0]["src_max"]  # worst case: a boundary vertex
        expected = [s["file"] for s in manifest["shards"]
                    if s["src_min"] <= v <= s["src_max"]]
        store.degree(v)
        store.neighbors(v)
        assert sorted(set(opened)) == sorted(expected)
        assert len(set(opened)) < len(manifest["shards"])
        assert store.shard_reads == len(opened)

    def test_range_query_decodes_only_window(self, store_dir, monkeypatch):
        opened = []
        real_load = query_mod._load_shard_file
        monkeypatch.setattr(
            query_mod, "_load_shard_file",
            lambda path, *args, **kw: (opened.append(path.name)
                                       or real_load(path, *args, **kw)))
        store = ShardStore(store_dir, cache_shards=8)
        manifest = read_shard_manifest(store_dir)
        lo = manifest["shards"][1]["src_min"]
        hi = manifest["shards"][2]["src_max"] + 1
        store.edges_in_range(lo, hi)
        expected = {s["file"] for s in manifest["shards"]
                    if s["src_min"] < hi and s["src_max"] >= lo}
        assert set(opened) == expected

    def test_lru_serves_repeats_without_disk(self, store_dir):
        store = ShardStore(store_dir, cache_shards=4)
        v = store.n_vertices // 2
        store.neighbors(v)
        reads = store.shard_reads
        for _ in range(5):
            store.neighbors(v)
        assert store.shard_reads == reads
        assert store.cache_hits >= 5

    def test_lru_eviction_bounds_memory(self, store_dir):
        store = ShardStore(store_dir, cache_shards=1)
        store.edges_in_range(0, store.n_vertices)
        assert len(store._cache) == 1
        assert store.shard_reads == store.n_shards

    def test_clear_cache(self, store_dir):
        store = ShardStore(store_dir, cache_shards=4)
        v = store.n_vertices // 2
        store.neighbors(v)
        reads = store.shard_reads
        store.clear_cache()
        store.neighbors(v)
        assert store.shard_reads > reads

    def test_spill_serves_as_written(self, spill_dir, product):
        """The sink's spill is a store: a v2 manifest with source ranges,
        read and queried as it was written."""
        manifest = read_shard_manifest(spill_dir)
        assert manifest["format_version"] == 2
        assert manifest["sorted_by"] == "source"
        assert manifest["payload_columns"] == ["src", "dst"]
        assert np.array_equal(load_edge_shards(spill_dir),
                              _sorted_edges(product.edges()))
        store = ShardStore(spill_dir)
        assert store.n_shards == len(manifest["shards"])
        assert np.array_equal(store.degrees(np.arange(product.n_vertices)),
                              product.degrees())

    def test_full_pipeline_through_store(self, tmp_path, weblike_small,
                                         delta_le_one_factor):
        """generate → spill → compact → query, never materializing C."""
        product = KroneckerGraph(weblike_small, delta_le_one_factor)
        sink = NpyShardSink(tmp_path / "spill", name=product.name,
                            n_vertices=product.n_vertices)
        distributed_generate(weblike_small, delta_le_one_factor, 3,
                             streaming=True, a_edges_per_block=16, sink=sink)
        compact_shards(tmp_path / "spill", tmp_path / "store",
                       target_shard_edges=2000)
        store = ShardStore(tmp_path / "store")
        assert store.total_edges == product.nnz
        assert np.array_equal(store.degrees(np.arange(product.n_vertices)),
                              product.degrees())


def _drive(steps, log=None):
    """Run a store call's steps to the end, appending ``"yield"`` to *log*
    at each yield; the call's answer."""
    while True:
        try:
            next(steps)
        except StopIteration as done:
            return done.value
        if log is not None:
            log.append("yield")


def _yields(store, method, *args, **kwargs) -> int:
    """How many times the steps of one store call yield."""
    log = []
    _drive(store.steps(method, *args, **kwargs), log)
    return len(log)


def _inner_vertices(store, count: int):
    """A vertex only shard *i* holds rows of, for each of the first
    *count* shards."""
    vertices = []
    for shard in store.manifest["shards"][:count]:
        vertex = (shard["src_min"] + shard["src_max"]) // 2
        assert shard["src_min"] < vertex < shard["src_max"]
        vertices.append(vertex)
    return vertices


class TestCachedCheck:
    """Each visit of a store call's steps checks the LRU first: a shard it
    must decode, or a third visit since the last yield, makes the steps
    yield before it, so a call runs without yielding only when it visits
    at most two shards, all cached."""

    def test_empty_cache(self, store_dir):
        store = ShardStore(store_dir, cache_shards=4)
        assert store.n_shards > 2
        steps = store.steps("degrees", [0])
        next(steps)  # the yield comes before the decode
        assert (store.shard_reads, store.cache_hits) == (0, 0)
        assert len(store._cache) == 0
        assert _drive(steps).tolist() == [ShardStore(store_dir).degree(0)]
        assert (store.shard_reads, store.cache_hits) == (1, 0)
        # A call that visits no shard never yields.
        assert _yields(store, "edges_in_range", 5, 5) == 0
        assert _yields(store, "degrees", []) == 0

    def test_true_only_when_every_overlapping_shard_is_cached(self,
                                                               store_dir):
        store = ShardStore(store_dir, cache_shards=store_n(store_dir))
        v, w = _inner_vertices(store, 2)
        store.neighbors(v)
        reads = store.shard_reads
        assert _yields(store, "edges_for_sources", [v]) == 0
        # v's shard is cached, w's is not: one yield, before w's decode.
        assert _yields(store, "edges_for_sources", [v, w]) == 1
        assert store.shard_reads == reads + 1
        assert _yields(store, "edges_for_sources", [w, v]) == 0
        assert _yields(store, "egonet_edges", v) >= 1  # neighbours' shards

    def test_eviction_turns_it_false(self, store_dir):
        store = ShardStore(store_dir, cache_shards=1)
        store.degrees([0])
        assert _yields(store, "degrees", [0]) == 0
        store.degrees([store.n_vertices - 1])
        assert _yields(store, "degrees", [0]) == 1
        assert _yields(store, "degrees", [0]) == 0

    def test_max_shards_bounds_the_window(self, store_dir):
        store = ShardStore(store_dir, cache_shards=store_n(store_dir))
        assert store.n_shards > 3
        store.edges_in_range(0, store.n_vertices)  # every shard cached
        reads = store.shard_reads
        inner = _inner_vertices(store, 3)
        assert _yields(store, "edges_in_range", inner[0], inner[1] + 1) == 0
        assert _yields(store, "edges_in_range", inner[0], inner[2] + 1) == 1
        assert _yields(store, "degrees", inner) == 1
        assert (_yields(store, "edges_in_range", 0, store.n_vertices)
                == (store.n_shards - 1) // 2)
        assert store.shard_reads == reads


class TestStoreSteps:
    """The step rule, for every batch primitive and plan on a store behind
    a 2-shard LRU: between two yields a call reads at most one shard file
    and visits at most two shards, and the stepped answer is byte-equal to
    the synchronous one."""

    @pytest.fixture
    def payload_dir(self, tmp_path, store_dir):
        rows = ShardStore(store_dir).edges_in_range(0, 10 ** 9)
        rows = np.column_stack([rows, rows[:, 0] * 7 + rows[:, 1]])
        n_vertices = read_shard_manifest(store_dir)["n_vertices"]
        return _payload_store(tmp_path / "payload", rows, n_vertices,
                              target_shard_edges=1500)

    @staticmethod
    def _calls(store):
        n = store.n_vertices
        rng = np.random.default_rng(5)
        vs = rng.integers(0, n, 40)
        rows = store.edges_in_range(0, n)[::97]
        return [("degrees", (vs,), {}), ("out_degrees", (vs,), {}),
                ("edges_for_sources", (vs,), {"with_payload": True}),
                ("edges_in_range", (0, n), {"with_payload": True}),
                ("edges_in_range", (n // 3, n // 3 + 40), {}),
                ("edge_payloads", (rows[:, 0], rows[:, 1]), {}),
                ("subgraph_edges", (np.unique(vs),), {"with_payload": True}),
                ("egonet_edges", (int(vs[0]),), {"with_payload": True}),
                ("egonet_edges", (int(rows[-1, 0]),), {})]

    def test_at_most_one_decode_and_two_visits_between_yields(
            self, payload_dir, monkeypatch):
        reference = ShardStore(payload_dir, cache_shards=store_n(payload_dir))
        store = ShardStore(payload_dir, cache_shards=2)
        assert store.n_shards > 4
        log = []
        load = query_mod._load_shard_file

        def logged_load(*args, **kwargs):
            log.append("load")
            return load(*args, **kwargs)

        visit = store._visit

        def logged_visit(index, pace):
            rows = yield from visit(index, pace)
            log.append("visit")
            return rows

        monkeypatch.setattr(query_mod, "_load_shard_file", logged_load)
        store._visit = logged_visit
        for method, args, kwargs in self._calls(reference):
            del log[:]
            answer = _drive(store.steps(method, *args, **kwargs), log)
            expected = getattr(reference, method)(*args, **kwargs)
            if not isinstance(answer, tuple):
                answer, expected = (answer,), (expected,)
            for part, want in zip(answer, expected):
                assert part.dtype == want.dtype == np.int64
                assert np.array_equal(part, want), method
            turns = " ".join(log).split("yield")
            assert all(turn.count("load") <= 1 for turn in turns), (method,
                                                                   log)
            assert all(turn.count("visit") <= 2 for turn in turns), (method,
                                                                    log)
            # Every decode comes right after a yield.
            assert all(i > 0 and log[i - 1] == "yield"
                       for i, entry in enumerate(log) if entry == "load")
            assert "load" in log, method
        assert store.stats()["evictions"] > 0

    def test_shard_decoded_while_a_call_waits_is_not_read_again(
            self, store_dir):
        """Two cold calls on one shard both yield before the decode; the
        one resumed second finds the shard the first one read."""
        store = ShardStore(store_dir, cache_shards=2)
        first = store.steps("degrees", [1, 2])
        second = store.steps("edges_for_sources", [1])
        next(first)
        next(second)
        degrees = _drive(first)
        rows = _drive(second)
        assert (store.shard_reads, store.cache_hits) == (1, 1)
        reference = ShardStore(store_dir)
        assert np.array_equal(degrees, reference.degrees([1, 2]))
        assert np.array_equal(rows, reference.edges_for_sources([1]))


class TestCacheLookups:
    """A query looks each shard up in the LRU once, so ``shard_reads`` and
    ``cache_hits`` count decodes and real hits, never a second lookup of
    the entry the same call just fetched."""

    @pytest.fixture
    def ring_store(self, tmp_path):
        # Six vertices in a ring plus a self loop on 2; 4-row shards put
        # all of vertex 2's rows in shard 1 alone.
        rows = [(v, w, 1) for v in range(6) for w in ((v + 1) % 6, (v + 5) % 6)]
        return _payload_store(tmp_path, rows + [(2, 2, 0)], n_vertices=6,
                              target_shard_edges=4)

    @pytest.mark.parametrize("query", ["edge_payloads", "degrees"])
    def test_one_lookup_per_shard(self, ring_store, query):
        store = ShardStore(ring_store, cache_shards=4)
        assert store.n_shards > 1

        def run():
            if query == "degrees":
                assert store.degrees([2]).tolist() == [2]
            else:
                assert store.edge_payloads([2], [3]).tolist() == [[1]]

        run()
        assert (store.shard_reads, store.cache_hits) == (1, 0)
        store.reset_stats()
        run()
        assert (store.shard_reads, store.cache_hits) == (0, 1)


@st.composite
def _walk_cases(draw):
    """A small store and the batches to ask it: ``(n_vertices, edges,
    target_shard_edges, batch, picks, missing)``.  *edges* are unique
    ``(src, dst)`` pairs, self loops included; 1–7-row shards make sources
    straddle cuts and fall in gaps.  *batch* is unsorted, may repeat, may
    be empty and may hold sources no shard range holds; *picks* index
    stored edges (repeats allowed) for ``edge_payloads``, and *missing* is
    up to two ``(position, pair)`` insertions of pairs that are not
    stored."""
    n_vertices = draw(st.integers(1, 30))
    vertex = st.integers(0, n_vertices - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=60, unique=True))
    loops = draw(st.lists(vertex, max_size=8, unique=True))
    edges = sorted(set(pairs) | {(v, v) for v in loops})
    target = draw(st.integers(1, 7))
    batch = draw(st.lists(vertex, max_size=20))
    picks = draw(st.lists(st.integers(0, len(edges) - 1), max_size=20)) \
        if edges else []
    stored = set(edges)
    absent = [(p, q) for p in range(n_vertices) for q in range(n_vertices)
              if (p, q) not in stored]
    missing = draw(st.lists(
        st.tuples(st.integers(0, len(picks)), st.sampled_from(absent)),
        max_size=2)) if absent else []
    return n_vertices, edges, target, batch, picks, missing


class TestHoldingShards:
    """A batch call visits only the shards holding rows of its vertices
    (``ShardStore._walk``), never every shard between its smallest and
    largest vertex — including a source whose rows run over a cut into the
    next shard and a source in a gap between two shard ranges."""

    #: ``(src, dst)`` rows, ``(src, dst)``-sorted; 4-row shards cut inside
    #: sources 1 and 6, and sources 3 and 4 (no rows) fall in the gap
    #: between the shard ending at source 2 and the one starting at 5.
    #: Source 7 has no rows inside a shard's range; 10 lies past the last.
    ROWS = [(0, 1), (0, 2),
            (1, 0), (1, 1), (1, 2), (1, 5), (1, 6),
            (2, 0),
            (5, 1), (5, 6), (5, 8),
            (6, 1), (6, 5),
            (8, 5), (8, 9),
            (9, 8)]
    N_VERTICES = 11

    @pytest.fixture
    def cut_store(self, tmp_path):
        rows = [(src, dst, 100 * src + dst) for src, dst in self.ROWS]
        return _payload_store(tmp_path, rows, n_vertices=self.N_VERTICES,
                              target_shard_edges=4)

    @staticmethod
    def _visits(store, batch):
        """``(shard index, its sources)`` of every visit of *batch*'s walk,
        after checking the walk's sort of the batch."""
        batch = np.asarray(batch, dtype=np.int64)
        order, svs, visits = store._walk(batch)
        assert np.array_equal(svs, batch[order])
        assert np.array_equal(svs, np.sort(batch))
        return [(index, svs[start:stop].tolist())
                for index, start, stop in visits]

    def test_straddled_and_gap_sources(self, cut_store):
        shards = read_shard_manifest(cut_store)["shards"]
        ranges = [(s["src_min"], s["src_max"]) for s in shards]
        assert ranges == [(0, 1), (1, 2), (5, 6), (6, 9)]
        store = ShardStore(cut_store)
        assert self._visits(store, [1]) == [(0, [1]), (1, [1])]
        assert self._visits(store, [6]) == [(2, [6]), (3, [6])]
        for vertex in (3, 4, 10):
            assert self._visits(store, [vertex]) == []
        assert self._visits(store, [9, 3, 0, 9]) == [(0, [0]), (3, [9, 9])]
        assert store._walk(np.asarray([9, 3, 0, 9]))[0].tolist() == [2, 1, 0, 3]
        assert self._visits(store, np.zeros(0, dtype=np.int64)) == []

    @pytest.mark.parametrize("mmap", [True, False])
    @pytest.mark.parametrize("cache_shards", [1, 8])
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=_walk_cases())
    @example(case=(N_VERTICES, ROWS, 4,
                   [9, 3, 1, 1, 10, 0, 6, 4, 7, 2, 5, 8, 3, 6],
                   np.random.default_rng(3).permutation(
                       np.concatenate([np.arange(len(ROWS)), [4, 6, 12, 2]])
                   ).tolist(),
                   [(1, (3, 1))]))
    def test_batches_match_recomputed_answers(self, mmap, cache_shards, case):
        """Every batch kernel equals a brute-force oracle on the rows, and a
        ``degrees`` / ``out_degrees`` / ``edges_for_sources`` call decodes
        exactly the shards whose range holds one of its sources."""
        n_vertices, edges, target, batch, picks, missing = case
        rows = np.asarray([(src, dst, 100 * src + dst) for src, dst in edges],
                          dtype=np.int64).reshape(-1, 3)
        src, dst = rows[:, 0], rows[:, 1]
        vs = np.asarray(batch, dtype=np.int64)
        with tempfile.TemporaryDirectory() as scratch:
            store_dir = _payload_store(Path(scratch), rows, n_vertices,
                                       target_shard_edges=target)
            store = ShardStore(store_dir, cache_shards=cache_shards, mmap=mmap)

            assert store.out_degrees(vs).tolist() == [
                int(np.sum(src == v)) for v in batch]
            assert store.degrees(vs).tolist() == [
                int(np.sum((src == v) & (dst != v))) for v in batch]
            selected = rows[np.isin(src, vs)]
            assert np.array_equal(store.edges_for_sources(vs), selected[:, :2])
            with_payload = store.edges_for_sources(vs, with_payload=True)
            assert with_payload.dtype == np.int64
            assert np.array_equal(with_payload, selected)
            payloads = store.edge_payloads(src[picks], dst[picks])
            assert payloads.dtype == np.int64
            assert np.array_equal(payloads, rows[picks, 2:])
            if missing:
                pairs = [(int(src[i]), int(dst[i])) for i in picks]
                for position, pair in missing:
                    pairs.insert(position, pair)
                stored = set(edges)
                p, q = next(pair for pair in pairs if pair not in stored)
                with pytest.raises(ValueError,
                                   match=rf"edge \({p}, {q}\) is not stored"):
                    store.edge_payloads([p for p, _ in pairs],
                                        [q for _, q in pairs])

            holding = [shard["file"]
                       for shard in read_shard_manifest(store_dir)["shards"]
                       if any(shard["src_min"] <= v <= shard["src_max"]
                              for v in batch)]
            opened = []
            real_load = query_mod._load_shard_file

            def counting_load(path, *args, **kwargs):
                opened.append(path.name)
                return real_load(path, *args, **kwargs)

            with mock.patch.object(query_mod, "_load_shard_file",
                                   counting_load):
                for call in (store.degrees, store.out_degrees,
                             store.edges_for_sources):
                    store.clear_cache()
                    opened.clear()
                    call(vs)
                    assert opened == holding
            store.close()

    def test_two_vertex_batch_opens_only_their_shards(self, store_dir,
                                                      monkeypatch):
        """A batch at both ends of a many-shard store decodes exactly the
        shards holding its two vertices, whatever lies between them."""
        opened = []
        real_load = query_mod._load_shard_file
        monkeypatch.setattr(
            query_mod, "_load_shard_file",
            lambda path, *args, **kw: (opened.append(path.name)
                                       or real_load(path, *args, **kw)))
        manifest = read_shard_manifest(store_dir)
        assert len(manifest["shards"]) > 4
        last = manifest["n_vertices"] - 1
        expected = sorted(s["file"] for s in manifest["shards"]
                          if s["src_min"] <= 0 <= s["src_max"]
                          or s["src_min"] <= last <= s["src_max"])
        for query in ("degrees", "edges_for_sources"):
            opened.clear()
            store = ShardStore(store_dir, cache_shards=8)
            getattr(store, query)([last, 0])
            assert sorted(opened) == expected
            assert store.shard_reads == len(expected)


def _truncate(path, rows):
    path.write_bytes(path.read_bytes()[:-8])


def _bad_magic(path, rows):
    path.write_bytes(b"NOTNPY" + path.read_bytes()[6:])


#: One way to spoil a shard file each, and a phrase its error must carry.
BAD_SHARDS = {
    "truncated": (_truncate, "truncated"),
    "int32": (lambda path, rows: np.save(path, rows.astype(np.int32)),
              "int64"),
    "fortran-order": (lambda path, rows: np.save(path, np.asfortranarray(rows)),
                      "C-order"),
    "one-dimensional": (lambda path, rows: np.save(path, rows.ravel()), "2-D"),
    "bad-magic": (_bad_magic, "not a .npy"),
    "width": (lambda path, rows: np.save(path, rows[:, :1]),
              "require 2 columns"),
}


class TestBadShardFiles:
    """A shard file that is not exactly what the writers produce fails
    with the same :class:`ValueError` naming the file wherever it is read:
    the reader in both modes, a store query, a served request (as a
    ``ValueError`` frame, not ``InternalError``) and compaction."""

    @staticmethod
    def _spoil(path, kind: str) -> str:
        """Spoil *path* in the *kind* way; return the error it must raise."""
        from repro.graphs.io import read_edge_shard

        rows = np.load(path, mmap_mode=None)
        assert rows.shape[0] >= 2  # Fortran order needs a real 2-D layout
        spoil, phrase = BAD_SHARDS[kind]
        spoil(path, rows)
        messages = set()
        for mode in ("r", None):
            with pytest.raises(ValueError) as caught:
                read_edge_shard(path, ["src", "dst"], mmap_mode=mode)
            messages.add(str(caught.value))
        (message,) = messages
        assert str(path) in message and phrase in message
        return message

    @pytest.mark.parametrize("kind", sorted(BAD_SHARDS))
    def test_store_and_server_name_the_file(self, store_dir, kind):
        from repro.serve import QueryClient, ThreadedServer

        shard = read_shard_manifest(store_dir)["shards"][1]
        message = self._spoil(store_dir / shard["file"], kind)
        lo, hi = shard["src_min"], shard["src_max"] + 1
        with pytest.raises(ValueError) as caught:
            ShardStore(store_dir).edges_in_range(lo, hi)
        assert str(caught.value) == message
        with ThreadedServer(store_dir) as handle, \
                QueryClient(handle.host, handle.port) as client:
            with pytest.raises(ValueError) as caught:
                client.edges_in_range(lo, hi)
            assert str(caught.value) == message
            served = client.stats()["server"]
            assert (served["errors"], served["internal_errors"]) == (1, 0)

    @pytest.mark.parametrize("kind", sorted(BAD_SHARDS))
    def test_compaction_fails_and_publishes_nothing(self, tmp_path,
                                                     spill_dir, kind):
        shard = max(read_shard_manifest(spill_dir)["shards"],
                    key=lambda entry: entry["n_edges"])
        message = self._spoil(spill_dir / shard["file"], kind)
        with pytest.raises(ValueError) as caught:
            compact_shards(spill_dir, tmp_path / "store")
        assert str(caught.value) == message
        assert not (tmp_path / "store" / "manifest.json").exists()


class TestConcurrentStore:
    """The decoded-shard LRU and its counters are concurrent-safe (PR 5):
    one store instance is shared by every server connection, so cache
    mutation under many reader threads must never corrupt the OrderedDict
    or lose an answer."""

    def test_stats_snapshot_and_reset(self, store_dir):
        store = ShardStore(store_dir, cache_shards=2)
        store.degree(0)
        stats = store.stats()
        assert stats["n_shards"] == store.n_shards
        assert stats["cache_shards"] == 2
        assert stats["shard_reads"] == store.shard_reads >= 1
        assert stats["cache_hits"] == store.cache_hits
        assert stats["cached_shards"] == min(stats["shard_reads"], 2)
        store.reset_stats()
        assert store.stats()["shard_reads"] == 0
        assert store.stats()["cache_hits"] == 0
        # The cache itself survives a reset: the repeat is served from
        # memory and counts as a hit against the fresh counters.
        store.degree(0)
        assert store.stats()["shard_reads"] == 0
        assert store.stats()["cache_hits"] >= 1

    def test_many_threads_share_one_lru(self, store_dir, product):
        """Mixed query types from 16 threads against a 2-slot LRU (constant
        eviction churn): every answer must equal the single-threaded
        reference, and the counters must stay consistent."""
        import threading

        store = ShardStore(store_dir, cache_shards=2)
        reference = ShardStore(store_dir, cache_shards=store.n_shards + 1)
        n = product.n_vertices
        vs = np.arange(0, n, 3)
        expected_degrees = reference.degrees(vs)
        expected_range = reference.edges_in_range(n // 4, n // 2)
        rng = np.random.default_rng(23)
        probes = rng.choice(n, 64, replace=False)
        expected_neighbors = {int(v): reference.neighbors(int(v))
                              for v in probes}
        failures = []

        def worker(thread_index):
            try:
                for round_index in range(4):
                    assert np.array_equal(store.degrees(vs), expected_degrees)
                    assert np.array_equal(
                        store.edges_in_range(n // 4, n // 2), expected_range)
                    for v in probes[thread_index::8]:
                        assert np.array_equal(store.neighbors(int(v)),
                                              expected_neighbors[int(v)])
            except Exception as exc:
                failures.append((thread_index, exc))

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not failures, failures[:3]
        stats = store.stats()
        # Bounded cache throughout; counters moved and stayed coherent.
        assert stats["cached_shards"] <= 2
        assert stats["shard_reads"] >= store.n_shards
        assert stats["cache_hits"] > 0


class TestMmapLifecycle:
    """Zero-copy decodes: mmap-vs-copy equality, the stats split, and the
    mapping/file-descriptor lifecycle under eviction and ``close``."""

    @staticmethod
    def _open_fds() -> int:
        import os
        return len(os.listdir("/proc/self/fd"))

    @pytest.mark.usefixtures("mapped_shards")
    def test_mmap_vs_copy_equality_across_query_surface(self, store_dir,
                                                        product):
        mapped = ShardStore(store_dir, cache_shards=4)  # mmap is the default
        copied = ShardStore(store_dir, cache_shards=4, mmap=False)
        assert mapped.stats()["mmap"] is True
        assert copied.stats()["mmap"] is False
        n = product.n_vertices
        vs = np.arange(0, n, 7)
        assert np.array_equal(mapped.degrees(vs), copied.degrees(vs))
        assert np.array_equal(mapped.out_degrees(vs), copied.out_degrees(vs))
        for lo, hi in ((0, n), (n // 4, n // 2), (n - 1, n)):
            rows_mapped = mapped.edges_in_range(lo, hi)
            rows_copied = copied.edges_in_range(lo, hi)
            assert rows_mapped.dtype == rows_copied.dtype == np.int64
            assert np.array_equal(rows_mapped, rows_copied)
        rng = np.random.default_rng(5)
        probes = rng.choice(n, 12, replace=False)
        for v in map(int, probes):
            assert np.array_equal(mapped.neighbors(v), copied.neighbors(v))
            ego_mapped, ego_copied = mapped.egonet(v), copied.egonet(v)
            assert np.array_equal(ego_mapped.vertices, ego_copied.vertices)
            assert (ego_mapped.graph.adjacency
                    != ego_copied.graph.adjacency).nnz == 0
        selection = rng.choice(n, 20, replace=False)
        assert np.array_equal(mapped.subgraph_edges(selection),
                              copied.subgraph_edges(selection))

    @pytest.mark.parametrize("mmap", [True, False])
    def test_answers_cannot_change_the_cache(self, tmp_path, mmap):
        """A range answer and a one-source answer are slices of the cached
        rows: writing into either raises in both decode modes, and the
        next answers are unchanged."""
        rows = [(0, 1, 8), (0, 2, 9), (1, 0, 8), (2, 0, 9)]
        store = ShardStore(_payload_store(tmp_path, rows, n_vertices=3,
                                          target_shard_edges=8), mmap=mmap)
        for answer in (store.edges_in_range(0, 3, with_payload=True),
                       store.edges_for_sources([0], with_payload=True)):
            with pytest.raises(ValueError, match="read-only"):
                answer[0, 2] = -1
        assert store.edges_in_range(0, 3, with_payload=True).tolist() == \
            [list(row) for row in rows]
        assert store.edges_for_sources([0], with_payload=True).tolist() == \
            [list(row) for row in rows[:2]]
        assert store.edge_payloads([0], [1]).tolist() == [[8]]

    @pytest.mark.usefixtures("mapped_shards")
    def test_stats_split_mapped_vs_resident(self, store_dir):
        mapped = ShardStore(store_dir, cache_shards=4)
        copied = ShardStore(store_dir, cache_shards=4, mmap=False)
        n = mapped.n_vertices
        mapped.edges_in_range(0, n)
        copied.edges_in_range(0, n)
        mapped_stats, copied_stats = mapped.stats(), copied.stats()
        assert mapped_stats["mapped_bytes"] > 0
        assert mapped_stats["resident_bytes"] == 0
        assert copied_stats["resident_bytes"] > 0
        assert copied_stats["mapped_bytes"] == 0

    @pytest.mark.usefixtures("mapped_shards")
    def test_warm_cache_no_per_query_copies(self, store_dir):
        """Acceptance criterion: warm range scans neither decode shards
        again nor grow the cache's private/mapped footprint."""
        store = ShardStore(store_dir, cache_shards=store_n(store_dir))
        n = store.n_vertices
        store.edges_in_range(0, n)  # warm every shard
        warm = store.stats()
        for _ in range(20):
            store.edges_in_range(n // 4, n // 2)
        after = store.stats()
        assert after["shard_reads"] == warm["shard_reads"]
        assert after["mapped_bytes"] == warm["mapped_bytes"]
        assert after["resident_bytes"] == warm["resident_bytes"] == 0
        assert after["cache_hits"] > warm["cache_hits"]

    @pytest.mark.usefixtures("mapped_shards")
    def test_lru_churn_releases_mappings(self, store_dir):
        """100-query churn over a 1-slot LRU: evicted mappings are released,
        so the process's open-fd count stays flat."""
        import gc

        store = ShardStore(store_dir, cache_shards=1)
        assert store.n_shards >= 2  # churn needs evictions
        store.edges_in_range(0, store.n_vertices)
        gc.collect()
        baseline = self._open_fds()
        for _ in range(100):
            store.edges_in_range(0, store.n_vertices)
        gc.collect()
        assert self._open_fds() <= baseline + 1
        assert store.stats()["cached_shards"] == 1

    def test_only_shards_past_the_read_size_are_mapped(self, tmp_path):
        """A store maps a shard whose rows reach
        ``query._READ_BELOW_BYTES`` and reads a smaller one whole: the
        stats split counts each where it lives, and a read shard holds no
        descriptor, so churning the LRU over read shards keeps the
        open-fd count flat."""
        import gc

        big = query_mod._READ_BELOW_BYTES // 16  # rows of two int64 columns
        sizes = [big // 4, big, big // 4 + 1, big + 1]
        cuts = np.cumsum([0] + sizes)
        sources = np.arange(cuts[-1], dtype=np.int64)
        rows = np.column_stack([sources, sources + 1])
        _write_v2_store(tmp_path / "store",
                        [rows[lo:hi] for lo, hi in zip(cuts, cuts[1:])],
                        n_vertices=sources.size + 1)
        small_bytes = (sizes[0] + sizes[2]) * 16
        big_bytes = (sizes[1] + sizes[3]) * 16
        store = ShardStore(tmp_path / "store", cache_shards=1)
        gc.collect()
        baseline = self._open_fds()
        for _ in range(50):  # the two small shards evict each other
            assert store.degrees([cuts[0], cuts[2]]).tolist() == [1, 1]
        assert store.shard_reads == 100
        assert self._open_fds() <= baseline
        stats = store.stats()
        assert (stats["resident_bytes"], stats["mapped_bytes"]) \
            == (sizes[2] * 16, 0)
        store.clear_cache()

        store = ShardStore(tmp_path / "store", cache_shards=4)
        assert np.array_equal(store.edges_in_range(0, store.n_vertices), rows)
        stats = store.stats()
        assert (stats["resident_bytes"], stats["mapped_bytes"]) \
            == (small_bytes, big_bytes)
        assert self._open_fds() >= baseline + 2  # the two mappings
        store.close()
        gc.collect()
        assert self._open_fds() <= baseline

    @pytest.mark.usefixtures("mapped_shards")
    def test_close_releases_mappings(self, store_dir):
        import gc

        store = ShardStore(store_dir, cache_shards=8)
        gc.collect()
        before = self._open_fds()
        store.edges_in_range(0, store.n_vertices)
        assert store.stats()["cached_shards"] > 0
        assert self._open_fds() > before  # cached mappings each hold one fd
        store.close()
        gc.collect()
        assert store.stats()["cached_shards"] == 0
        assert self._open_fds() <= before
        # The store stays usable after close: the next query just decodes.
        assert store.edges_in_range(0, store.n_vertices).shape[0] > 0

    def test_iter_edge_shards_mmap_mode(self, store_dir):
        import mmap

        from repro.graphs import iter_edge_shards

        eager = list(iter_edge_shards(store_dir))
        lazy = list(iter_edge_shards(store_dir, mmap_mode="r"))
        assert len(eager) == len(lazy)
        for block_eager, block_lazy in zip(eager, lazy):
            # Mapped: a read-only view whose base is the file's one mmap.
            assert isinstance(block_lazy.base, mmap.mmap)
            assert not block_lazy.flags.writeable
            # Eager: a private, writable copy.
            assert not isinstance(block_eager.base, mmap.mmap)
            assert block_eager.flags.writeable
            assert np.array_equal(block_eager, block_lazy)


def store_n(store_dir) -> int:
    """Shard count of a store directory plus one (an LRU that fits it all)."""
    return len(read_shard_manifest(store_dir)["shards"]) + 1
