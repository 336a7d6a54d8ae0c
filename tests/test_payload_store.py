"""Payload-carrying shards end-to-end, plus manifest-lifecycle hardening.

Covers the widened ``payload_columns`` pipeline — sinks accepting
``(m, 2 + k)`` blocks, the streaming pipeline evaluating the named columns
per block, compaction re-cutting the ordered rows unchanged (checked byte
for byte against a store built without the compactor), and
:class:`ShardStore` serving the ground truth — and the manifest lifecycle
fixes: atomic
manifest writes (truncated files fail with a clear :class:`ValueError`),
crash-recovery re-runs of ``compact_shards``, stale-destination cleanup, and
the shard vertex-range sanity checks that now live in the shared manifest
validator.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    KroneckerGraph,
    KroneckerTriangleStats,
    kron_truss_decomposition,
)
from repro.graphs import (
    NpyShardSink,
    iter_edge_shards,
    load_edge_shards,
    normalize_payload_columns,
    read_shard_manifest,
    write_edge_shards,
)
from repro.parallel import KNOWN_PAYLOAD_COLUMNS, distributed_generate
from repro.store import ShardStore, compact_shards
import repro.store.compaction as compaction_mod

PAYLOAD = ("triangles", "trussness")


def _sorted_rows(rows: np.ndarray) -> np.ndarray:
    return rows[np.lexsort((rows[:, 1], rows[:, 0]))]


@pytest.fixture
def product(weblike_small, delta_le_one_factor) -> KroneckerGraph:
    return KroneckerGraph(weblike_small, delta_le_one_factor)


@pytest.fixture
def payload_spill(tmp_path, product, weblike_small, delta_le_one_factor):
    """A 4-rank spill carrying triangles + trussness payload columns."""
    sink = NpyShardSink(tmp_path / "spill", name=product.name,
                        n_vertices=product.n_vertices, payload_columns=PAYLOAD)
    distributed_generate(weblike_small, delta_le_one_factor, 4,
                         streaming=True, a_edges_per_block=8, sink=sink,
                         payload_columns=PAYLOAD)
    return tmp_path / "spill"


@pytest.fixture
def payload_store(tmp_path, payload_spill):
    compact_shards(payload_spill, tmp_path / "store", target_shard_edges=1500)
    return tmp_path / "store"


@pytest.fixture
def expected_rows(product, weblike_small, delta_le_one_factor) -> np.ndarray:
    """(src, dst, triangles, trussness) ground truth from the closed forms."""
    edges = _sorted_rows(product.edges())
    stats = KroneckerTriangleStats.from_factors(weblike_small, delta_le_one_factor)
    truss = kron_truss_decomposition(weblike_small, delta_le_one_factor)
    return np.column_stack([
        edges,
        stats.edge_values(edges[:, 0], edges[:, 1]),
        truss.edge_trussness_batch(edges[:, 0], edges[:, 1]),
    ])


class TestPayloadColumnNames:
    def test_normalize_accepts_both_spellings(self):
        assert normalize_payload_columns(("triangles",)) == ("triangles",)
        assert normalize_payload_columns(["src", "dst", "triangles"]) == ("triangles",)
        assert normalize_payload_columns(()) == ()

    def test_normalize_rejects_reserved_and_duplicates(self):
        with pytest.raises(ValueError, match="reserved"):
            normalize_payload_columns(("triangles", "src"))
        with pytest.raises(ValueError, match="duplicate"):
            normalize_payload_columns(("triangles", "triangles"))
        with pytest.raises(ValueError, match="non-empty strings"):
            normalize_payload_columns(("", "triangles"))

    def test_distributed_generate_rejects_unknown_columns(
            self, weblike_small, delta_le_one_factor):
        with pytest.raises(ValueError, match="unknown payload column 'pagerank'"):
            distributed_generate(weblike_small, delta_le_one_factor, 2,
                                 streaming=True,
                                 sink=lambda rank, block, edges: None,
                                 payload_columns=("pagerank",))
        assert set(PAYLOAD) <= set(KNOWN_PAYLOAD_COLUMNS)


class TestPayloadSpill:
    def test_v1_manifest_records_columns(self, payload_spill):
        manifest = read_shard_manifest(payload_spill)
        assert manifest["format_version"] == 1
        assert manifest["payload_columns"] == ["src", "dst", *PAYLOAD]

    def test_spilled_rows_carry_exact_ground_truth(self, payload_spill,
                                                   expected_rows):
        rows = load_edge_shards(payload_spill)
        assert rows.shape == expected_rows.shape
        assert np.array_equal(_sorted_rows(rows), expected_rows)

    def test_sink_rejects_wrong_width(self, tmp_path):
        sink = NpyShardSink(tmp_path / "s", payload_columns=("triangles",))
        with pytest.raises(ValueError, match=r"\(m, 3\)"):
            sink.write(0, 0, np.asarray([[1, 2], [3, 4]], dtype=np.int64))
        sink.write(0, 0, np.asarray([[1, 2, 9]], dtype=np.int64))

    def test_payload_requires_streaming_sink(self, weblike_small,
                                             delta_le_one_factor):
        with pytest.raises(ValueError, match="streaming=True and a sink"):
            distributed_generate(weblike_small, delta_le_one_factor, 2,
                                 payload_columns=PAYLOAD)
        with pytest.raises(ValueError, match="streaming=True and a sink"):
            distributed_generate(weblike_small, delta_le_one_factor, 2,
                                 streaming=True, payload_columns=PAYLOAD)

    def test_triangles_payload_requires_statistics(self, tmp_path,
                                                   weblike_small,
                                                   delta_le_one_factor):
        sink = NpyShardSink(tmp_path / "s", payload_columns=("triangles",))
        with pytest.raises(ValueError, match="with_statistics"):
            distributed_generate(weblike_small, delta_le_one_factor, 2,
                                 streaming=True, sink=sink,
                                 with_statistics=False,
                                 payload_columns=("triangles",))

    def test_trussness_payload_implies_census(self, payload_spill, product,
                                              weblike_small,
                                              delta_le_one_factor):
        """Naming 'trussness' turns the trussness census on for free."""
        result = distributed_generate(
            weblike_small, delta_le_one_factor, 2, streaming=True,
            a_edges_per_block=16,
            sink=lambda rank, block, edges: None)
        assert result.total.trussness_census() == {}
        assert read_shard_manifest(payload_spill)  # spill fixture streamed
        # trussness payload ⇒ census folded into the aggregates
        sink = NpyShardSink(payload_spill.parent / "s2",
                            payload_columns=("trussness",))
        result = distributed_generate(
            weblike_small, delta_le_one_factor, 2, streaming=True,
            a_edges_per_block=16, sink=sink,
            payload_columns=("trussness",))
        census = result.total.trussness_census()
        assert census and sum(census.values()) == product.nnz

    def test_one_rank_payload_spill_is_exact(self, tmp_path, weblike_small,
                                             delta_le_one_factor,
                                             expected_rows):
        """A single-rank payload spill runs through the same pipeline."""
        sink = NpyShardSink(tmp_path / "spill", payload_columns=PAYLOAD)
        distributed_generate(weblike_small, delta_le_one_factor, 1,
                             streaming=True, a_edges_per_block=32, sink=sink,
                             payload_columns=PAYLOAD)
        rows = load_edge_shards(tmp_path / "spill")
        assert np.array_equal(_sorted_rows(rows), expected_rows)

    def test_process_pool_payload_spill(self, tmp_path, weblike_small,
                                        delta_le_one_factor, expected_rows):
        """payload columns survive the multiprocessing worker path."""
        sink = NpyShardSink(tmp_path / "spill", payload_columns=PAYLOAD)
        distributed_generate(weblike_small, delta_le_one_factor, 2,
                             streaming=True, a_edges_per_block=64, sink=sink,
                             payload_columns=PAYLOAD, use_processes=True,
                             max_workers=2)
        rows = load_edge_shards(tmp_path / "spill")
        assert np.array_equal(_sorted_rows(rows), expected_rows)


class TestPayloadCompaction:
    def test_manifest_carries_columns_forward(self, payload_store):
        manifest = read_shard_manifest(payload_store)
        assert manifest["format_version"] == 2
        assert manifest["payload_columns"] == ["src", "dst", *PAYLOAD]

    def test_rows_survive_compaction_exactly(self, payload_store, expected_rows):
        assert np.array_equal(load_edge_shards(payload_store), expected_rows)

    def test_recompaction_byte_idempotent(self, tmp_path, payload_store):
        manifest = compact_shards(payload_store, tmp_path / "again",
                                  target_shard_edges=1500)
        first = read_shard_manifest(payload_store)
        assert manifest["shards"] == first["shards"]
        for shard in first["shards"]:
            assert ((payload_store / shard["file"]).read_bytes()
                    == (tmp_path / "again" / shard["file"]).read_bytes())

    def test_width_mismatch_names_file(self, tmp_path, payload_spill):
        manifest_path = payload_spill / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["payload_columns"] = ["src", "dst", "triangles"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="require 3 columns"):
            compact_shards(payload_spill, tmp_path / "d")


class TestShardStorePayloadQueries:
    def test_store_exposes_columns(self, payload_store):
        store = ShardStore(payload_store)
        assert store.payload_columns == PAYLOAD
        assert store.payload_index("trussness") == 1
        with pytest.raises(ValueError, match="no payload column"):
            store.payload_index("pagerank")
        assert "payload_columns=['triangles', 'trussness']" in repr(store)

    def test_edges_in_range_with_payload(self, payload_store, expected_rows):
        store = ShardStore(payload_store)
        assert np.array_equal(
            store.edges_in_range(0, store.n_vertices, with_payload=True),
            expected_rows)
        lo, hi = store.n_vertices // 3, 2 * store.n_vertices // 3
        window = expected_rows[(expected_rows[:, 0] >= lo)
                               & (expected_rows[:, 0] < hi)]
        assert np.array_equal(store.edges_in_range(lo, hi, with_payload=True),
                              window)
        # Topology-only answers are unchanged by the wider rows.
        assert np.array_equal(store.edges_in_range(lo, hi), window[:, :2])
        assert store.edges_in_range(5, 5, with_payload=True).shape == (0, 4)

    def test_edges_for_sources_with_payload(self, payload_store, expected_rows,
                                            rng):
        store = ShardStore(payload_store)
        vs = rng.choice(store.n_vertices, 40, replace=False)
        got = store.edges_for_sources(vs, with_payload=True)
        mask = np.isin(expected_rows[:, 0], vs)
        assert np.array_equal(got, expected_rows[mask])

    def test_edge_payloads_match_and_validate(self, payload_store,
                                              expected_rows, rng):
        store = ShardStore(payload_store)
        picks = rng.choice(expected_rows.shape[0], 50)
        got = store.edge_payloads(expected_rows[picks, 0],
                                  expected_rows[picks, 1])
        assert np.array_equal(got, expected_rows[picks, 2:])
        scalar = store.edge_payload(int(expected_rows[0, 0]),
                                    int(expected_rows[0, 1]))
        assert scalar == {"triangles": int(expected_rows[0, 2]),
                          "trussness": int(expected_rows[0, 3])}
        with pytest.raises(ValueError, match="not stored"):
            store.edge_payloads([0], [0])
        with pytest.raises(ValueError, match="matching shapes"):
            store.edge_payloads([0, 1], [2])
        assert store.edge_payloads([], []).shape == (0, 2)

    def test_egonet_and_subgraph_payload_variants(self, payload_store,
                                                  expected_rows, rng):
        store = ShardStore(payload_store)
        for v in map(int, rng.choice(store.n_vertices, 5, replace=False)):
            ego, rows = store.egonet(v, with_payload=True)
            members = np.isin(expected_rows[:, 0], ego.vertices) \
                & np.isin(expected_rows[:, 1], ego.vertices)
            assert np.array_equal(rows, expected_rows[members])
            # plain call still returns the bare egonet
            assert store.egonet(v).n_vertices == ego.n_vertices
        vs = rng.choice(store.n_vertices, 30, replace=False)
        graph, rows = store.subgraph(vs, with_payload=True)
        members = np.isin(expected_rows[:, 0], vs) & np.isin(expected_rows[:, 1], vs)
        assert np.array_equal(rows, expected_rows[members])
        assert graph.adjacency.nnz == rows.shape[0]

    def test_lru_caches_payload_with_topology(self, payload_store):
        """One decode serves topology and payload queries for a shard."""
        store = ShardStore(payload_store, cache_shards=4)
        rows = store.edges_in_range(0, 3, with_payload=True)
        reads = store.shard_reads
        store.edge_payloads(rows[:5, 0], rows[:5, 1])
        store.edges_in_range(0, 3)
        store.neighbors(int(rows[0, 0]))
        assert store.shard_reads == reads
        assert store.cache_hits >= 3

    def test_payload_free_store_rejects_payload_queries(self, tmp_path,
                                                        product,
                                                        weblike_small,
                                                        delta_le_one_factor):
        write_edge_shards(product, tmp_path / "spill", a_edges_per_block=64)
        compact_shards(tmp_path / "spill", tmp_path / "store")
        store = ShardStore(tmp_path / "store")
        assert store.payload_columns == ()
        with pytest.raises(ValueError, match="no payload columns"):
            store.edges_in_range(0, 5, with_payload=True)
        with pytest.raises(ValueError, match="no payload columns"):
            store.edge_payloads([0], [1])
        with pytest.raises(ValueError, match="no payload columns"):
            store.egonet(0, with_payload=True)


class TestStoreOracle:
    """The compacted store against one built without the compactor: the CSR
    rows of ``materialize_adjacency()`` with their closed-form payloads, cut
    every ``target`` rows and written by ``np.save`` — equal byte for byte."""

    #: name: (factor fixtures, payload columns, ranks, A edges per block,
    #: target).  One A edge per block puts the bound at nnz(B), below the
    #: hub sources' out-degree, so their rows are split across blocks.
    #: Theorem 3 needs loop-free factors, so the self-loop pairs carry
    #: triangles only; with loops in one factor or both, the streamed
    #: triangles keep a different subset of the five entry components.
    CASES = {
        "payload-hub-split": (("weblike_small", "delta_le_one_factor"),
                              PAYLOAD, 5, 1, 700),
        "self-loops-triangles": (("small_er_loops", "small_er_loops"),
                                 ("triangles",), 3, 2, 500),
        "loops-a-only": (("small_er_loops", "small_er"), ("triangles",), 3, 1, 500),
        "loops-b-only": (("small_er", "small_er_loops"), ("triangles",), 3, 1, 500),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_store_bytes_equal_oracle(self, tmp_path, request, case):
        names, columns, n_ranks, block, target = self.CASES[case]
        factor_a, factor_b = (request.getfixturevalue(name) for name in names)
        product = KroneckerGraph(factor_a, factor_b)
        if case == "payload-hub-split":
            out_degrees = np.kron(np.diff(factor_a.adjacency.indptr),
                                  np.diff(factor_b.adjacency.indptr))
            assert out_degrees.max() > block * factor_b.nnz
        sink = NpyShardSink(tmp_path / "spill", name=product.name,
                            n_vertices=product.n_vertices, payload_columns=columns)
        distributed_generate(factor_a, factor_b, n_ranks, streaming=True,
                             a_edges_per_block=block, sink=sink,
                             payload_columns=columns)
        manifest = compact_shards(tmp_path / "spill", tmp_path / "store",
                                  target_shard_edges=target)

        adj = product.materialize_adjacency()
        src = np.repeat(np.arange(adj.shape[0], dtype=np.int64), np.diff(adj.indptr))
        dst = adj.indices.astype(np.int64)
        payloads = {
            "triangles": lambda: KroneckerTriangleStats.from_factors(
                factor_a, factor_b).edge_values(src, dst),
            "trussness": lambda: kron_truss_decomposition(
                factor_a, factor_b).edge_trussness_batch(src, dst),
        }
        rows = np.column_stack([src, dst] + [payloads[name]() for name in columns]
                               ).astype(np.int64)
        oracle = tmp_path / "oracle"
        oracle.mkdir()
        for index, start in enumerate(range(0, rows.shape[0], target)):
            np.save(oracle / f"shard-{index:06d}.npy", rows[start:start + target])

        files = sorted(path.name for path in oracle.glob("*.npy"))
        assert [shard["file"] for shard in manifest["shards"]] == files
        for name in files:
            assert ((tmp_path / "store" / name).read_bytes()
                    == (oracle / name).read_bytes()), name


# ---------------------------------------------------------------------------
# Property tests: compaction of an ordered spill is the identity, re-cut
# ---------------------------------------------------------------------------
@st.composite
def payload_spills(draw):
    """Random multi-shard spills of (src, dst, payload...) rows, strictly
    increasing in (src, dst) across the shards — or, when ``broken``, with
    two neighbouring rows swapped or one row repeated."""
    n_vertices = draw(st.integers(4, 40))
    n_payload = draw(st.integers(1, 3))
    pairs = sorted(draw(st.lists(
        st.tuples(st.integers(0, n_vertices - 1), st.integers(0, n_vertices - 1)),
        unique=True, max_size=120)))
    values = draw(st.lists(st.tuples(*[st.integers(-5, 5)] * n_payload),
                           min_size=len(pairs), max_size=len(pairs)))
    rows = np.asarray([pair + value for pair, value in zip(pairs, values)],
                      dtype=np.int64).reshape(len(pairs), 2 + n_payload)
    broken = len(pairs) >= 2 and draw(st.booleans())
    if broken:
        at = draw(st.integers(0, len(pairs) - 2))
        if draw(st.booleans()):
            rows[[at, at + 1]] = rows[[at + 1, at]]
        else:
            rows[at + 1] = rows[at]
    cuts = sorted(draw(st.lists(st.integers(0, len(pairs)), max_size=5)))
    return n_vertices, n_payload, np.split(rows, cuts), broken


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(spill=payload_spills(), target=st.integers(1, 50))
def test_compaction_permutes_rows_identically(tmp_path, spill, target):
    """Compaction of a (src, dst)-ordered spill is the identity permutation,
    re-cut: the store is exactly the spill's rows concatenated — payloads
    attached — in shards of ``target`` rows.  A spill that breaks the order
    raises and publishes no manifest."""
    n_vertices, n_payload, shards, broken = spill
    spill_dir = tmp_path / f"spill-{target}"
    names = tuple(f"c{i}" for i in range(n_payload))
    sink = NpyShardSink(spill_dir, n_vertices=n_vertices, payload_columns=names)
    for index, rows in enumerate(shards):
        sink.write(0, index, rows)
    sink.finalize()
    store_dir = tmp_path / f"store-{target}"
    if broken:
        with pytest.raises(ValueError, match="strictly increasing"):
            compact_shards(spill_dir, store_dir, target_shard_edges=target)
        assert not (store_dir / "manifest.json").exists()
        return
    manifest = compact_shards(spill_dir, store_dir, target_shard_edges=target)
    everything = np.concatenate(shards)
    assert np.array_equal(load_edge_shards(store_dir), everything)
    sizes = [shard["n_edges"] for shard in manifest["shards"]]
    assert sizes == [min(target, everything.shape[0] - start)
                     for start in range(0, everything.shape[0], target)]
    assert manifest["payload_columns"] == ["src", "dst", *names]


# ---------------------------------------------------------------------------
# Manifest lifecycle: atomic writes, crash recovery, stale-shard cleanup
# ---------------------------------------------------------------------------
class TestManifestLifecycle:
    def test_truncated_manifest_clear_error(self, payload_store):
        """A torn manifest write surfaces as a ValueError naming the file,
        never a raw json.JSONDecodeError."""
        manifest_path = payload_store / "manifest.json"
        text = manifest_path.read_text()
        manifest_path.write_text(text[: len(text) // 2])
        with pytest.raises(ValueError, match="manifest.json.*not valid JSON"):
            read_shard_manifest(payload_store)
        with pytest.raises(ValueError, match="truncated or interrupted"):
            ShardStore(payload_store)

    def test_manifest_write_is_atomic(self, tmp_path, payload_spill,
                                      monkeypatch):
        """A crash mid-publish leaves no manifest.json at all (the bytes only
        ever land in the temp file)."""
        import repro.graphs.io as io_mod

        def exploding_replace(src, dst):
            raise OSError("simulated crash during publish")

        monkeypatch.setattr(io_mod.os, "replace", exploding_replace)
        with pytest.raises(OSError, match="simulated crash"):
            compact_shards(payload_spill, tmp_path / "dest")
        assert not (tmp_path / "dest" / "manifest.json").exists()
        monkeypatch.undo()
        # the interrupted destination recompacts cleanly
        manifest = compact_shards(payload_spill, tmp_path / "dest")
        store_files = {p.name for p in (tmp_path / "dest").glob("*.npy")}
        assert store_files == {s["file"] for s in manifest["shards"]}

    def test_killed_between_shards_and_manifest_rerun(self, tmp_path,
                                                      payload_spill,
                                                      expected_rows,
                                                      monkeypatch):
        """Simulate a kill after the shards are cut but before the manifest is
        published; the rerun must produce a complete, correct store."""
        dest = tmp_path / "dest"
        calls = {"n": 0}
        real_write = compaction_mod.write_shard_manifest

        def dying_write(directory, manifest):
            calls["n"] += 1
            raise KeyboardInterrupt  # the kill

        monkeypatch.setattr(compaction_mod, "write_shard_manifest", dying_write)
        with pytest.raises(KeyboardInterrupt):
            compact_shards(payload_spill, dest, target_shard_edges=700)
        assert calls["n"] == 1
        assert list(dest.glob("*.npy"))  # shards landed...
        assert not (dest / "manifest.json").exists()  # ...manifest did not
        with pytest.raises(FileNotFoundError):
            read_shard_manifest(dest)
        monkeypatch.setattr(compaction_mod, "write_shard_manifest", real_write)
        compact_shards(payload_spill, dest, target_shard_edges=1500)
        assert np.array_equal(load_edge_shards(dest), expected_rows)
        files = {p.name for p in dest.glob("*.npy")}
        assert files == {s["file"] for s in read_shard_manifest(dest)["shards"]}

    def test_recompaction_removes_orphaned_shards(self, tmp_path, payload_spill,
                                                  expected_rows):
        """A coarser re-compaction into a reused destination must delete the
        finer run's now-unlisted shard files (and any stray .npy)."""
        dest = tmp_path / "dest"
        compact_shards(payload_spill, dest, target_shard_edges=300)
        n_fine = len(read_shard_manifest(dest)["shards"])
        stray = dest / "not-a-listed-shard.npy"
        np.save(stray, np.zeros((3, 2), dtype=np.int64))
        manifest = compact_shards(payload_spill, dest, target_shard_edges=5000)
        assert len(manifest["shards"]) < n_fine
        assert not stray.exists()
        files = {p.name for p in dest.glob("*.npy")}
        assert files == {s["file"] for s in manifest["shards"]}
        assert np.array_equal(load_edge_shards(dest), expected_rows)


class TestRangeSanityInValidator:
    """The shard vertex-range checks moved into _validate_shard_manifest:
    every consumer fails with the same field-naming ValueError."""

    def _corrupt(self, store_dir, mutate):
        manifest_path = store_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        mutate(manifest)
        manifest_path.write_text(json.dumps(manifest))

    def test_src_min_exceeds_src_max(self, payload_store):
        def mutate(manifest):
            manifest["shards"][0]["src_min"] = \
                manifest["shards"][0]["src_max"] + 1
        self._corrupt(payload_store, mutate)
        with pytest.raises(ValueError, match=r"src_min.*exceeds src_max"):
            read_shard_manifest(payload_store)

    def test_negative_range_field(self, payload_store):
        self._corrupt(payload_store,
                      lambda m: m["shards"][0].update(src_min=-1))
        with pytest.raises(ValueError, match=r"src_min.*non-negative"):
            read_shard_manifest(payload_store)

    def test_non_integer_range_field(self, payload_store):
        self._corrupt(payload_store,
                      lambda m: m["shards"][0].update(src_max="ten"))
        with pytest.raises(ValueError, match=r"src_max.*non-negative integer"):
            read_shard_manifest(payload_store)

    def test_decreasing_ranges_fail_for_every_consumer(self, payload_store):
        def swap(manifest):
            shards = manifest["shards"]
            if len(shards) >= 2:
                shards[0], shards[1] = shards[1], shards[0]
        assert len(read_shard_manifest(payload_store)["shards"]) >= 2
        self._corrupt(payload_store, swap)
        with pytest.raises(ValueError, match="nondecreasing"):
            read_shard_manifest(payload_store)
        with pytest.raises(ValueError, match="nondecreasing"):
            ShardStore(payload_store)
        with pytest.raises(ValueError, match="nondecreasing"):
            next(iter_edge_shards(payload_store))
        from repro.cli import main
        # The CLI exits with the validator's message, naming the store.
        with pytest.raises(SystemExit, match="nondecreasing"):
            main(["query", str(payload_store), "--degree", "0"])
