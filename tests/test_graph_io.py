"""Tests for edge-list I/O and the compressed Kronecker bundle format."""

import numpy as np
import pytest

from repro.graphs import (
    DirectedGraph,
    Graph,
    NpyShardSink,
    VertexLabeledGraph,
    iter_edge_shards,
    load_edge_shards,
    load_kronecker_bundle,
    read_directed_edge_list,
    read_edge_list,
    read_shard_manifest,
    save_kronecker_bundle,
    write_edge_list,
    write_edge_shards,
)
from repro import generators


class TestEdgeListIO:
    def test_undirected_round_trip(self, tmp_path, small_er):
        path = tmp_path / "er.tsv"
        write_edge_list(small_er, path)
        back = read_edge_list(path)
        assert back == small_er

    def test_directed_round_trip(self, tmp_path, directed_small):
        path = tmp_path / "dir.tsv"
        write_edge_list(directed_small, path)
        back = read_directed_edge_list(path)
        assert back == directed_small

    def test_header_preserves_isolated_vertices(self, tmp_path):
        g = Graph.from_edges([(0, 1)], n_vertices=7)
        path = tmp_path / "iso.tsv"
        write_edge_list(g, path)
        back = read_edge_list(path)
        assert back.n_vertices == 7

    def test_no_header(self, tmp_path, triangle):
        path = tmp_path / "tri.tsv"
        write_edge_list(triangle, path, header=False)
        text = path.read_text()
        assert not text.startswith("#")
        assert read_edge_list(path) == triangle

    def test_explicit_n_vertices_override(self, tmp_path, triangle):
        path = tmp_path / "tri.tsv"
        write_edge_list(triangle, path, header=False)
        back = read_edge_list(path, n_vertices=10)
        assert back.n_vertices == 10

    def test_comma_separated_accepted(self, tmp_path):
        path = tmp_path / "csv.txt"
        path.write_text("0,1\n1,2\n")
        g = read_edge_list(path)
        assert g.n_edges == 2

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0\n")
        with pytest.raises(ValueError):
            read_edge_list(path)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "blank.txt"
        path.write_text("0 1\n\n1 2\n")
        assert read_edge_list(path).n_edges == 2

    def test_self_loops_survive_round_trip(self, tmp_path):
        g = generators.looped_clique(3)
        path = tmp_path / "loops.tsv"
        write_edge_list(g, path)
        assert read_edge_list(path) == g


class TestKroneckerBundle:
    def test_undirected_bundle_round_trip(self, tmp_path, weblike_small):
        factor_b = weblike_small.with_self_loops()
        path = tmp_path / "bundle.npz"
        save_kronecker_bundle(path, weblike_small, factor_b, metadata={"purpose": "test"})
        a, b, meta = load_kronecker_bundle(path)
        assert a == weblike_small
        assert b == factor_b
        assert meta["purpose"] == "test"
        assert meta["factor_kinds"] == ["undirected", "undirected"]

    def test_directed_bundle_round_trip(self, tmp_path, directed_small, small_er):
        path = tmp_path / "bundle.npz"
        save_kronecker_bundle(path, directed_small, small_er)
        a, b, _ = load_kronecker_bundle(path)
        assert isinstance(a, DirectedGraph)
        assert a == directed_small
        assert isinstance(b, Graph)
        assert b == small_er

    def test_labeled_bundle_round_trip(self, tmp_path, labeled_small, small_er):
        path = tmp_path / "bundle.npz"
        save_kronecker_bundle(path, labeled_small, small_er)
        a, b, meta = load_kronecker_bundle(path)
        assert isinstance(a, VertexLabeledGraph)
        assert a.labels.tolist() == labeled_small.labels.tolist()
        assert meta["factor_kinds"][0] == "labeled"

    def test_bundle_stores_names(self, tmp_path, weblike_small, triangle):
        path = tmp_path / "bundle.npz"
        save_kronecker_bundle(path, weblike_small, triangle)
        a, b, meta = load_kronecker_bundle(path)
        assert a.name == weblike_small.name
        assert meta["factor_names"][1] == triangle.name

    def test_bundle_is_compressed_representation(self, tmp_path, weblike_small):
        """The bundle is tiny compared to the product it describes."""
        path = tmp_path / "bundle.npz"
        save_kronecker_bundle(path, weblike_small, weblike_small)
        from repro.core import KroneckerGraph

        product_nnz = KroneckerGraph(weblike_small, weblike_small).nnz
        assert path.stat().st_size < product_nnz  # bytes << product entries


class TestEdgeShards:
    def test_write_and_load_round_trip(self, tmp_path, small_er, triangle):
        from repro.core import KroneckerGraph

        product = KroneckerGraph(small_er, triangle)
        written = write_edge_shards(product, tmp_path / "shards",
                                    a_edges_per_block=5)
        assert written == product.nnz
        edges = load_edge_shards(tmp_path / "shards")
        assert np.array_equal(edges, product.edges())

    def test_manifest_contents(self, tmp_path, small_er, triangle):
        from repro.core import KroneckerGraph

        product = KroneckerGraph(small_er, triangle)
        write_edge_shards(product, tmp_path / "shards", a_edges_per_block=5,
                          metadata={"source": "test"})
        manifest = read_shard_manifest(tmp_path / "shards")
        assert manifest["kind"] == "edge-shards"
        assert manifest["name"] == product.name
        assert manifest["n_vertices"] == product.n_vertices
        assert manifest["total_edges"] == product.nnz
        assert manifest["metadata"] == {"source": "test"}
        # every shard is one bounded block
        assert all(s["n_edges"] <= 5 * triangle.nnz for s in manifest["shards"])

    def test_iter_matches_block_schedule(self, tmp_path, small_er, triangle):
        from repro.core import KroneckerGraph

        product = KroneckerGraph(small_er, triangle)
        write_edge_shards(product, tmp_path / "shards", a_edges_per_block=7)
        streamed = list(product.iter_edge_blocks(a_edges_per_block=7))
        loaded = list(iter_edge_shards(tmp_path / "shards"))
        assert len(loaded) == len(streamed)
        for got, expected in zip(loaded, streamed):
            assert np.array_equal(got, expected)

    def test_same_files_as_one_rank_pipeline(self, tmp_path):
        """The topology-only writer spills the same shard and manifest bytes
        as the streaming pipeline on one rank."""
        from repro.core import KroneckerGraph
        from repro.parallel import distributed_generate

        factor_a = generators.webgraph_like(40, seed=3)
        factor_b = generators.triangle_constrained_pa(12, seed=4)
        product = KroneckerGraph(factor_a, factor_b)
        write_edge_shards(product, tmp_path / "writer", a_edges_per_block=8)
        sink = NpyShardSink(tmp_path / "pipeline", name=product.name,
                            n_vertices=product.n_vertices)
        distributed_generate(factor_a, factor_b, 1, streaming=True,
                             a_edges_per_block=8, sink=sink,
                             with_statistics=False)
        files = sorted(path.name for path in (tmp_path / "writer").iterdir())
        assert len(files) > 2
        assert files == sorted(path.name
                               for path in (tmp_path / "pipeline").iterdir())
        for name in files:
            assert ((tmp_path / "writer" / name).read_bytes()
                    == (tmp_path / "pipeline" / name).read_bytes())

    def test_concurrent_shard_opens_never_overlap(self, tmp_path, small_er,
                                                  triangle, monkeypatch):
        """``np.load`` parses ``.npy`` headers with ``ast.literal_eval``,
        which CPython 3.11 cannot run on two threads at once (a spurious
        ``SystemError``): shard opens from many threads are serialized, and
        both read modes still return the stored rows."""
        import threading
        import time

        from repro.core import KroneckerGraph
        from repro.graphs.io import read_edge_shard

        product = KroneckerGraph(small_er, triangle)
        write_edge_shards(product, tmp_path / "shards", a_edges_per_block=5)
        manifest = read_shard_manifest(tmp_path / "shards")
        paths = [tmp_path / "shards" / shard["file"]
                 for shard in manifest["shards"]]
        expected = list(iter_edge_shards(tmp_path / "shards"))

        real_load = np.load
        counter = threading.Lock()
        inside, peaks = [0], []

        def slow_load(*args, **kwargs):
            with counter:
                inside[0] += 1
                peaks.append(inside[0])
            try:
                time.sleep(0.002)  # widen the window two opens could share
                return real_load(*args, **kwargs)
            finally:
                with counter:
                    inside[0] -= 1

        monkeypatch.setattr(np, "load", slow_load)
        failures = []

        def reader():
            try:
                for mode in ("r", None):
                    for path, rows in zip(paths, expected):
                        block = read_edge_shard(path, ["src", "dst"],
                                                mmap_mode=mode)
                        assert isinstance(block, np.memmap) == (mode == "r")
                        assert np.array_equal(block, rows)
            except Exception as exc:  # surfaced on the main thread below
                failures.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not failures, failures[:2]
        assert len(peaks) == 4 * 2 * len(paths)
        assert max(peaks) == 1

    def test_max_edges_cap(self, tmp_path, small_er, triangle):
        from repro.core import KroneckerGraph

        product = KroneckerGraph(small_er, triangle)
        written = write_edge_shards(product, tmp_path / "shards",
                                    a_edges_per_block=5, max_edges=17)
        assert written == 17
        assert load_edge_shards(tmp_path / "shards").shape[0] == 17

    def test_sink_is_picklable(self, tmp_path):
        import pickle

        sink = NpyShardSink(tmp_path / "shards", name="x", n_vertices=9)
        clone = pickle.loads(pickle.dumps(sink))
        assert clone.directory == sink.directory
        assert clone.name == "x" and clone.n_vertices == 9

    def test_finalize_is_idempotent(self, tmp_path):
        sink = NpyShardSink(tmp_path / "shards")
        sink.write(0, 0, np.asarray([[1, 2], [3, 4]], dtype=np.int64))
        first = sink.finalize()
        second = sink.finalize()
        assert first == second
        assert first["total_edges"] == 2

    def test_finalize_publishes_atomically(self, tmp_path):
        """finalize leaves no temp file behind, and a crash before the
        os.replace leaves no manifest at all (never a torn one)."""
        sink = NpyShardSink(tmp_path / "shards")
        sink.write(0, 0, np.asarray([[1, 2]], dtype=np.int64))
        sink.finalize()
        assert not (tmp_path / "shards" / "manifest.json.tmp").exists()
        assert read_shard_manifest(tmp_path / "shards")["total_edges"] == 1

    def test_truncated_manifest_wrapped_in_value_error(self, tmp_path):
        import json

        sink = NpyShardSink(tmp_path / "shards")
        sink.write(0, 0, np.asarray([[1, 2]], dtype=np.int64))
        sink.finalize()
        manifest_path = tmp_path / "shards" / "manifest.json"
        text = manifest_path.read_text()
        manifest_path.write_text(text[: len(text) // 2])
        with pytest.raises(ValueError, match="manifest.json.*not valid JSON"):
            read_shard_manifest(tmp_path / "shards")
        with pytest.raises(ValueError, match="truncated or interrupted"):
            try:
                read_shard_manifest(tmp_path / "shards")
            except ValueError as exc:
                assert isinstance(exc.__cause__, json.JSONDecodeError)
                raise

    def test_shard_width_must_match_manifest(self, tmp_path):
        sink = NpyShardSink(tmp_path / "shards", payload_columns=("w",))
        sink.write(0, 0, np.asarray([[1, 2, 9]], dtype=np.int64))
        sink.finalize()
        np.save(sink.shard_path(0, 0), np.asarray([[1, 2]], dtype=np.int64))
        with pytest.raises(ValueError, match="require 3 columns"):
            next(iter_edge_shards(tmp_path / "shards"))

    def test_manifest_missing_raises(self, tmp_path):
        (tmp_path / "not-shards").mkdir()
        with pytest.raises(FileNotFoundError):
            read_shard_manifest(tmp_path / "not-shards")

    def test_wrong_manifest_kind_rejected(self, tmp_path):
        import json

        d = tmp_path / "other"
        d.mkdir()
        (d / "manifest.json").write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(ValueError, match="edge-shard"):
            read_shard_manifest(d)

    def test_v1_manifest_upgraded_transparently(self, tmp_path, small_er, triangle):
        """The reader fills the v2-era fields so consumers see one shape."""
        from repro.core import KroneckerGraph

        write_edge_shards(KroneckerGraph(small_er, triangle), tmp_path / "shards")
        manifest = read_shard_manifest(tmp_path / "shards")
        assert manifest["format_version"] == 1
        assert manifest["sorted_by"] is None
        assert manifest["payload_columns"] == ["src", "dst"]

    def test_rerun_into_same_directory_discards_stale_shards(self, tmp_path, small_er, triangle):
        """Regression: a re-spill must not fold a previous run's shards in."""
        from repro.core import KroneckerGraph

        product = KroneckerGraph(small_er, triangle)
        write_edge_shards(product, tmp_path / "shards", a_edges_per_block=4)
        first = read_shard_manifest(tmp_path / "shards")
        write_edge_shards(product, tmp_path / "shards", a_edges_per_block=64)
        second = read_shard_manifest(tmp_path / "shards")
        assert second["total_edges"] == first["total_edges"] == product.nnz
        assert len(second["shards"]) < len(first["shards"])
        assert load_edge_shards(tmp_path / "shards").shape[0] == product.nnz


class TestManifestValidation:
    """Corrupted or foreign manifests must fail with a field-naming ValueError
    (never a bare KeyError deep inside a consumer)."""

    @staticmethod
    def _write_manifest(directory, payload):
        import json

        directory.mkdir(exist_ok=True)
        (directory / "manifest.json").write_text(json.dumps(payload))
        return directory

    @staticmethod
    def _valid_v1():
        return {"kind": "edge-shards", "format_version": 1, "name": "x",
                "n_vertices": 4, "total_edges": 1,
                "shards": [{"file": "edges-r00000-b000000.npy", "n_edges": 1}]}

    def test_valid_v1_passes(self, tmp_path):
        d = self._write_manifest(tmp_path / "ok", self._valid_v1())
        assert read_shard_manifest(d)["total_edges"] == 1

    def test_not_an_object(self, tmp_path):
        d = self._write_manifest(tmp_path / "bad", ["not", "a", "dict"])
        with pytest.raises(ValueError, match="JSON object"):
            read_shard_manifest(d)

    def test_missing_kind(self, tmp_path):
        payload = self._valid_v1()
        del payload["kind"]
        d = self._write_manifest(tmp_path / "bad", payload)
        with pytest.raises(ValueError, match="edge-shard"):
            read_shard_manifest(d)

    @pytest.mark.parametrize("field", ["format_version", "n_vertices",
                                       "total_edges", "shards"])
    def test_missing_required_field_named(self, tmp_path, field):
        payload = self._valid_v1()
        del payload[field]
        d = self._write_manifest(tmp_path / "bad", payload)
        with pytest.raises(ValueError, match=field):
            read_shard_manifest(d)

    def test_unsupported_version(self, tmp_path):
        payload = self._valid_v1()
        payload["format_version"] = 99
        d = self._write_manifest(tmp_path / "bad", payload)
        with pytest.raises(ValueError, match="format_version 99"):
            read_shard_manifest(d)

    def test_shards_not_a_list(self, tmp_path):
        payload = self._valid_v1()
        payload["shards"] = {"file": "x.npy"}
        d = self._write_manifest(tmp_path / "bad", payload)
        with pytest.raises(ValueError, match="shards"):
            read_shard_manifest(d)

    def test_shard_entry_missing_field_named_with_index(self, tmp_path):
        payload = self._valid_v1()
        payload["shards"] = [{"file": "a.npy", "n_edges": 1}, {"file": "b.npy"}]
        d = self._write_manifest(tmp_path / "bad", payload)
        with pytest.raises(ValueError, match=r"shards\[1\].*n_edges"):
            read_shard_manifest(d)

    def test_v2_requires_ranges_per_shard(self, tmp_path):
        payload = self._valid_v1()
        payload.update(format_version=2, sorted_by="source",
                       payload_columns=["src", "dst"])
        d = self._write_manifest(tmp_path / "bad", payload)
        with pytest.raises(ValueError, match="src_min"):
            read_shard_manifest(d)

    def test_v2_requires_sort_metadata(self, tmp_path):
        payload = self._valid_v1()
        payload["format_version"] = 2
        payload["shards"][0].update(src_min=0, src_max=3)
        d = self._write_manifest(tmp_path / "bad", payload)
        with pytest.raises(ValueError, match="sorted_by"):
            read_shard_manifest(d)
