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

    def test_concurrent_shard_opens_from_many_threads(self, tmp_path,
                                                      small_er, triangle,
                                                      monkeypatch):
        """Shard opens parse no Python literals, so they need no lock: 8
        threads open every shard of a spill in both read modes, with the
        interpreter switching threads every microsecond and ``np.load`` /
        ``ast.literal_eval`` patched to fail if anything still calls them."""
        import ast
        import mmap
        import sys
        import threading

        from repro.core import KroneckerGraph
        from repro.graphs.io import read_edge_shard

        product = KroneckerGraph(small_er, triangle)
        write_edge_shards(product, tmp_path / "shards", a_edges_per_block=5)
        manifest = read_shard_manifest(tmp_path / "shards")
        paths = [tmp_path / "shards" / shard["file"]
                 for shard in manifest["shards"]]
        expected = list(iter_edge_shards(tmp_path / "shards"))

        def forbidden(*args, **kwargs):
            raise AssertionError("a shard open went through np.load")

        monkeypatch.setattr(np, "load", forbidden)
        monkeypatch.setattr(ast, "literal_eval", forbidden)
        failures = []

        def reader():
            try:
                for _ in range(3):
                    for mode in ("r", None):
                        for path, rows in zip(paths, expected):
                            block = read_edge_shard(path, ["src", "dst"],
                                                    mmap_mode=mode)
                            # A mapped block is a read-only view over one
                            # mmap; an eager block is a private copy.
                            mapped = mode == "r"
                            assert isinstance(block.base, mmap.mmap) == mapped
                            assert block.flags.writeable == (not mapped)
                            assert np.array_equal(block, rows)
            except Exception as exc:  # surfaced on the main thread below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not failures, failures[:2]

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

    def test_manifest_lists_blocks_in_numeric_order(self, tmp_path):
        """Rank and block numbers past the zero padding still sort as
        numbers, so a spill read in manifest order stays (src, dst)-ordered."""
        sink = NpyShardSink(tmp_path / "shards")
        for rank, block in ((100000, 0), (0, 1000000), (99999, 0), (0, 999999)):
            sink.write(rank, block, np.asarray([[rank, block]], dtype=np.int64))
        files = [shard["file"] for shard in sink.finalize()["shards"]]
        assert files == ["edges-r00000-b999999.npy", "edges-r00000-b1000000.npy",
                         "edges-r99999-b000000.npy", "edges-r100000-b000000.npy"]
        np.save(tmp_path / "shards" / "edges-rX-b0.npy", np.zeros((0, 2), np.int64))
        with pytest.raises(ValueError, match="edges-rX-b0.npy"):
            sink.finalize()

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

    def test_v1_manifest_says_to_restream(self, tmp_path, small_er, triangle,
                                          downgrade_to_v1):
        """A spill of an earlier release (manifest v1: no source ranges, no
        ``sorted_by``) is not upgraded: the reader names its version and
        says to re-stream."""
        from repro.core import KroneckerGraph

        write_edge_shards(KroneckerGraph(small_er, triangle), tmp_path / "shards")
        manifest = read_shard_manifest(tmp_path / "shards")
        assert manifest["format_version"] == 2
        assert manifest["sorted_by"] == "source"
        assert manifest["payload_columns"] == ["src", "dst"]
        downgrade_to_v1(tmp_path / "shards")
        with pytest.raises(ValueError, match="format_version 1.*re-stream"):
            read_shard_manifest(tmp_path / "shards")

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


def _pad_header(path, data_offset: int) -> None:
    """Rewrite the ``.npy`` v1.0 file at *path* with its header padded by
    spaces so its rows start at *data_offset*: still a valid shard, since
    the header check accepts any run of spaces before the newline."""
    import struct

    data = path.read_bytes()
    (length,) = struct.unpack("<H", data[8:10])
    header, rows = data[10:10 + length], data[10 + length:]
    padded = header[:-1] + b" " * (data_offset - 10 - length) + b"\n"
    path.write_bytes(data[:8] + struct.pack("<H", len(padded)) + padded + rows)


class TestShardOpen:
    """The shard reader's one-read open: a header longer than the first
    read, descriptors released on failure, and the one header check that
    the spill sink shares."""

    def test_header_padded_past_the_first_read(self, tmp_path):
        from repro.graphs import io as graph_io
        from repro.graphs.io import read_edge_shard

        rows = np.arange(24, dtype=np.int64).reshape(8, 3)
        path = tmp_path / "padded.npy"
        np.save(path, rows)
        offset = graph_io._HEADER_READ + 64
        _pad_header(path, offset)
        assert path.stat().st_size == offset + rows.nbytes
        for mode in ("r", None):
            decoded = read_edge_shard(path, ["src", "dst", "triangles"],
                                      mmap_mode=mode)
            assert decoded.dtype == np.int64
            assert np.array_equal(decoded, rows)

    def test_failing_opens_release_their_descriptor(self, tmp_path):
        import gc
        import os

        from repro.graphs.io import read_edge_shard

        path = tmp_path / "truncated.npy"
        np.save(path, np.arange(8, dtype=np.int64).reshape(4, 2))
        path.write_bytes(path.read_bytes()[:-8])
        gc.collect()
        before = len(os.listdir("/proc/self/fd"))
        for attempt in range(100):
            with pytest.raises(ValueError, match="truncated"):
                read_edge_shard(path, ["src", "dst"],
                                mmap_mode="r" if attempt % 2 else None)
        gc.collect()
        # A leak would hold one descriptor per failing open: 100.
        assert len(os.listdir("/proc/self/fd")) <= before + 1

    def test_eager_read_continues_short_reads(self, tmp_path, monkeypatch):
        """A read that moves fewer bytes than asked (Linux moves at most
        2 GiB per call) is continued at the next byte, and a file that
        ends before its rows is a ValueError naming it: a positional read
        that returns 0 bytes stands for one truncated between the header
        check and the read."""
        import os

        from repro.graphs.io import read_edge_shard

        rows = np.arange(60, dtype=np.int64).reshape(15, 4)
        path = tmp_path / "shard.npy"
        np.save(path, rows)
        real_preadv, calls = os.preadv, []

        def short_preadv(fd, buffers, offset):
            calls.append(offset)
            chunk = memoryview(buffers[0]).cast("B")[:56]
            return real_preadv(fd, [chunk], offset)

        monkeypatch.setattr(os, "preadv", short_preadv)
        decoded = read_edge_shard(path, ["src", "dst", "a", "b"])
        assert decoded.dtype == np.int64 and np.array_equal(decoded, rows)
        assert len(calls) == -(-rows.nbytes // 56)

        def ending_preadv(fd, buffers, offset):
            return short_preadv(fd, buffers, offset) if not calls else 0

        calls.clear()
        monkeypatch.setattr(os, "preadv", ending_preadv)
        with pytest.raises(ValueError, match="truncated") as caught:
            read_edge_shard(path, ["src", "dst", "a", "b"])
        assert str(path) in str(caught.value)

    def test_sink_reads_block_lengths_through_the_shard_check(self, tmp_path):
        from repro.graphs.io import read_edge_shard

        sink = NpyShardSink(tmp_path / "spill", n_vertices=8)
        sink.write(0, 0, np.asarray([[0, 1], [0, 2], [1, 0]]))
        sink.write(0, 1, np.asarray([[5, 6]]))
        _pad_header(sink.shard_path(0, 0), 320)
        manifest = sink.finalize()
        assert [s["n_edges"] for s in manifest["shards"]] == [3, 1]
        spoiled = sink.shard_path(0, 1)
        spoiled.write_bytes(spoiled.read_bytes()[:-8])
        with pytest.raises(ValueError) as read_error:
            read_edge_shard(spoiled, ["src", "dst"])
        with pytest.raises(ValueError) as finalize_error:
            sink.finalize()
        assert str(finalize_error.value) == str(read_error.value)
        assert str(spoiled) in str(read_error.value)


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

    @staticmethod
    def _valid_v2():
        return {"kind": "edge-shards", "format_version": 2, "name": "x",
                "n_vertices": 4, "total_edges": 1, "sorted_by": "source",
                "payload_columns": ["src", "dst"],
                "shards": [{"file": "edges-r00000-b000000.npy", "n_edges": 1,
                            "src_min": 0, "src_max": 0}]}

    def test_valid_v2_passes(self, tmp_path):
        d = self._write_manifest(tmp_path / "ok", self._valid_v2())
        assert read_shard_manifest(d)["total_edges"] == 1
        d = self._write_manifest(tmp_path / "old", self._valid_v1())
        with pytest.raises(ValueError, match="format_version 1.*re-stream"):
            read_shard_manifest(d)

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
        payload = self._valid_v2()
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

    def test_v2_shards_not_a_list(self, tmp_path):
        """The v1 base of ``test_shards_not_a_list`` is refused for its
        version first; on a v2 base the ``shards`` type rule is reached."""
        payload = self._valid_v2()
        payload["shards"] = {"file": "x.npy"}
        d = self._write_manifest(tmp_path / "bad", payload)
        with pytest.raises(ValueError, match="'shards' must be a list"):
            read_shard_manifest(d)

    def test_shard_entry_missing_field_named_with_index(self, tmp_path):
        payload = self._valid_v2()
        payload["shards"] = [{"file": "a.npy", "n_edges": 1, "src_min": 0,
                              "src_max": 0},
                             {"file": "b.npy", "src_min": 1, "src_max": 1}]
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
