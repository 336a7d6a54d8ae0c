"""Every spill is a store: the sink's output is served as it was written.

:class:`~repro.graphs.NpyShardSink` checks that every block's rows strictly
increase in ``(src, dst)``, that each shard starts after the previous one,
and publishes a manifest v2 with per-shard source ranges.  So a spill
answers every query — in process, served and routed — byte-equal to its own
compaction; sequential and process-pool runs write the same bytes; rows out
of order are refused by name before any manifest exists; a manifest v1
directory of an earlier release is refused everywhere with a message that
says to re-stream; and a manifest whose edge counts disagree with its
shards is refused instead of read into uninitialized rows.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from _fleet_harness import FleetHarness
from repro import cli
from repro.core import KroneckerGraph
from repro.graphs import (
    NpyShardSink,
    iter_edge_shards,
    load_edge_shards,
    read_shard_manifest,
    save_kronecker_bundle,
)
from repro.parallel import distributed_generate
from repro.serve import QueryClient, ThreadedServer
from repro.store import ShardStore, compact_shards, partition_manifest

PAYLOAD = ("triangles", "trussness")


def _spill(directory, factor_a, factor_b, **kwargs) -> Path:
    """A 4-rank payload spill of ``factor_a ⊗ factor_b`` at 8 A entries
    per block (a few dozen shards)."""
    product = KroneckerGraph(factor_a, factor_b)
    sink = NpyShardSink(directory, name=product.name,
                        n_vertices=product.n_vertices,
                        payload_columns=PAYLOAD)
    distributed_generate(factor_a, factor_b, 4, streaming=True,
                         a_edges_per_block=8, sink=sink,
                         payload_columns=PAYLOAD, **kwargs)
    return Path(directory)


@pytest.fixture
def spill_dir(tmp_path, weblike_small, delta_le_one_factor):
    return _spill(tmp_path / "spill", weblike_small, delta_le_one_factor)


@pytest.fixture
def compacted_dir(tmp_path, spill_dir):
    compact_shards(spill_dir, tmp_path / "store", target_shard_edges=1500)
    return tmp_path / "store"


def _assert_same(got, expected) -> None:
    """Byte equality of two answers: dicts key by key, arrays by dtype,
    shape and value, everything else by ``==``."""
    if isinstance(expected, dict):
        assert isinstance(got, dict) and got.keys() == expected.keys()
        for key in expected:
            _assert_same(got[key], expected[key])
    elif isinstance(expected, np.ndarray):
        assert isinstance(got, np.ndarray)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert np.array_equal(got, expected)
    elif isinstance(expected, (list, tuple)):
        assert type(got) is type(expected) and len(got) == len(expected)
        for left, right in zip(got, expected):
            _assert_same(left, right)
    else:
        assert got == expected


def _probes(store: ShardStore, seed: int = 11):
    """Vertices, ranges and stored pairs over the whole store, shard
    boundaries included."""
    rng = np.random.default_rng(seed)
    n = store.n_vertices
    bounds = [shard[end] for shard in store.manifest["shards"]
              for end in ("src_min", "src_max")]
    vertices = sorted({0, n - 1, *bounds,
                       *map(int, rng.integers(0, n, 24))})
    ranges = [(0, n), (5, 5)] + [
        tuple(sorted(map(int, rng.integers(0, n + 1, 2)))) for _ in range(12)]
    rows = store.edges_in_range(0, n)
    pairs = rows[rng.choice(rows.shape[0], 40, replace=False), :2]
    return vertices, ranges, pairs


def _local_answers(store: ShardStore, vertices, ranges, pairs) -> list:
    """The store's whole query surface over the probes, in one list."""
    answers = [store.degrees(vertices), store.out_degrees(vertices),
               store.edge_payloads(pairs[:, 0], pairs[:, 1])]
    for with_payload in (False, True):
        answers.append(store.edges_for_sources(vertices[::-1],
                                               with_payload=with_payload))
        answers += [store.edges_in_range(lo, hi, with_payload=with_payload)
                    for lo, hi in ranges]
        answers += [store.egonet_edges(v, with_payload=with_payload)
                    for v in vertices[::4]]
        answers.append(store.subgraph_edges(vertices[::3],
                                            with_payload=with_payload))
    answers += [(store.neighbors(v), store.degree(v),
                 store.has_edge(v, v)) for v in vertices[::2]]
    return answers


def _wire_requests(vertices, ranges, pairs) -> list:
    """``(op, args)`` pairs covering every query op of the wire."""
    requests = [("degrees", {"vertices": vertices}),
                ("edge_payloads", {"ps": pairs[:, 0].tolist(),
                                   "qs": pairs[:, 1].tolist()})]
    for with_payload in (False, True):
        requests.append(("edges_for_sources",
                         {"vertices": vertices[::-1],
                          "with_payload": with_payload}))
        requests += [("edges_in_range", {"lo": lo, "hi": hi,
                                         "with_payload": with_payload})
                     for lo, hi in ranges]
        requests += [("egonet", {"vertex": v, "with_payload": with_payload,
                                 "include_members": True})
                     for v in vertices[::4]]
        requests.append(("subgraph", {"vertices": vertices[::3],
                                      "with_payload": with_payload}))
        requests += [("neighbors", {"vertex": v, "with_payload": with_payload})
                     for v in vertices[::2]]
    requests += [("degree", {"vertex": v}) for v in vertices[::2]]
    return requests


class TestSpillIsAStore:
    def test_manifest_is_v2_with_source_ranges(self, spill_dir, weblike_small,
                                               delta_le_one_factor):
        manifest = read_shard_manifest(spill_dir)
        assert manifest["format_version"] == 2
        assert manifest["sorted_by"] == "source"
        assert manifest["payload_columns"] == ["src", "dst", *PAYLOAD]
        assert len(manifest["shards"]) > 8
        rows = load_edge_shards(spill_dir)
        product = KroneckerGraph(weblike_small, delta_le_one_factor)
        assert rows.shape[0] == product.nnz == manifest["total_edges"]
        for shard, block in zip(manifest["shards"],
                                iter_edge_shards(spill_dir, mmap_mode="r")):
            assert shard["n_edges"] == block.shape[0]
            assert (shard["src_min"], shard["src_max"]) == (block[0, 0],
                                                            block[-1, 0])

    def test_in_process_answers_equal_the_compaction(self, spill_dir,
                                                     compacted_dir):
        spill = ShardStore(spill_dir, cache_shards=3)
        store = ShardStore(compacted_dir, cache_shards=3)
        assert spill.n_shards > store.n_shards
        probes = _probes(store)
        _assert_same(_local_answers(spill, *probes),
                     _local_answers(store, *probes))
        missing = (int(probes[2][0, 0]), store.n_vertices - 1)
        assert not store.has_edge(*missing)
        messages = []
        for each in (spill, store):
            with pytest.raises(ValueError) as caught:
                each.edge_payloads([missing[0]], [missing[1]])
            messages.append(str(caught.value))
            each.close()
        assert messages[0] == messages[1]

    def test_served_and_routed_answers_equal_the_compaction(self, spill_dir,
                                                            compacted_dir):
        """A server over the spill, and a two-slice router over
        ``partition_manifest`` of the spill, answer every wire op with
        the frames a server over the compaction sends."""
        store = ShardStore(compacted_dir)
        requests = _wire_requests(*_probes(store))
        store.close()
        with ThreadedServer(compacted_dir, cache_shards=3) as reference, \
                ThreadedServer(spill_dir, cache_shards=3) as served, \
                FleetHarness(spill_dir, n_slices=2, cache_shards=3) as fleet, \
                QueryClient(reference.host, reference.port) as expected, \
                QueryClient(served.host, served.port) as direct, \
                fleet.client() as routed:
            assert [entry["n_shards"] > 1 for entry in fleet.slices] \
                == [True, True]
            for op, args in requests:
                want = expected.request(op, args)
                _assert_same(direct.request(op, args), want)
                _assert_same(routed.request(op, args), want)
            for client in (expected, direct, routed):
                assert (client.hello()["store"]["total_edges"]
                        == read_shard_manifest(spill_dir)["total_edges"])


def test_process_pool_writes_the_same_spill(tmp_path, weblike_small,
                                            delta_le_one_factor):
    """Sequential and ``use_processes=True`` runs write byte-identical
    spill directories, manifest included: the sink keeps no per-rank
    state, and ``finalize`` reads only the files."""
    sequential = _spill(tmp_path / "sequential", weblike_small,
                        delta_le_one_factor)
    pooled = _spill(tmp_path / "pooled", weblike_small, delta_le_one_factor,
                    use_processes=True, max_workers=2)
    names = sorted(path.name for path in sequential.iterdir())
    assert "manifest.json" in names and len(names) > 8
    assert names == sorted(path.name for path in pooled.iterdir())
    for name in names:
        assert ((sequential / name).read_bytes()
                == (pooled / name).read_bytes()), name


class TestSinkRefusesUnorderedRows:
    """The sink names the shard file and publishes no manifest."""

    def test_block_out_of_order_inside_itself(self, tmp_path):
        sink = NpyShardSink(tmp_path / "spill", n_vertices=10)
        sink.write(0, 0, np.asarray([[0, 1], [0, 4]]))
        with pytest.raises(ValueError, match="strictly increasing") as caught:
            sink.write(0, 1, np.asarray([[1, 2], [1, 2]]))
        assert str(sink.shard_path(0, 1)) in str(caught.value)
        assert not sink.shard_path(0, 1).exists()
        assert not (tmp_path / "spill" / "manifest.json").exists()

    @pytest.mark.parametrize("second", [[[2, 9], [5, 0]], [[3, 4], [5, 0]]],
                             ids=["does-not-follow", "repeated-row"])
    def test_shard_that_does_not_follow_the_previous(self, tmp_path, second):
        sink = NpyShardSink(tmp_path / "spill", n_vertices=10)
        sink.write(0, 0, np.asarray([[1, 2], [3, 4]]))
        sink.write(1, 0, np.asarray(second))
        with pytest.raises(ValueError, match="strictly increasing") as caught:
            sink.finalize()
        assert str(sink.shard_path(1, 0)) in str(caught.value)
        assert not (tmp_path / "spill" / "manifest.json").exists()

    def test_empty_block_writes_no_file(self, tmp_path):
        sink = NpyShardSink(tmp_path / "spill", n_vertices=10)
        sink.write(0, 0, np.zeros((0, 2), dtype=np.int64))
        assert not sink.shard_path(0, 0).exists()
        assert sink.finalize()["shards"] == []
        assert ShardStore(tmp_path / "spill").degree(3) == 0


class TestManifestV1IsRefused:
    RESTREAM = "format_version 1.*re-stream"

    @pytest.fixture
    def old(self, tmp_path, downgrade_to_v1):
        """A spill as the per-block sink of earlier releases wrote it."""
        sink = NpyShardSink(tmp_path / "old", n_vertices=2)
        sink.write(0, 0, np.asarray([[0, 1], [1, 0]]))
        sink.finalize()
        downgrade_to_v1(tmp_path / "old")
        return tmp_path / "old"

    def test_every_reader_says_to_restream(self, tmp_path, old):
        for read in (read_shard_manifest, ShardStore, load_edge_shards,
                     lambda d: compact_shards(d, tmp_path / "store"),
                     lambda d: partition_manifest(d, n_slices=2)):
            with pytest.raises(ValueError, match=self.RESTREAM):
                read(old)
        assert not (tmp_path / "store" / "manifest.json").exists()
        assert not (old / "slices").exists()

    def test_cli_exits_with_one_line(self, old):
        for argv in (["serve", str(old), "--port", "0"],
                     ["serve", str(old), "--port", "0", "--fleet", "2"],
                     ["query", str(old), "--degree", "0"]):
            with pytest.raises(SystemExit) as exited:
                cli.main(argv)
            message = str(exited.value.code)
            assert message.startswith(f"cannot open store {old}: ")
            assert "format_version 1" in message and "re-stream" in message
            assert "\n" not in message


class TestEdgeCountsAreChecked:
    """A manifest's ``total_edges`` must be the sum of its shards'
    ``n_edges``, and every decode holds a shard to its ``n_edges``."""

    @staticmethod
    def _tamper(directory: Path, mutate) -> None:
        path = directory / "manifest.json"
        manifest = json.loads(path.read_text())
        mutate(manifest)
        path.write_text(json.dumps(manifest))

    @staticmethod
    def _small_spill(directory: Path) -> Path:
        sink = NpyShardSink(directory, n_vertices=8)
        sink.write(0, 0, np.asarray([[0, 1], [1, 2]]))
        sink.write(1, 0, np.asarray([[4, 5], [6, 7], [7, 0]]))
        sink.finalize()
        return directory

    def test_total_edges_must_sum_the_shards(self, tmp_path):
        spill = self._small_spill(tmp_path / "spill")
        self._tamper(spill, lambda m: m.update(total_edges=9))
        for read in (read_shard_manifest, ShardStore, load_edge_shards,
                     lambda d: next(iter_edge_shards(d)),
                     lambda d: compact_shards(d, tmp_path / "store")):
            with pytest.raises(ValueError, match=r"total_edges \(9\).*\(5\)"):
                read(spill)

    @pytest.mark.parametrize("value", [-1, 2.5, True, "2"])
    def test_n_edges_must_be_a_count(self, tmp_path, value):
        spill = self._small_spill(tmp_path / "spill")
        self._tamper(spill, lambda m: m["shards"][0].update(n_edges=value))
        with pytest.raises(ValueError,
                           match=r"shards\[0\]\.n_edges must be a non-negative"):
            read_shard_manifest(spill)

    def test_every_decode_checks_its_shard_rows(self, tmp_path):
        """``n_edges`` moved from one shard to the other keeps the total:
        the manifest validates, but each reader's decode names the file."""
        spill = self._small_spill(tmp_path / "spill")

        def shift(manifest):
            manifest["shards"][0]["n_edges"] += 1
            manifest["shards"][1]["n_edges"] -= 1

        self._tamper(spill, shift)
        shard = spill / read_shard_manifest(spill)["shards"][0]["file"]
        phrase = f"{shard}: shard holds 2 rows but its manifest entry lists " \
                 "n_edges 3"
        store = ShardStore(spill)
        for read in (lambda d: list(iter_edge_shards(d)), load_edge_shards,
                     lambda d: store.degrees([0]),
                     lambda d: compact_shards(d, tmp_path / "store")):
            with pytest.raises(ValueError) as caught:
                read(spill)
            assert str(caught.value).startswith(phrase)
        assert not (tmp_path / "store" / "manifest.json").exists()
        with ThreadedServer(spill) as handle, \
                QueryClient(handle.host, handle.port) as client:
            with pytest.raises(ValueError, match="shard holds 2 rows"):
                client.degrees([0])
            served = client.stats()["server"]
            assert (served["errors"], served["internal_errors"]) == (1, 0)


def test_cli_streams_a_store(tmp_path, weblike_small, delta_le_one_factor,
                             capsys):
    """stream → query with no compact step; ``--json`` answers equal the
    compacted store's apart from the ``store`` counters."""
    bundle = tmp_path / "bundle.npz"
    save_kronecker_bundle(bundle, weblike_small, delta_le_one_factor)
    spill, store = tmp_path / "spill", tmp_path / "store"
    assert cli.main(["stream", str(bundle), str(spill), "--ranks", "3",
                     "--block", "8", "--payload", "triangles"]) == 0
    assert cli.main(["compact", str(spill), str(store)]) == 0
    capsys.readouterr()
    answers = []
    for directory in (spill, store):
        for flags in (["--range", "0", "60", "--payload"],
                      ["--egonet", "17", "--payload"], ["--degree", "17"]):
            assert cli.main(["query", str(directory), "--json",
                             *flags]) == 0
            answer = json.loads(capsys.readouterr().out)
            del answer["store"]
            answers.append(answer)
    assert answers[:3] == answers[3:]
