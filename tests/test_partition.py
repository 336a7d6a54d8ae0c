"""Tests for partition_manifest: slicing a compacted manifest for a fleet.

Slices are *manifests only* — no shard bytes move — so the properties under
test are structural: every slice manifest round-trips through the one
``read_shard_manifest`` validator, relative file references resolve to the
parent's ``.npy`` files, assigned ranges tile the vertex space, boundary
shards are listed by both neighbouring slices, and re-partitioning is
idempotent (including cleanup of stale slice directories from a wider
previous partition), and rewriting a store in place — a re-stream or a
re-compaction — removes its slices.  Edge cases: single-shard store, empty
slice ranges, a boundary falling inside one shard's range.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest

from repro import generators
from repro.core import KroneckerGraph
from repro.graphs import NpyShardSink
from repro.graphs.io import SHARD_MANIFEST, SLICES_DIR, read_shard_manifest
from repro.parallel import distributed_generate
from repro.store import ShardStore, compact_shards, partition_manifest

PAYLOAD = ("triangles", "trussness")


def _stream(directory, n_ranks: int, a_edges_per_block: int):
    """Spill the partition tests' product, with payloads, to *directory*."""
    factor_a = generators.webgraph_like(24, edges_per_vertex=3, seed=5)
    factor_b = generators.triangle_constrained_pa(10, seed=7)
    product = KroneckerGraph(factor_a, factor_b)
    sink = NpyShardSink(directory, name=product.name,
                        n_vertices=product.n_vertices,
                        payload_columns=PAYLOAD)
    distributed_generate(factor_a, factor_b, n_ranks, streaming=True,
                         a_edges_per_block=a_edges_per_block, sink=sink,
                         payload_columns=PAYLOAD)
    return directory


@pytest.fixture(scope="module")
def spill_dir(tmp_path_factory):
    return _stream(tmp_path_factory.mktemp("partition-spill") / "spill",
                   n_ranks=3, a_edges_per_block=8)


@pytest.fixture(scope="module")
def store_dir(spill_dir, tmp_path_factory):
    store = tmp_path_factory.mktemp("partition") / "store"
    compact_shards(spill_dir, store, target_shard_edges=400)
    return store


@pytest.fixture(scope="module")
def single_shard_store(spill_dir, tmp_path_factory):
    store = tmp_path_factory.mktemp("partition-single") / "store"
    compact_shards(spill_dir, store, target_shard_edges=10_000_000)
    return store


def test_slices_validate_and_tile_the_vertex_space(store_dir):
    manifest = read_shard_manifest(store_dir)
    slices = partition_manifest(store_dir, n_slices=3)
    assert [s["index"] for s in slices] == [0, 1, 2]
    assert slices[0]["src_lo"] == 0
    assert slices[-1]["src_hi"] == manifest["n_vertices"]
    for left, right in zip(slices, slices[1:]):
        assert left["src_hi"] == right["src_lo"]
    for entry in slices:
        # The one shared validator accepts every slice manifest, and the
        # slice identity travels in metadata.
        sliced = read_shard_manifest(entry["directory"])
        assert sliced["n_vertices"] == manifest["n_vertices"]
        assert sliced["payload_columns"] == manifest["payload_columns"]
        assert sliced["metadata"]["slice"] == {
            "index": entry["index"], "of": len(slices),
            "src_lo": entry["src_lo"], "src_hi": entry["src_hi"],
            "store": "../..",
        }
    # Every parent shard is listed by at least one slice.
    listed = set()
    for entry in slices:
        for shard in read_shard_manifest(entry["directory"])["shards"]:
            listed.add(shard["file"].rsplit("/", 1)[-1])
    assert listed == {s["file"] for s in manifest["shards"]}


def test_slice_opens_as_shard_store_with_relative_files(store_dir):
    parent = ShardStore(store_dir, cache_shards=16)
    slices = partition_manifest(store_dir, n_slices=3)
    middle = slices[1]
    store = ShardStore(middle["directory"], cache_shards=4)
    lo, hi = middle["src_lo"], middle["src_hi"]
    # Within its assigned range a slice answers exactly like the parent —
    # the relative .npy references resolve to the same bytes.
    assert np.array_equal(store.edges_in_range(lo, hi, with_payload=True),
                          parent.edges_in_range(lo, hi, with_payload=True))
    vs = np.arange(lo, min(hi, lo + 50))
    assert np.array_equal(store.degrees(vs), parent.degrees(vs))


def test_single_shard_store_partitions(single_shard_store):
    manifest = read_shard_manifest(single_shard_store)
    assert len(manifest["shards"]) == 1
    slices = partition_manifest(single_shard_store, n_slices=3)
    assert len(slices) == 3
    non_empty = [s for s in slices if s["src_lo"] < s["src_hi"]]
    # Shard-granularity cuts cannot split the one shard: one slice owns the
    # whole range, the rest are empty — and all still validate and open.
    assert len(non_empty) == 1
    assert non_empty[0]["n_shards"] == 1
    for entry in slices:
        store = ShardStore(entry["directory"])
        assert store.n_shards == entry["n_shards"]


def test_empty_slice_range_yields_valid_empty_manifest(store_dir):
    manifest = read_shard_manifest(store_dir)
    n = manifest["n_vertices"]
    slices = partition_manifest(store_dir, boundaries=[n // 2, n // 2])
    empty = slices[1]
    assert empty["src_lo"] == empty["src_hi"] == n // 2
    assert empty["n_shards"] == 0 and empty["n_edges"] == 0
    sliced = read_shard_manifest(empty["directory"])
    assert sliced["shards"] == [] and sliced["total_edges"] == 0
    store = ShardStore(empty["directory"])
    assert store.edges_in_range(0, n).shape == (0, 2)


def test_boundary_inside_a_shard_lists_it_on_both_sides(store_dir):
    manifest = read_shard_manifest(store_dir)
    shard = manifest["shards"][len(manifest["shards"]) // 2]
    assert shard["src_max"] > shard["src_min"]  # a split point must exist
    boundary = (shard["src_min"] + shard["src_max"] + 1) // 2
    assert shard["src_min"] < boundary <= shard["src_max"]
    slices = partition_manifest(store_dir, boundaries=[boundary])
    left = read_shard_manifest(slices[0]["directory"])
    right = read_shard_manifest(slices[1]["directory"])
    straddler = shard["file"]
    assert any(s["file"].endswith(straddler) for s in left["shards"])
    assert any(s["file"].endswith(straddler) for s in right["shards"])
    # Both slices answer their own side of the boundary like the parent.
    parent = ShardStore(store_dir, cache_shards=16)
    for entry in slices:
        store = ShardStore(entry["directory"])
        vs = np.asarray([entry["src_lo"], entry["src_hi"] - 1])
        assert np.array_equal(store.degrees(vs), parent.degrees(vs))


def test_repartition_is_idempotent_and_cleans_stale_slices(store_dir):
    wide = partition_manifest(store_dir, n_slices=4)
    assert len(list((store_dir / "slices").iterdir())) == 4
    first = partition_manifest(store_dir, n_slices=2)
    texts = [(s["directory"] / SHARD_MANIFEST).read_text() for s in first]
    again = partition_manifest(store_dir, n_slices=2)
    assert [s["directory"] for s in again] == [s["directory"] for s in first]
    assert [(s["directory"] / SHARD_MANIFEST).read_text()
            for s in again] == texts
    # The two stale slice-2/slice-3 directories from the 4-way partition
    # are gone; exactly the two current slices remain.
    remaining = sorted(p.name for p in (store_dir / "slices").iterdir())
    assert remaining == ["slice-000", "slice-001"]
    assert wide[3]["directory"].exists() is False


def test_restream_removes_the_slices(tmp_path):
    """Slice manifests list the store's files with their ranges and
    counts; a re-stream rewrites those files, so it takes the slices."""
    spill = _stream(tmp_path / "spill", n_ranks=1, a_edges_per_block=8)
    partition_manifest(spill, n_slices=2)
    _stream(spill, n_ranks=1, a_edges_per_block=64)
    assert not (spill / SLICES_DIR).exists()


def test_recompaction_removes_the_slices(spill_dir, tmp_path):
    compact_shards(spill_dir, tmp_path / "store", target_shard_edges=400)
    partition_manifest(tmp_path / "store", n_slices=2)
    compact_shards(spill_dir, tmp_path / "store", target_shard_edges=150)
    assert not (tmp_path / "store" / SLICES_DIR).exists()


def test_partition_rejects_bad_arguments(store_dir, tmp_path, spill_dir,
                                         downgrade_to_v1):
    n = read_shard_manifest(store_dir)["n_vertices"]
    with pytest.raises(ValueError, match="exactly one of"):
        partition_manifest(store_dir)
    with pytest.raises(ValueError, match="exactly one of"):
        partition_manifest(store_dir, n_slices=2, boundaries=[3])
    with pytest.raises(ValueError, match="n_slices must be >= 1"):
        partition_manifest(store_dir, n_slices=0)
    with pytest.raises(ValueError, match="nondecreasing"):
        partition_manifest(store_dir, boundaries=[10, 5])
    with pytest.raises(ValueError, match="nondecreasing"):
        partition_manifest(store_dir, boundaries=[n + 1])
    # A spill of an earlier release (manifest v1, no source ranges) has
    # nothing to slice by; the error says to re-stream it.
    shutil.copytree(spill_dir, tmp_path / "old")
    downgrade_to_v1(tmp_path / "old")
    with pytest.raises(ValueError, match="format_version 1.*re-stream"):
        partition_manifest(tmp_path / "old", n_slices=2)


def test_partition_preserves_parent_metadata(store_dir):
    manifest = read_shard_manifest(store_dir)
    slices = partition_manifest(store_dir, n_slices=2)
    sliced = read_shard_manifest(slices[0]["directory"])
    parent_metadata = dict(manifest.get("metadata") or {})
    child_metadata = dict(sliced["metadata"])
    child_metadata.pop("slice")
    assert child_metadata == parent_metadata
    assert sliced["name"] == manifest["name"]
