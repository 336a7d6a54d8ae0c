"""Graph input/output: edge lists and compressed Kronecker-factor bundles.

One of the paper's motivating observations is that a Kronecker product graph
with :math:`|E_C| = |E_A|\\,|E_B|` edges is represented exactly by its two
small factors — ``O(|E_C|^{1/2})`` storage — and can therefore be *shared* in
compressed form and re-expanded (or queried implicitly) by any consumer.
This module implements that interchange format plus plain edge-list I/O for
the factors themselves.

Formats
-------
* **Edge list** (``.tsv`` / ``.txt``): one ``u<TAB>v`` pair per line,
  0-based, ``#`` comment lines ignored.  Undirected graphs store each edge
  once with ``u <= v``.
* **Kronecker bundle** (``.npz``): a NumPy archive holding both factors in
  COO form plus metadata, written by :func:`save_kronecker_bundle` and read
  by :func:`load_kronecker_bundle`.  The bundle is the "compressed graph":
  two graphs of a few MB describe a product of trillions of edges.
* **Edge shards** (a directory of ``.npy`` files plus ``manifest.json``):
  the product's edge list spilled block by block through
  :class:`NpyShardSink` — the streaming pipeline's sink, which alone writes
  payload-carrying ``(m, 2 + k)`` rows; :func:`write_edge_shards` is the
  topology-only single-rank writer.  Manifests go through
  :func:`read_shard_manifest` and shard files through
  :func:`read_edge_shard`, the one reader the compactor and the shard store
  share.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.graphs.adjacency import Graph
from repro.graphs.directed import DirectedGraph
from repro.graphs.labeled import VertexLabeledGraph

__all__ = [
    "write_edge_list",
    "read_edge_list",
    "read_directed_edge_list",
    "save_kronecker_bundle",
    "load_kronecker_bundle",
    "NpyShardSink",
    "normalize_payload_columns",
    "write_edge_shards",
    "write_shard_manifest",
    "read_shard_manifest",
    "read_edge_shard",
    "iter_edge_shards",
    "load_edge_shards",
]

PathLike = Union[str, Path]

#: Manifest file name of a ``.npy`` shard directory.
SHARD_MANIFEST = "manifest.json"

#: Temp-file suffix of an in-flight manifest write (see
#: :func:`write_shard_manifest`); never read, always safe to delete.
_MANIFEST_TMP = SHARD_MANIFEST + ".tmp"

#: The two columns every edge shard starts with.
_ENDPOINT_COLUMNS = ("src", "dst")

#: Held while :func:`read_edge_shard` opens a shard.  ``np.load`` parses
#: every ``.npy`` header with ``ast.literal_eval``, and CPython 3.11 keeps
#: the AST constructor's recursion counter in interpreter-wide state, so
#: two threads parsing at once can fail with a spurious ``SystemError``
#: ("AST constructor recursion depth mismatch").  A leaf lock: nothing else
#: is acquired while it is held.
_SHARD_OPEN_LOCK = threading.Lock()


def normalize_payload_columns(columns: Sequence[str]) -> Tuple[str, ...]:
    """Canonical *extra* payload column names from either spelling.

    Accepts the extras alone (``("triangles",)``) or the full manifest form
    prefixed with the endpoint columns (``["src", "dst", "triangles"]``) and
    returns just the extras.  Names must be non-empty strings, unique, and
    must not collide with the reserved endpoint columns.
    """
    cols = list(columns)
    if not all(isinstance(c, str) and c for c in cols):
        raise ValueError(f"payload column names must be non-empty strings, got {cols!r}")
    if tuple(cols[:2]) == _ENDPOINT_COLUMNS:
        cols = cols[2:]
    reserved = [c for c in cols if c in _ENDPOINT_COLUMNS]
    if reserved:
        raise ValueError(
            f"payload column names {reserved} are reserved for the edge "
            "endpoints; extras must come after ['src', 'dst']")
    if len(set(cols)) != len(cols):
        raise ValueError(f"duplicate payload column names: {cols!r}")
    return tuple(cols)


def write_shard_manifest(directory: PathLike, manifest: dict) -> None:
    """Durably publish a shard manifest (atomic replace, never a torn file).

    The JSON is written to a temp file *in the same directory*, fsynced, and
    ``os.replace``-d onto ``manifest.json``, so a crash — process kill or
    power loss — leaves either the previous manifest or the new one; readers
    can never observe a truncated manifest that would surface as a raw
    ``JSONDecodeError``.  (Without the fsync the rename could reach disk
    before the temp file's data blocks, resurrecting exactly the torn-file
    state this helper exists to rule out.)
    """
    directory = Path(directory)
    tmp = directory / _MANIFEST_TMP
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, directory / SHARD_MANIFEST)
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platforms without directory opens
        return
    try:
        os.fsync(dir_fd)  # persist the rename itself
    finally:
        os.close(dir_fd)


def write_edge_list(graph: Union[Graph, DirectedGraph], path: PathLike, *, header: bool = True) -> None:
    """Write a graph to a tab-separated edge list.

    Undirected graphs write each edge once (``u <= v``); directed graphs write
    every arc.  A comment header records the vertex count so that isolated
    trailing vertices survive a round trip.
    """
    path = Path(path)
    if isinstance(graph, DirectedGraph):
        edges = graph.edges()
        kind = "directed"
    else:
        edges = graph.edges()
        kind = "undirected"
    lines = []
    if header:
        lines.append(f"# kind={kind} n_vertices={graph.n_vertices} n_edges={edges.shape[0]}")
    lines.extend(f"{int(u)}\t{int(v)}" for u, v in edges)
    path.write_text("\n".join(lines) + "\n")


def _parse_edge_lines(path: Path) -> Tuple[np.ndarray, Optional[int]]:
    """Parse edge lines and the ``n_vertices`` header hint, if present."""
    n_vertices: Optional[int] = None
    rows = []
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            for token in line[1:].split():
                if token.startswith("n_vertices="):
                    n_vertices = int(token.split("=", 1)[1])
            continue
        parts = line.replace(",", " ").split()
        if len(parts) < 2:
            raise ValueError(f"malformed edge line: {raw!r}")
        rows.append((int(parts[0]), int(parts[1])))
    edges = np.asarray(rows, dtype=np.int64) if rows else np.zeros((0, 2), dtype=np.int64)
    return edges, n_vertices


def read_edge_list(path: PathLike, *, n_vertices: Optional[int] = None) -> Graph:
    """Read an undirected graph from a tab/space/comma-separated edge list."""
    edges, header_n = _parse_edge_lines(Path(path))
    n = n_vertices if n_vertices is not None else header_n
    return Graph.from_edges(map(tuple, edges), n_vertices=n, name=Path(path).stem)


def read_directed_edge_list(path: PathLike, *, n_vertices: Optional[int] = None) -> DirectedGraph:
    """Read a directed graph from an edge list (each line is one arc)."""
    edges, header_n = _parse_edge_lines(Path(path))
    n = n_vertices if n_vertices is not None else header_n
    return DirectedGraph.from_edges(map(tuple, edges), n_vertices=n, name=Path(path).stem)


class NpyShardSink:
    """Chunked binary spill: one ``.npy`` shard per streamed edge block.

    This is the default disk sink of the streaming generation pipeline — the
    single-node stand-in for "write the trillion-edge graph to a parallel
    file system".  Each rank writes its blocks as independent shard files
    (``edges-r<rank>-b<block>.npy``), so ranks never contend for a shared
    handle and the sink works unchanged under a ``multiprocessing`` pool
    (the object holds only path state and is picklable).  ``finalize()``
    scans the directory and writes a small JSON manifest recording shard
    order and per-shard edge counts; readers go through the manifest, which
    is published atomically (:func:`write_shard_manifest`).

    Compared to the TSV writer this replaces as the default, shards are
    written with one ``np.save`` per block — no per-row formatting at all —
    and round-trip losslessly as ``int64``.

    Shards may carry per-edge ground-truth payload columns beyond the two
    ``(src, dst)`` endpoints: construct the sink with
    ``payload_columns=("triangles", "trussness")`` and feed it
    ``(m, 2 + k)`` blocks whose extra columns hold the named values (the
    streaming pipeline evaluates them per block through one
    :class:`~repro.core.triangle_formulas.TriangleStatsGatherer` per rank
    pass).  The manifest records the column names so every reader — the
    compactor and :class:`repro.store.ShardStore` — knows the row layout.

    Constructing a sink claims the directory for one run: shard files and
    the manifest left over from a previous spill are deleted so a rerun with
    a different block size or rank count can never fold stale shards into
    the new manifest.  (Unpickling — how the sink travels to pool workers —
    does not re-run the constructor, so workers never clean up behind the
    driver.)
    """

    __slots__ = ("directory", "name", "n_vertices", "payload_columns")

    #: Glob matching the shard files this sink writes.
    _SHARD_GLOB = "edges-r*-b*.npy"

    def __init__(self, directory: PathLike, *, name: str = "", n_vertices: int = 0,
                 payload_columns: Sequence[str] = ()):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        for stale in self.directory.glob(self._SHARD_GLOB):
            stale.unlink()
        for stale in (self.directory / SHARD_MANIFEST, self.directory / _MANIFEST_TMP):
            if stale.exists():
                stale.unlink()
        self.name = name
        self.n_vertices = int(n_vertices)
        self.payload_columns = normalize_payload_columns(payload_columns)

    @property
    def block_columns(self) -> int:
        """Width every written block must have: ``2 + len(payload_columns)``."""
        return 2 + len(self.payload_columns)

    def shard_path(self, rank: int, block_index: int) -> Path:
        """Deterministic shard file path for one ``(rank, block)`` pair."""
        return self.directory / f"edges-r{rank:05d}-b{block_index:06d}.npy"

    def write(self, rank: int, block_index: int, edges: np.ndarray) -> None:
        """Spill one ``(m, 2 + k)`` edge block (the streaming sink protocol)."""
        block = np.ascontiguousarray(edges, dtype=np.int64)
        if block.ndim != 2 or block.shape[1] != self.block_columns:
            raise ValueError(
                f"sink expects (m, {self.block_columns}) blocks for "
                f"payload_columns {list(_ENDPOINT_COLUMNS + self.payload_columns)}; "
                f"got shape {block.shape}")
        np.save(self.shard_path(rank, block_index), block)

    def shard_paths(self):
        """All shard files currently in the directory, in (rank, block) order."""
        return sorted(self.directory.glob(self._SHARD_GLOB))

    def finalize(self, metadata: Optional[dict] = None) -> dict:
        """Write the JSON manifest (idempotent, atomic) and return it.

        Shard lengths are read from the ``.npy`` headers via memory mapping —
        finalization never loads edge data.
        """
        shards = []
        total = 0
        for path in self.shard_paths():
            n_edges = int(np.load(path, mmap_mode="r").shape[0])
            shards.append({"file": path.name, "n_edges": n_edges})
            total += n_edges
        manifest = {
            "format_version": 1,
            "kind": "edge-shards",
            "name": self.name,
            "n_vertices": self.n_vertices,
            "total_edges": total,
            "payload_columns": list(_ENDPOINT_COLUMNS + self.payload_columns),
            "shards": shards,
        }
        if metadata:
            manifest["metadata"] = dict(metadata)
        write_shard_manifest(self.directory, manifest)
        return manifest


def write_edge_shards(
    product,
    directory: PathLike,
    *,
    a_edges_per_block: int = 1024,
    max_edges: Optional[int] = None,
    metadata: Optional[dict] = None,
) -> int:
    """Stream a product's topology into a ``.npy`` shard directory.

    The single-rank, topology-only writer over :class:`NpyShardSink`;
    *product* is any object with ``iter_edge_blocks``/``name``/``n_vertices``
    (duck-typed so this module never imports :mod:`repro.core`).  Returns
    the number of edges written; the manifest is finalized before returning.

    Without *max_edges* or *metadata* it writes the same shard files and
    manifest as ``distributed_generate(a, b, 1, streaming=True,
    sink=NpyShardSink(...), with_statistics=False)`` at the same block
    size, without building that pipeline's aggregates.
    Payload-carrying spills come only from the streaming pipeline
    (:func:`repro.parallel.distributed_generate` with ``payload_columns``),
    which evaluates each column once per block.
    """
    sink = NpyShardSink(directory, name=getattr(product, "name", ""),
                        n_vertices=getattr(product, "n_vertices", 0))
    written = 0
    for block_index, block in enumerate(
        product.iter_edge_blocks(a_edges_per_block=a_edges_per_block)
    ):
        if max_edges is not None and written + block.shape[0] > max_edges:
            block = block[: max_edges - written]
        if block.shape[0]:
            sink.write(0, block_index, block)
            written += block.shape[0]
        if max_edges is not None and written >= max_edges:
            break
    sink.finalize(metadata=metadata)
    return written


#: Manifest versions this reader understands.  v1 is the per-block spill
#: written by :class:`NpyShardSink`; v2 adds per-shard source-vertex ranges
#: and is written by :func:`repro.store.compact_shards`.
SUPPORTED_MANIFEST_VERSIONS = (1, 2)

#: Top-level fields every edge-shard manifest must carry.
_MANIFEST_REQUIRED = ("kind", "format_version", "n_vertices", "total_edges", "shards")

#: Extra fields required at format version 2.
_MANIFEST_REQUIRED_V2 = ("sorted_by", "payload_columns")


def _validate_shard_manifest(manifest: object, path: Path) -> dict:
    """Schema-check a decoded manifest, raising :class:`ValueError` that names
    the offending field (never a bare ``KeyError`` deep inside a consumer)."""
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: manifest must be a JSON object, "
                         f"got {type(manifest).__name__}")
    if manifest.get("kind") != "edge-shards":
        raise ValueError(f"{path} is not an edge-shard manifest "
                         f"(kind={manifest.get('kind')!r})")
    for field in _MANIFEST_REQUIRED:
        if field not in manifest:
            raise ValueError(f"{path}: manifest is missing required field {field!r}")
    version = manifest["format_version"]
    if version not in SUPPORTED_MANIFEST_VERSIONS:
        raise ValueError(
            f"{path}: unsupported manifest format_version {version!r} "
            f"(supported: {', '.join(map(str, SUPPORTED_MANIFEST_VERSIONS))})")
    shards = manifest["shards"]
    if not isinstance(shards, list):
        raise ValueError(f"{path}: 'shards' must be a list, "
                         f"got {type(shards).__name__}")
    if version == 2:
        for field in _MANIFEST_REQUIRED_V2:
            if field not in manifest:
                raise ValueError(
                    f"{path}: v2 manifest is missing required field {field!r}")
    if "payload_columns" in manifest:
        _validate_payload_columns(manifest["payload_columns"], path)
    per_shard = ("file", "n_edges") if version == 1 \
        else ("file", "n_edges", "src_min", "src_max")
    prev_min = prev_max = -1
    for index, shard in enumerate(shards):
        if not isinstance(shard, dict):
            raise ValueError(f"{path}: shards[{index}] must be an object")
        for field in per_shard:
            if field not in shard:
                raise ValueError(
                    f"{path}: shards[{index}] is missing required field {field!r}")
        if version == 2:
            # Range sanity lives here — at the single reader — so every
            # consumer (ShardStore, CLI query, iter_edge_shards) fails with
            # the same field-naming error, not a downstream surprise.
            for field in ("src_min", "src_max"):
                value = shard[field]
                if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                    raise ValueError(
                        f"{path}: shards[{index}].{field} must be a "
                        f"non-negative integer, got {value!r}")
            if shard["src_min"] > shard["src_max"]:
                raise ValueError(
                    f"{path}: shards[{index}].src_min ({shard['src_min']}) "
                    f"exceeds src_max ({shard['src_max']})")
            if shard["src_min"] < prev_min or shard["src_max"] < prev_max:
                raise ValueError(
                    f"{path}: shard src_min/src_max vertex ranges are not "
                    f"nondecreasing at shards[{index}]; the store is corrupt "
                    "or was not written by repro.store.compact_shards")
            prev_min, prev_max = shard["src_min"], shard["src_max"]
    return manifest


def _validate_payload_columns(columns: object, path: Path) -> None:
    """Schema rules for the ``payload_columns`` manifest field."""
    if (not isinstance(columns, list)
            or not all(isinstance(c, str) and c for c in columns)):
        raise ValueError(f"{path}: 'payload_columns' must be a list of "
                         f"non-empty strings, got {columns!r}")
    if tuple(columns[:2]) != _ENDPOINT_COLUMNS:
        raise ValueError(f"{path}: 'payload_columns' must begin with "
                         f"['src', 'dst'], got {columns!r}")
    if len(set(columns)) != len(columns):
        raise ValueError(f"{path}: 'payload_columns' contains duplicate "
                         f"names: {columns!r}")


def read_shard_manifest(directory: PathLike) -> dict:
    """Load and validate the manifest of a ``.npy`` shard directory.

    Both manifest versions are accepted: the per-block **v1** spill written by
    :class:`NpyShardSink` and the compacted **v2** store written by
    :func:`repro.store.compact_shards` (whose shard entries carry
    ``src_min``/``src_max`` source-vertex ranges).  v1 manifests are upgraded
    transparently: the returned dictionary always carries ``sorted_by``
    (``None`` for an unsorted block spill) and ``payload_columns``, so
    consumers can branch on one shape.  Corrupted or foreign manifests raise a
    :class:`ValueError` naming the missing or unexpected field; a manifest
    that is not even valid JSON (e.g. a pre-atomic-write truncated file)
    raises a :class:`ValueError` naming the file, never a raw
    ``json.JSONDecodeError``.
    """
    path = Path(directory) / SHARD_MANIFEST
    try:
        decoded = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: manifest is not valid JSON ({exc}); the file looks like "
            "a truncated or interrupted write — re-run the spill or "
            "compaction that produced this directory") from exc
    manifest = _validate_shard_manifest(decoded, path)
    manifest.setdefault("sorted_by", None)
    manifest.setdefault("payload_columns", list(_ENDPOINT_COLUMNS))
    return manifest


def read_edge_shard(path: PathLike, columns: Sequence[str], *,
                    mmap_mode: Optional[str] = None) -> np.ndarray:
    """Decode one ``.npy`` edge shard whose rows hold the manifest's
    *columns* (``["src", "dst", ...extras]``).

    The one shard-file reader: :func:`iter_edge_shards`, the compactor and
    :class:`repro.store.ShardStore` all decode through it, so a shard whose
    width disagrees with its manifest fails identically everywhere — with a
    :class:`ValueError` naming the file.  ``mmap_mode="r"`` returns a
    read-only memory map instead of a private copy.

    Safe to call from many threads: only the open — header parse plus
    ``mmap`` — is serialized; an eager read copies the mapped rows after
    the lock is released, so concurrent decodes still overlap their I/O.
    """
    with _SHARD_OPEN_LOCK:
        block = np.load(path, mmap_mode=mmap_mode or "r")
    if mmap_mode is None:
        block = np.array(block)
    if block.ndim != 2 or block.shape[1] != len(columns):
        raise ValueError(
            f"{path}: shard has shape {block.shape} but the manifest "
            f"payload_columns {list(columns)!r} require {len(columns)} columns")
    return block


def iter_edge_shards(directory: PathLike, *, mmap_mode: Optional[str] = None):
    """Yield the ``(m, 2 + k)`` edge arrays of a shard directory in manifest
    order, where ``k`` is the number of extra ``payload_columns``; a shard
    file whose width disagrees with the manifest raises a :class:`ValueError`
    naming the file (:func:`read_edge_shard`).

    ``mmap_mode="r"`` yields read-only memory maps instead of private copies
    — the right mode for read-only sweeps and for feeding compaction, where
    the consumer makes its own copy anyway.  The default (``None``) keeps the
    historical copy-per-shard behaviour for callers that mutate the blocks.
    """
    directory = Path(directory)
    manifest = read_shard_manifest(directory)
    for shard in manifest["shards"]:
        yield read_edge_shard(directory / shard["file"],
                              manifest["payload_columns"], mmap_mode=mmap_mode)


def load_edge_shards(directory: PathLike) -> np.ndarray:
    """Concatenate every shard of a directory into one ``(total, 2 + k)`` array.

    The reader-side inverse of the streamed spill; peak memory is the full
    output plus one shard, mirroring ``KroneckerGraph.edges``.  The first two
    columns are always ``(src, dst)``; any extra columns carry the manifest's
    named per-edge payloads.  Shards are memory-mapped while copying into the
    preallocated output, so no shard is ever held as a second private copy.
    """
    manifest = read_shard_manifest(Path(directory))
    total = int(manifest["total_edges"])
    out = np.empty((total, len(manifest["payload_columns"])), dtype=np.int64)
    filled = 0
    for block in iter_edge_shards(directory, mmap_mode="r"):
        out[filled:filled + block.shape[0]] = block
        filled += block.shape[0]
    return out


def _matrix_to_arrays(adj: sp.spmatrix, prefix: str) -> dict:
    coo = adj.tocoo()
    return {
        f"{prefix}_row": coo.row.astype(np.int64),
        f"{prefix}_col": coo.col.astype(np.int64),
        f"{prefix}_shape": np.asarray(coo.shape, dtype=np.int64),
    }


def _arrays_to_matrix(data, prefix: str) -> sp.csr_matrix:
    shape = tuple(int(x) for x in data[f"{prefix}_shape"])
    row = data[f"{prefix}_row"]
    col = data[f"{prefix}_col"]
    vals = np.ones(row.shape[0], dtype=np.int64)
    return sp.csr_matrix((vals, (row, col)), shape=shape)


def save_kronecker_bundle(
    path: PathLike,
    factor_a: Union[Graph, DirectedGraph, VertexLabeledGraph],
    factor_b: Union[Graph, DirectedGraph, VertexLabeledGraph],
    *,
    metadata: Optional[dict] = None,
) -> None:
    """Save both Kronecker factors (and optional metadata) into one ``.npz`` bundle.

    The bundle is the compressed representation of ``C = A ⊗ B``: consumers
    reconstruct the factors with :func:`load_kronecker_bundle` and either
    materialize the product or query it implicitly via
    :class:`repro.core.KroneckerGraph`.
    """
    path = Path(path)
    payload: dict = {}
    kinds = []
    for prefix, factor in (("a", factor_a), ("b", factor_b)):
        payload.update(_matrix_to_arrays(factor.adjacency, prefix))
        if isinstance(factor, VertexLabeledGraph):
            kinds.append("labeled")
            payload[f"{prefix}_labels"] = factor.labels
        elif isinstance(factor, DirectedGraph):
            kinds.append("directed")
        else:
            kinds.append("undirected")
    meta = dict(metadata or {})
    meta.setdefault("format_version", 1)
    meta["factor_kinds"] = kinds
    meta["factor_names"] = [factor_a.name, factor_b.name]
    payload["metadata_json"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    np.savez_compressed(path, **payload)


def load_kronecker_bundle(path: PathLike):
    """Load a bundle written by :func:`save_kronecker_bundle`.

    Returns
    -------
    (factor_a, factor_b, metadata):
        The two factors reconstructed with their original types (undirected,
        directed, or vertex-labeled) and the metadata dictionary.
    """
    path = Path(path)
    # mmap_mode=None stated explicitly: the factors are decompressed and
    # rebuilt into private CSR matrices immediately, so an eager read is
    # the point (and .npz members cannot be mapped anyway).
    with np.load(path, mmap_mode=None, allow_pickle=False) as data:
        meta = json.loads(bytes(data["metadata_json"]).decode("utf-8"))
        kinds = meta.get("factor_kinds", ["undirected", "undirected"])
        names = meta.get("factor_names", ["", ""])
        factors = []
        for prefix, kind, name in zip(("a", "b"), kinds, names):
            adj = _arrays_to_matrix(data, prefix)
            if kind == "labeled":
                factors.append(
                    VertexLabeledGraph(adj, data[f"{prefix}_labels"], name=name, validate=False)
                )
            elif kind == "directed":
                factors.append(DirectedGraph(adj, name=name))
            else:
                factors.append(Graph(adj, name=name, validate=False))
    return factors[0], factors[1], meta
