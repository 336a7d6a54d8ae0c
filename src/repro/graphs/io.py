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
  topology-only single-rank writer.  A spill is a store: its rows strictly
  increase in ``(src, dst)`` in manifest order, and its manifest v2
  records each shard's source range.  Manifests go through
  :func:`read_shard_manifest` and shard files through
  :func:`read_edge_shard`, the one reader the compactor and the shard store
  share.  A shard file is exactly what ``np.save`` writes for a C-contiguous
  little-endian ``int64`` 2-D array; the reader checks that fixed header
  itself and views the rows through one read-only ``mmap`` of the file — no
  general ``.npy`` parse.

The edge-list and bundle functions import scipy and the graph classes
where they build a graph; the shard and manifest functions need only
numpy, so the shard store and the server import this module without scipy.
"""

from __future__ import annotations

import json
import mmap
import os
import re
import struct
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence, Tuple, Union

import numpy as np

if TYPE_CHECKING:
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
    "MANIFEST_V2",
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

#: The one manifest format version every shard directory is written at.
MANIFEST_V2 = 2

#: Temp-file suffix of an in-flight manifest write (see
#: :func:`write_shard_manifest`); never read, always safe to delete.
_MANIFEST_TMP = SHARD_MANIFEST + ".tmp"

#: The two columns every edge shard starts with.
_ENDPOINT_COLUMNS = ("src", "dst")

#: Element type of every edge shard: little-endian ``int64``.
_SHARD_DTYPE = "<i8"

#: ``.npy`` magic string and the header-length field of each format version.
_NPY_MAGIC = b"\x93NUMPY"
_NPY_HEADER_LENGTH = {(1, 0): "<H", (2, 0): "<I", (3, 0): "<I"}

#: Bytes of a shard's first header read: ``np.save`` writes a 128-byte
#: header for a 2-D array, so one read holds it; a longer header (any run
#: of padding spaces is valid) costs a second read.
_HEADER_READ = 256

#: The only header a shard may carry: what ``np.save`` writes for a
#: C-contiguous little-endian ``int64`` 2-D array, space-padded to the
#: format's alignment.
_SHARD_HEADER = re.compile(
    rb"\{'descr': '<i8', 'fortran_order': False, "
    rb"'shape': \((\d+), (\d+)\), \} *\n")


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
    from repro.graphs.directed import DirectedGraph

    path = Path(path)
    edges = graph.edges()
    kind = "directed" if isinstance(graph, DirectedGraph) else "undirected"
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
    from repro.graphs.adjacency import Graph

    edges, header_n = _parse_edge_lines(Path(path))
    n = n_vertices if n_vertices is not None else header_n
    return Graph.from_edges(map(tuple, edges), n_vertices=n, name=Path(path).stem)


def read_directed_edge_list(path: PathLike, *, n_vertices: Optional[int] = None) -> DirectedGraph:
    """Read a directed graph from an edge list (each line is one arc)."""
    from repro.graphs.directed import DirectedGraph

    edges, header_n = _parse_edge_lines(Path(path))
    n = n_vertices if n_vertices is not None else header_n
    return DirectedGraph.from_edges(map(tuple, edges), n_vertices=n, name=Path(path).stem)


class NpyShardSink:
    """Chunked binary spill that is a shard store: one ``.npy`` shard per
    streamed edge block, under a manifest v2.

    This is the default disk sink of the streaming generation pipeline — the
    single-node stand-in for "write the trillion-edge graph to a parallel
    file system".  Each rank writes its blocks as independent shard files
    (``edges-r<rank>-b<block>.npy``), so ranks never contend for a shared
    handle and the sink works unchanged under a ``multiprocessing`` pool
    (the object holds only path state, nothing per rank, and is picklable).
    The pipeline's blocks concatenate to ``(src, dst)`` order in numeric
    ``(rank, block)`` order, and the sink checks that order: :meth:`write`
    refuses a block whose rows do not strictly increase, and
    :meth:`finalize` a shard that does not start after the previous one's
    last row, each with a :class:`ValueError` naming the file.  The manifest
    records every shard's ``[src_min, src_max]`` source range, so
    :class:`repro.store.ShardStore` and the server open a spill as it is.

    Shards may carry per-edge ground-truth payload columns beyond the two
    ``(src, dst)`` endpoints: construct the sink with
    ``payload_columns=("triangles", "trussness")`` and feed it
    ``(m, 2 + k)`` blocks whose extra columns hold the named values; the
    manifest records the column names.

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
    #: The ``(rank, block)`` pair in a shard file name.
    _SHARD_NAME = re.compile(r"edges-r(\d+)-b(\d+)\.npy")

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
        """Spill one ``(m, 2 + k)`` edge block (the streaming sink protocol);
        an empty block has no source range and writes no file."""
        block = np.ascontiguousarray(edges, dtype=np.int64)
        if block.ndim != 2 or block.shape[1] != self.block_columns:
            raise ValueError(
                f"sink expects (m, {self.block_columns}) blocks for "
                f"payload_columns {list(_ENDPOINT_COLUMNS + self.payload_columns)}; "
                f"got shape {block.shape}")
        if not block.shape[0]:
            return
        path = self.shard_path(rank, block_index)
        _check_order(block, None, path)
        np.save(path, block)

    def shard_paths(self):
        """All shard files currently in the directory, in numeric
        ``(rank, block)`` order: the order in which the streaming pipeline's
        blocks concatenate to ``(src, dst)`` order."""
        def rank_block(path: Path) -> Tuple[int, int]:
            match = self._SHARD_NAME.fullmatch(path.name)
            if match is None:
                raise ValueError(f"{path}: not a spill shard name "
                                 "(edges-r<rank>-b<block>.npy)")
            return int(match[1]), int(match[2])

        return sorted(self.directory.glob(self._SHARD_GLOB), key=rank_block)

    def finalize(self, metadata: Optional[dict] = None) -> dict:
        """Write the manifest v2 (idempotent, atomic) and return it.

        Each shard's length comes from the shard reader's header check, and
        its source range from its first and last row, read on the same
        descriptor — finalization never loads a shard.
        """
        columns = _ENDPOINT_COLUMNS + self.payload_columns
        row_bytes = 8 * len(columns)
        shards = []
        previous = None  # (src, dst) of the previous shard's last row
        for path in self.shard_paths():
            with open(path, "rb") as handle:
                fd = handle.fileno()
                n_edges, offset = _check_shard_header(fd, path, columns)
                if not n_edges:
                    raise ValueError(f"{path}: shard holds no rows, so it "
                                     "has no source range")
                ends = [np.frombuffer(os.pread(fd, 16, at), dtype=_SHARD_DTYPE)
                        for at in (offset, offset + (n_edges - 1) * row_bytes)]
            _check_order(ends[0].reshape(1, 2), previous, path)
            previous = ends[1]
            shards.append({"file": path.name, "n_edges": n_edges,
                           "src_min": int(ends[0][0]),
                           "src_max": int(ends[1][0])})
        manifest = {
            "format_version": MANIFEST_V2,
            "kind": "edge-shards",
            "name": self.name,
            "n_vertices": self.n_vertices,
            "total_edges": sum(shard["n_edges"] for shard in shards),
            "sorted_by": "source",
            "payload_columns": list(columns),
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
    the number of edges written; the manifest v2 is finalized before
    returning, so the directory is a store.

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
        if max_edges is not None:
            block = block[: max_edges - written]
        sink.write(0, block_index, block)
        written += block.shape[0]
        if max_edges is not None and written >= max_edges:
            break
    sink.finalize(metadata=metadata)
    return written


#: Fields every manifest carries besides ``kind`` and ``format_version``,
#: and every shard entry carries (all but ``file`` non-negative integers).
_MANIFEST_REQUIRED = ("n_vertices", "total_edges", "shards", "sorted_by",
                      "payload_columns")
_SHARD_REQUIRED = ("file", "n_edges", "src_min", "src_max")


def _is_count(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _validate_shard_manifest(manifest: object, path: Path) -> dict:
    """Schema-check a decoded manifest, raising :class:`ValueError` that names
    the offending field (never a bare ``KeyError`` deep inside a consumer)."""
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: manifest must be a JSON object, "
                         f"got {type(manifest).__name__}")
    if manifest.get("kind") != "edge-shards":
        raise ValueError(f"{path} is not an edge-shard manifest "
                         f"(kind={manifest.get('kind')!r})")
    if "format_version" not in manifest:
        raise ValueError(f"{path}: manifest is missing required field 'format_version'")
    version = manifest["format_version"]
    if version == 1:
        raise ValueError(
            f"{path}: manifest format_version 1 is a per-block spill without "
            "source ranges, which is no longer read; re-stream the product "
            "(repro-kron stream) to write a store")
    if version != MANIFEST_V2:
        raise ValueError(f"{path}: unsupported manifest format_version "
                         f"{version!r} (supported: {MANIFEST_V2})")
    for field in _MANIFEST_REQUIRED:
        if field not in manifest:
            raise ValueError(f"{path}: manifest is missing required field {field!r}")
    if manifest["sorted_by"] != "source":
        raise ValueError(f"{path}: manifest sorted_by must be 'source', "
                         f"got {manifest['sorted_by']!r}")
    shards = manifest["shards"]
    if not isinstance(shards, list):
        raise ValueError(f"{path}: 'shards' must be a list, "
                         f"got {type(shards).__name__}")
    _validate_payload_columns(manifest["payload_columns"], path)
    total = 0
    prev_min = prev_max = -1
    for index, shard in enumerate(shards):
        if not isinstance(shard, dict):
            raise ValueError(f"{path}: shards[{index}] must be an object")
        for field in _SHARD_REQUIRED:
            if field not in shard:
                raise ValueError(
                    f"{path}: shards[{index}] is missing required field {field!r}")
            if field != "file" and not _is_count(shard[field]):
                raise ValueError(
                    f"{path}: shards[{index}].{field} must be a "
                    f"non-negative integer, got {shard[field]!r}")
        if shard["src_min"] > shard["src_max"]:
            raise ValueError(
                f"{path}: shards[{index}].src_min ({shard['src_min']}) "
                f"exceeds src_max ({shard['src_max']})")
        if shard["src_min"] < prev_min or shard["src_max"] < prev_max:
            raise ValueError(
                f"{path}: shard src_min/src_max vertex ranges are not "
                f"nondecreasing at shards[{index}]; the store is corrupt "
                "or was not written by this package")
        prev_min, prev_max = shard["src_min"], shard["src_max"]
        total += shard["n_edges"]
    if not _is_count(manifest["total_edges"]) or manifest["total_edges"] != total:
        raise ValueError(
            f"{path}: manifest total_edges ({manifest['total_edges']!r}) is "
            f"not the sum of its shards' n_edges ({total}); the manifest is "
            "corrupt")
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
    """Load and validate the manifest v2 of a ``.npy`` shard directory: a
    spill (:class:`NpyShardSink`), a re-cut store
    (:func:`repro.store.compact_shards`) or a fleet slice.

    Corrupted or foreign manifests raise a :class:`ValueError` naming the
    missing or unexpected field — a ``total_edges`` that is not the sum of
    the shards' ``n_edges`` included — and a ``format_version`` 1 spill of
    an earlier release one that says to re-stream.  A manifest that is not
    even valid JSON (e.g. a pre-atomic-write truncated file) raises a
    :class:`ValueError` naming the file, never a raw
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
    return _validate_shard_manifest(decoded, path)


def _check_shard_header(fd: int, path: PathLike,
                        columns: Sequence[str]) -> Tuple[int, int]:
    """Check the ``.npy`` header of the edge shard open as descriptor *fd*
    and return ``(rows, data_offset)``.

    A shard must carry exactly the header ``np.save`` writes for a
    C-contiguous little-endian ``int64`` array of shape
    ``(rows, len(columns))``, and the file must hold exactly that many data
    bytes after it.  Any other file — a foreign dtype, Fortran order, a
    1-D array, a bad magic string, a short file — raises a
    :class:`ValueError` naming *path*.  The header is read with one
    positional read of :data:`_HEADER_READ` bytes, and again only when its
    length field runs past them; the descriptor's offset is not moved.
    """
    head = os.pread(fd, _HEADER_READ, 0)
    lead = head[:8]
    if len(lead) < 8 or lead[:6] != _NPY_MAGIC:
        raise ValueError(f"{path}: not a .npy edge shard "
                         f"(file starts with {lead!r})")
    length_format = _NPY_HEADER_LENGTH.get((lead[6], lead[7]))
    if length_format is None:
        raise ValueError(f"{path}: unsupported .npy format version "
                         f"{lead[6]}.{lead[7]}")
    start = len(lead) + struct.calcsize(length_format)
    if len(head) < start:
        raise ValueError(f"{path}: .npy header is truncated")
    end = start + struct.unpack_from(length_format, head, len(lead))[0]
    if end > _HEADER_READ:
        head = os.pread(fd, end, 0)
    header = head[start:end]
    match = _SHARD_HEADER.fullmatch(header)
    if match is None:
        raise ValueError(
            f"{path}: .npy header {header.decode('latin-1').strip()!r} is not "
            "a C-order little-endian int64 2-D array, the only layout edge "
            "shards are written in")
    rows, width = int(match[1]), int(match[2])
    if width != len(columns):
        raise ValueError(
            f"{path}: shard has shape {(rows, width)} but the manifest "
            f"payload_columns {list(columns)!r} require {len(columns)} columns")
    offset = start + len(header)
    size = os.fstat(fd).st_size
    if size != offset + rows * width * 8:
        raise ValueError(
            f"{path}: shard file is {size} bytes but its header promises "
            f"{rows} x {width} int64 rows after a {offset}-byte header "
            f"({offset + rows * width * 8} bytes); the file is truncated "
            "or corrupt")
    return rows, offset


def _check_shard_rows(path: PathLike, rows: np.ndarray, n_edges: int) -> None:
    """Raise unless a decoded shard holds its manifest entry's *n_edges*."""
    if rows.shape[0] != n_edges:
        raise ValueError(
            f"{path}: shard holds {rows.shape[0]} rows but its manifest "
            f"entry lists n_edges {n_edges}; the manifest is corrupt")


def _check_order(rows: np.ndarray, previous: Optional[np.ndarray],
                 path: PathLike) -> None:
    """Raise unless *rows* strictly increase in ``(src, dst)`` and start
    after *previous*, the ``(src, dst)`` of the row before them: the shard
    format's one order check, run by the sink and by compaction."""
    src, dst = rows[:, 0], rows[:, 1]
    if previous is not None:
        src = np.concatenate([previous[:1], src])
        dst = np.concatenate([previous[1:2], dst])
    step_src, step_dst = np.diff(src), np.diff(dst)
    bad = np.flatnonzero((step_src < 0) | ((step_src == 0) & (step_dst <= 0)))
    if bad.size:
        at = int(bad[0])
        raise ValueError(
            f"{path}: rows are not in strictly increasing (src, dst) "
            f"order: ({src[at]}, {dst[at]}) is followed by "
            f"({src[at + 1]}, {dst[at + 1]}); a shard store holds "
            "(src, dst)-ordered rows and nothing sorts them (no manifest "
            "was written)")


def read_edge_shard(path: PathLike, columns: Sequence[str], *,
                    mmap_mode: Optional[str] = None) -> np.ndarray:
    """Decode one ``.npy`` edge shard whose rows hold the manifest's
    *columns* (``["src", "dst", ...extras]``).

    The one shard-file reader: :func:`iter_edge_shards`, the compactor and
    :class:`repro.store.ShardStore` all decode through it, so a shard whose
    header, width or size disagrees with its manifest fails identically
    everywhere — with a :class:`ValueError` naming the file — and each
    holds the rows to the manifest's ``n_edges`` (:func:`_check_shard_rows`).
    The file is opened as a bare descriptor, its header checked against the
    one fixed layout the writers produce (:func:`_check_shard_header`: one
    positional read), and the rows are then read at its data offset:
    ``mmap_mode="r"`` returns a plain read-only ``ndarray`` viewing them
    through one ``mmap.mmap`` of the descriptor (its ``base``; the mapping
    holds a duplicate of the descriptor and is released with the last
    view), ``None`` a private copy read with ``np.fromfile``.  The
    descriptor is closed before returning, on success or failure.  Neither
    path parses Python literals, so concurrent decodes from many threads
    need no lock.  The view is a base-class array on purpose: numpy's
    memmap subclass runs Python hooks on every slice taken of it, a cost
    each query would pay.
    """
    if mmap_mode not in (None, "r"):
        raise ValueError(f"edge shards are read-only: mmap_mode must be 'r' "
                         f"or None, got {mmap_mode!r}")
    fd = os.open(path, os.O_RDONLY)
    try:
        rows, offset = _check_shard_header(fd, path, columns)
        shape = (rows, len(columns))
        if mmap_mode is None:
            with open(fd, "rb", closefd=False) as handle:
                return np.fromfile(handle, dtype=_SHARD_DTYPE,
                                   count=rows * shape[1],
                                   offset=offset).reshape(shape)
        # The header check proved the file holds at least the header, so
        # the mapping is never empty, even for a 0-row shard.
        mapping = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
    finally:
        os.close(fd)
    return np.ndarray(shape, dtype=_SHARD_DTYPE, buffer=mapping, offset=offset)


def iter_edge_shards(directory: PathLike, *, mmap_mode: Optional[str] = None):
    """Yield the ``(m, 2 + k)`` edge arrays of a shard directory in manifest
    order, where ``k`` is the number of extra ``payload_columns``; a shard
    file whose header, width, size or row count disagrees with the manifest
    raises a :class:`ValueError` naming the file (:func:`read_edge_shard`).

    ``mmap_mode="r"`` yields read-only views over one memory map per shard
    instead of private copies — the right mode for read-only sweeps and for
    feeding compaction, where the consumer makes its own copy anyway.  The
    default (``None``) keeps the historical copy-per-shard behaviour for
    callers that mutate the blocks.
    """
    directory = Path(directory)
    manifest = read_shard_manifest(directory)
    for shard in manifest["shards"]:
        path = directory / shard["file"]
        rows = read_edge_shard(path, manifest["payload_columns"],
                               mmap_mode=mmap_mode)
        _check_shard_rows(path, rows, shard["n_edges"])
        yield rows


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
    import scipy.sparse as sp

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
    from repro.graphs.directed import DirectedGraph
    from repro.graphs.labeled import VertexLabeledGraph

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
    from repro.graphs.adjacency import Graph
    from repro.graphs.directed import DirectedGraph
    from repro.graphs.labeled import VertexLabeledGraph

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
