"""One answer shape per query, shared by the CLI and the wire protocol.

``repro-kron query --json`` and the :mod:`repro.serve` server answer the
same questions from the same :class:`~repro.store.ShardStore`; this module
is the single place their answer *shapes* are defined, so the two surfaces
cannot drift.  Every function takes the store plus plain-Python arguments
and returns a dict whose scalars are built-in ``int`` / ``str`` and whose
rows, id lists and payload columns are ``int64`` numpy arrays.  The wire
codec (:func:`repro.serve.protocol.encode_parts`) ships those arrays as
raw bytes beside the JSON control frame; the CLI turns them into lists
only when it prints JSON.

The CLI uses :func:`shape_degree` / :func:`shape_neighbors` /
:func:`shape_egonet` / :func:`shape_range` directly.  The server adds the
batch and reconstruction-oriented shapes (:func:`shape_degrees`,
:func:`shape_subgraph`, :func:`shape_edge_payloads`) and passes
``include_members=True`` to :func:`shape_egonet` so a remote client can
rebuild the full :class:`~repro.graphs.egonet.Egonet`;
:func:`induced_adjacency` is the client-side inverse (identical relabelling
to :meth:`ShardStore.subgraph_adjacency`, so the reconstructed adjacency is
exactly the in-process answer).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro.obs import render_prometheus
from repro.serve.protocol import PROTOCOL_VERSION

__all__ = [
    "metrics_shape",
    "trace_answer_shape",
    "reset_stats_shape",
    "profile_shape",
    "events_shape",
    "health_shape",
    "degree_shape",
    "neighbors_shape",
    "shape_degree",
    "shape_degrees",
    "shape_neighbors",
    "shape_egonet",
    "shape_range",
    "shape_range_binary",
    "shape_edges_for_sources",
    "shape_subgraph",
    "shape_edge_payloads",
    "shape_store_info",
    "hello_shape",
    "stats_answer_shape",
    "shutdown_shape",
    "fleet_shape",
    "missing_worker",
    "fleet_worker_report",
    "fleet_store_counters",
    "fleet_stats_shape",
    "induced_adjacency",
]


def _columns(store, with_payload: bool) -> list:
    """Column names of the rows a query answers with."""
    return ["src", "dst", *(store.payload_columns if with_payload else ())]


def _induced_edges_from_graph(vertices: np.ndarray, adjacency) -> np.ndarray:
    """Global-id ``(src, dst)``-sorted edge list of an induced subgraph whose
    adjacency was already gathered — avoids a second shard pass when serving
    an egonet (the stored rows and the adjacency carry the same entries)."""
    counts = np.diff(adjacency.indptr)
    local_src = np.repeat(np.arange(vertices.shape[0]), counts)
    edges = np.column_stack([vertices[local_src],
                             vertices[adjacency.indices]]).astype(np.int64)
    return edges[np.lexsort((edges[:, 1], edges[:, 0]))]


def degree_shape(vertex: int, degree: int) -> dict:
    """Assemble a ``degree`` answer from an already-computed value — the
    entry point the server's request coalescer shares with
    :func:`shape_degree`, so batched and direct answers cannot differ."""
    return {"query": "degree", "vertex": int(vertex), "degree": int(degree)}


def shape_degree(store, vertex: int) -> dict:
    """``degree`` answer: self loop excluded, the
    :meth:`repro.core.KroneckerGraph.degree` convention."""
    vertex = int(vertex)
    return degree_shape(vertex, store.degree(vertex))


def shape_degrees(store, vertices: Sequence[int]) -> dict:
    """Batch ``degrees`` answer (array-in / array-out, PR 1 conventions)."""
    vs = np.asarray(vertices, dtype=np.int64)
    return {"query": "degrees", "vertices": vs, "degrees": store.degrees(vs)}


def neighbors_shape(vertex: int, rows: np.ndarray,
                    payload_columns: Sequence[str], *,
                    with_payload: bool) -> dict:
    """Assemble a ``neighbors`` answer from the stored rows of one source
    vertex — shared by :func:`shape_neighbors` and the server's coalesced
    batch path (which slices one ``edges_for_sources`` gather per batch)."""
    vertex = int(vertex)
    rows = rows[rows[:, 1] != vertex]  # store convention: self loop excluded
    result = {"query": "neighbors", "vertex": vertex,
              "neighbors": rows[:, 1]}
    if with_payload:
        result["payload"] = {
            name: rows[:, 2 + offset]
            for offset, name in enumerate(payload_columns)
        }
    result["count"] = int(rows.shape[0])
    return result


def shape_neighbors(store, vertex: int, *, with_payload: bool = False) -> dict:
    """``neighbors`` answer: sorted neighbour ids, self loop excluded; with
    ``with_payload`` the store's ground-truth columns ride along, keyed by
    column name."""
    vertex = int(vertex)
    rows = store.edges_for_sources([vertex], with_payload=with_payload)
    return neighbors_shape(vertex, rows, store.payload_columns,
                           with_payload=with_payload)


def shape_egonet(store, vertex: int, *, with_payload: bool = False,
                 include_members: bool = False) -> dict:
    """``egonet`` answer: the Figure 7 summary statistics, plus (server mode,
    ``include_members=True``) the vertex list and induced edges a remote
    client needs to rebuild the :class:`~repro.graphs.egonet.Egonet`."""
    vertex = int(vertex)
    if with_payload:
        ego, rows = store.egonet(vertex, with_payload=True)
    else:
        ego, rows = store.egonet(vertex), None
    result = {
        "query": "egonet",
        "vertex": vertex,
        "n_vertices": int(ego.n_vertices),
        "centre_degree": int(ego.degree_of_center()),
        "triangles_at_centre": int(ego.triangles_at_center()),
    }
    if rows is not None:
        result["n_induced_edges"] = int(rows.shape[0])
        result["payload_totals"] = {
            name: int(rows[:, 2 + offset].sum())
            for offset, name in enumerate(store.payload_columns)
        }
    if include_members:
        result["vertices"] = ego.vertices
        if with_payload:
            # The payload rows already carry the topology in their first two
            # columns — a separate "edges" array would ship it twice.
            result["rows"] = rows
            result["columns"] = _columns(store, with_payload)
        else:
            result["edges"] = _induced_edges_from_graph(
                ego.vertices, ego.graph.adjacency)
    return result


def shape_range(store, lo: int, hi: int, *,
                with_payload: bool = False) -> dict:
    """``edges_in_range`` answer: every stored row with source in the
    ``[lo, hi)`` range, ``(src, dst)``-sorted; ``n_edges`` counts them.  The
    CLI truncates the ``edges`` it prints itself (``query --limit``)."""
    lo, hi = int(lo), int(hi)
    rows = store.edges_in_range(lo, hi, with_payload=with_payload)
    return {
        "query": "edges_in_range",
        "lo": lo,
        "hi": hi,
        "n_edges": int(rows.shape[0]),
        "columns": _columns(store, with_payload),
        "edges": rows,
    }


def shape_range_binary(store, lo: int, hi: int, *,
                       with_payload: bool = False):
    """``(answer, rows)``: :func:`shape_range` and its ``edges`` array.

    Every answer array travels as raw bytes, so range answers need no
    shape of their own; this thin alias stays because the benchmark's
    in-process replay (``perfbench/served.py``) calls it by this name and
    takes the answer from the pair."""
    answer = shape_range(store, lo, hi, with_payload=with_payload)
    return answer, answer["edges"]


def shape_edges_for_sources(store, vertices: Sequence[int], *,
                            with_payload: bool = False) -> dict:
    """``edges_for_sources`` answer: every stored row whose source is in
    *vertices* (deduplicated), ``(src, dst)``-sorted — the batch gather the
    range router splits by worker ranges, exposed on the wire so remote
    callers (and the router itself) can compose subgraph-style queries from
    one round trip per slice."""
    vs = np.asarray(vertices, dtype=np.int64)
    rows = store.edges_for_sources(vs, with_payload=with_payload)
    return {
        "query": "edges_for_sources",
        "vertices": vs,
        "n_edges": int(rows.shape[0]),
        "columns": _columns(store, with_payload),
        "edges": rows,
    }


def shape_subgraph(store, vertices: Sequence[int], *,
                   with_payload: bool = False) -> dict:
    """``subgraph`` answer: the induced stored rows plus the vertex list in
    the caller's order, from which :func:`induced_adjacency` rebuilds the
    exact :meth:`ShardStore.subgraph_adjacency` matrix."""
    vs = np.asarray(vertices, dtype=np.int64)
    if np.unique(vs).size != vs.size:
        # Reject before the gather: decoding shards for a request that is
        # doomed anyway would be free denial-of-work.
        raise ValueError("subgraph vertex selection contains duplicates")
    rows = store.subgraph_edges(vs, with_payload=with_payload)
    result = {
        "query": "subgraph",
        "vertices": vs,
        "n_vertices": int(vs.size),
        "n_edges": int(rows.shape[0]),
        "name": f"{store.manifest.get('name') or 'store'}[sub]",
    }
    if with_payload:
        result["rows"] = rows
        result["columns"] = _columns(store, with_payload)
    else:
        result["edges"] = rows
    return result


def shape_edge_payloads(store, ps: Sequence[int], qs: Sequence[int]) -> dict:
    """``edge_payloads`` answer: per-edge ground-truth rows for the queried
    ``(ps[t], qs[t])`` pairs (every pair must be a stored edge)."""
    values = store.edge_payloads(np.asarray(ps, dtype=np.int64),
                                 np.asarray(qs, dtype=np.int64))
    return {
        "query": "edge_payloads",
        "columns": list(store.payload_columns),
        "payloads": values,
    }


def shape_store_info(store) -> dict:
    """The ``hello`` answer: what a client needs to know about the store."""
    return {
        "n_vertices": int(store.n_vertices),
        "total_edges": int(store.total_edges),
        "n_shards": int(store.n_shards),
        "payload_columns": list(store.payload_columns),
        "name": store.manifest.get("name"),
    }


def hello_shape(ops: Sequence[str], store_info: dict, *,
                fleet: Optional[dict] = None,
                started_at: Optional[float] = None,
                uptime_s: Optional[float] = None) -> dict:
    """The ``hello`` answer envelope: protocol version, ops, and the store
    description.  A range router adds a ``"fleet"`` section describing its
    worker slices; everything else is identical to a single server, which is
    what makes routing transparent to ``query --connect``.

    ``started_at`` (wall-clock epoch seconds) / ``uptime_s`` are additive
    server-metadata keys — omitted when unknown, never version-bumping —
    so an operator's first round trip already answers "how long has this
    been up"; a router reports its own lifetime here and rolls worker
    uptimes up through the ``health`` op."""
    result = {
        "query": "hello",
        "protocol": PROTOCOL_VERSION,
        "ops": sorted(ops),
        "store": store_info,
    }
    if started_at is not None:
        result["started_at"] = round(float(started_at), 3)
    if uptime_s is not None:
        result["uptime_s"] = round(float(uptime_s), 3)
    if fleet is not None:
        result["fleet"] = fleet
    return result


def stats_answer_shape(stats: dict) -> dict:
    """The ``stats`` answer envelope around a server's counter sections."""
    return {"query": "stats", **stats}


def shutdown_shape() -> dict:
    """The ``shutdown`` acknowledgement."""
    return {"query": "shutdown", "stopping": True}


def metrics_shape(snapshot: dict) -> dict:
    """The ``metrics`` answer: one registry snapshot, two renderings.

    ``"metrics"`` carries the raw series
    (:meth:`repro.obs.MetricsRegistry.snapshot`) and ``"prometheus"`` the
    text exposition of the *same* snapshot
    (:func:`repro.obs.render_prometheus`) — both surfaces are derived here
    from one snapshot, so they round-trip the same numbers by construction.
    """
    return {
        "query": "metrics",
        "metrics": snapshot,
        "prometheus": render_prometheus(snapshot),
    }


def trace_answer_shape(trace_id: str, spans: Sequence[dict], *,
                       missing_workers: Optional[Sequence[dict]] = None
                       ) -> dict:
    """The ``trace`` answer: every recorded span of one trace, ordered by
    wall-clock start so the fan-out reads top-down.  A router merges its own
    spans with its workers' before shaping, so the client sees one tree,
    and lists the workers whose spans it could not fetch
    (:func:`missing_worker` entries)."""
    ordered = sorted(spans, key=lambda s: (s.get("start_us", 0), s.get("span", "")))
    result = {
        "query": "trace",
        "id": str(trace_id),
        "n_spans": len(ordered),
        "spans": list(ordered),
    }
    if missing_workers is not None:
        result["missing_workers"] = list(missing_workers)
    return result


def reset_stats_shape(*, workers: Optional[int] = None) -> dict:
    """The ``reset_stats`` acknowledgement; a router reports how many
    workers the reset fanned out to."""
    result = {"query": "reset_stats", "reset": True}
    if workers is not None:
        result["workers"] = int(workers)
    return result


def profile_shape(action: str, profile: dict, *, running: bool, hz: float,
                  collapsed: Optional[str] = None,
                  router: Optional[dict] = None,
                  workers: Optional[int] = None,
                  missing_workers: Optional[Sequence[dict]] = None) -> dict:
    """The ``profile`` answer: the (possibly merged) folded-stack
    aggregate after *action* was applied.

    *profile* is a :meth:`repro.obs.ProfileStats.as_dict` payload;
    ``running`` / ``hz`` describe the answering server's own profiler.  A
    router answers with the fleet-merged aggregate in ``"profile"``, its
    own (unmerged) aggregate in ``"router"``, the worker count, and the
    workers it could not reach (``missing_workers``) — so
    ``profile == router + sum(worker profiles)`` is checkable from the
    answer.  ``collapsed`` carries the flamegraph text when the request
    asked for it."""
    result = {
        "query": "profile",
        "action": str(action),
        "running": bool(running),
        "hz": float(hz),
        "profile": profile,
    }
    if collapsed is not None:
        result["collapsed"] = collapsed
    if router is not None:
        result["router"] = router
    if workers is not None:
        result["workers"] = int(workers)
    if missing_workers is not None:
        result["missing_workers"] = list(missing_workers)
    return result


def events_shape(events: Sequence[dict], *, dropped: int = 0,
                 workers: Optional[int] = None,
                 missing_workers: Optional[Sequence[dict]] = None) -> dict:
    """The ``events`` answer: the flight recorder's retained events,
    oldest first.  A router answers with its own and every worker's
    events interleaved by wall-clock timestamp
    (:func:`repro.obs.merge_events`), ``dropped`` summed across the
    fleet, the worker count, and the workers whose events are missing."""
    result = {
        "query": "events",
        "n_events": len(events),
        "dropped": int(dropped),
        "events": list(events),
    }
    if workers is not None:
        result["workers"] = int(workers)
    if missing_workers is not None:
        result["missing_workers"] = list(missing_workers)
    return result


def health_shape(*, status: str, started_at: Optional[float],
                 uptime_s: float, profiler: dict, events: dict,
                 traces: int, connections_open: Optional[int] = None,
                 fleet: Optional[dict] = None,
                 workers: Optional[Sequence[dict]] = None,
                 down: Optional[Sequence[dict]] = None) -> dict:
    """The ``health`` answer: one server's liveness roll-up.

    ``status`` is ``"ok"`` or ``"degraded"``; ``profiler`` / ``events`` /
    ``traces`` summarize the observability state (is the profiler armed,
    how full is the flight recorder, how many traces are retained).  A
    router rolls the fleet in: per-worker reports
    (:func:`fleet_worker_report` with their ``health`` answers), the
    ``down`` list naming every unreachable worker **and its assigned
    range** (:func:`missing_worker` entries) — the fleet keeps serving the
    surviving ranges, and this is where an operator reads which vertices
    went dark."""
    result = {
        "query": "health",
        "status": str(status),
        "uptime_s": round(float(uptime_s), 3),
        "profiler": dict(profiler),
        "events": dict(events),
        "traces": int(traces),
    }
    if started_at is not None:
        result["started_at"] = round(float(started_at), 3)
    if connections_open is not None:
        result["connections_open"] = int(connections_open)
    if fleet is not None:
        result["fleet"] = fleet
    if workers is not None:
        result["workers"] = list(workers)
    if down is not None:
        result["down"] = list(down)
    return result


def fleet_shape(ranges: Sequence, addresses: Sequence, *,
                failovers: Optional[Sequence[int]] = None,
                calls: Optional[Sequence[int]] = None) -> dict:
    """Describe a fleet: one entry per worker slice, in range order.

    *ranges* are the assigned half-open ``(src_lo, src_hi)`` vertex ranges,
    *addresses* the per-slice replica address lists; *failovers* / *calls*
    add the router's per-slice channel counters when known.
    """
    slices = []
    for index, ((lo, hi), addrs) in enumerate(zip(ranges, addresses)):
        entry = {"worker": index, "src_lo": int(lo), "src_hi": int(hi),
                 "addresses": [str(a) for a in addrs]}
        if calls is not None:
            entry["calls"] = int(calls[index])
        if failovers is not None:
            entry["failovers"] = int(failovers[index])
        slices.append(entry)
    return {"workers": len(slices), "slices": slices}


def missing_worker(index: int, src_lo: int, src_hi: int, error) -> dict:
    """One worker a router could not reach, named with its assigned
    ``[src_lo, src_hi)`` vertex range: an entry of the ``health`` answer's
    ``down`` list and of the ``missing_workers`` list on the merged
    ``profile`` / ``events`` / ``trace`` answers."""
    return {"worker": int(index), "src_lo": int(src_lo),
            "src_hi": int(src_hi), "error": str(error)}


def fleet_worker_report(index: int, src_lo: int, src_hi: int, *,
                        stats: Optional[dict] = None,
                        health: Optional[dict] = None,
                        error: Optional[str] = None) -> dict:
    """One worker's entry in a fleet rollup: its full per-worker ``stats``
    (or ``health``) answer when it responded, or the error string when it
    did not (a fleet-level rollup must not fail just because one worker is
    down — the error entry names the worker *and its assigned range*, so
    an operator reads which vertices went dark straight off the answer).
    """
    report = {"worker": int(index), "src_lo": int(src_lo),
              "src_hi": int(src_hi), "ok": error is None}
    if error is not None:
        report["error"] = str(error)
    elif health is not None:
        report["health"] = health
    else:
        report["stats"] = stats
    return report


def fleet_store_counters(store_sections: Sequence[dict], *,
                         n_shards: int) -> dict:
    """Fleet-level ``"store"`` counter section: the single-store keys with
    additive counters summed across the responding workers, so CLI / client
    consumers of ``stats()["store"]`` read a router exactly like a single
    server.  ``n_shards`` is the *parent* store's count (boundary shards are
    listed by two slices and must not be double-counted)."""
    summed = {key: sum(int(section[key]) for section in store_sections)
              for key in ("shard_reads", "cache_hits", "cached_shards",
                          "cache_shards", "resident_bytes", "mapped_bytes")}
    return {
        **summed,
        "n_shards": int(n_shards),
        "mmap": all(bool(section["mmap"]) for section in store_sections),
        "workers": len(store_sections),
    }


def fleet_stats_shape(server: dict, fleet: dict, reports: Sequence[dict], *,
                      n_shards: int) -> dict:
    """A router's ``stats()`` sections: the router's own ``server`` counters,
    the fleet description, the per-worker reports
    (:func:`fleet_worker_report`), and the summed ``store`` section."""
    sections = [report["stats"]["store"] for report in reports
                if report.get("ok")]
    return {
        "server": server,
        "fleet": fleet,
        "workers": list(reports),
        "store": fleet_store_counters(sections, n_shards=n_shards),
    }


def induced_adjacency(vertices: np.ndarray, edges: np.ndarray) -> sp.csr_matrix:
    """Rebuild an induced adjacency from global-id *edges* over *vertices*.

    Local vertex *i* is ``vertices[i]`` (caller order preserved) — the same
    relabelling :meth:`ShardStore.subgraph_adjacency` applies, so a client
    reconstructing a served subgraph or egonet gets a matrix exactly equal
    to the in-process answer.  Every edge endpoint must be in *vertices*.
    """
    vs = np.asarray(vertices, dtype=np.int64)
    k = vs.shape[0]
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.shape[0] == 0 or k == 0:
        return sp.csr_matrix((k, k), dtype=np.int64)
    order = np.argsort(vs, kind="stable")
    sorted_vs = vs[order]
    local_src = order[np.searchsorted(sorted_vs, edges[:, 0])]
    local_dst = order[np.searchsorted(sorted_vs, edges[:, 1])]
    data = np.ones(edges.shape[0], dtype=np.int64)
    return sp.csr_matrix((data, (local_src, local_dst)), shape=(k, k))
