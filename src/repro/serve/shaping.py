"""One answer shape per query, shared by the CLI and the wire protocol.

``repro-kron query --json`` and the :mod:`repro.serve` server answer the
same questions from the same :class:`~repro.store.ShardStore`; this module
is the single place their answer *shapes* are defined, so the two surfaces
cannot drift.  Every function returns a dict whose scalars are built-in
``int`` / ``str`` and whose rows, id lists and payload columns are
``int64`` numpy arrays.  The wire codec
(:func:`repro.serve.protocol.encode_parts`) ships those arrays as raw
bytes beside the JSON control frame; the CLI turns them into lists only
when it prints JSON.

The CLI uses :func:`shape_degree` / :func:`shape_neighbors` /
:func:`shape_egonet` / :func:`shape_range`, which take the store.  The
server makes each op's store call itself — on its event loop, through the
store's steps or (the range router) its fleet's coroutines — and assembles
the answer from the call's result with :func:`degrees_shape` /
:func:`edges_for_sources_shape` / :func:`range_shape` /
:func:`edge_payloads_shape` / :func:`egonet_shape` /
:func:`subgraph_shape`, the same assembly the ``shape_*`` functions use.
An ``egonet`` answer is counted from the egonet's sorted rows, so no
served or routed answer builds a scipy matrix; with
``include_members=True`` it carries the vertex list and rows from which
a remote client rebuilds the :class:`~repro.graphs.egonet.Egonet` through
:func:`repro.store.query.induced_adjacency`, the relabelling the
in-process store uses.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

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
    "degrees_shape",
    "neighbors_shape",
    "range_shape",
    "edges_for_sources_shape",
    "edge_payloads_shape",
    "egonet_shape",
    "subgraph_shape",
    "shape_degree",
    "shape_degrees",
    "shape_neighbors",
    "shape_egonet",
    "shape_range",
    "shape_range_binary",
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
]


def _columns(payload_columns: Sequence[str], with_payload: bool) -> list:
    """Column names of the rows a query answers with."""
    return ["src", "dst", *(payload_columns if with_payload else ())]


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


def degrees_shape(vertices: np.ndarray, degrees: np.ndarray) -> dict:
    """Assemble a ``degrees`` answer from already-computed values — the
    server's entry point, wherever its store call ran."""
    return {"query": "degrees", "vertices": vertices, "degrees": degrees}


def shape_degrees(store, vertices: Sequence[int]) -> dict:
    """Batch ``degrees`` answer (array-in / array-out, PR 1 conventions)."""
    vs = np.asarray(vertices, dtype=np.int64)
    return degrees_shape(vs, store.degrees(vs))


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


def egonet_shape(vertex: int, vertices: np.ndarray, rows: np.ndarray,
                 payload_columns: Sequence[str], *, with_payload: bool,
                 include_members: bool) -> dict:
    """Assemble an ``egonet`` answer from :meth:`ShardStore.egonet_edges`:
    the Figure 7 summary, plus (``include_members=True``) the vertex list
    and rows a remote client rebuilds the Egonet from.  ``centre_degree``
    is the centre's rows minus its self loop; each triangle at the centre
    is a neighbour-to-neighbour edge, stored as two rows, so
    ``triangles_at_centre`` is those rows (self loops excluded) halved."""
    vertex = int(vertex)
    srcs, dsts = rows[:, 0], rows[:, 1]
    off_centre = dsts != vertex
    at_centre = srcs == vertex
    result = {
        "query": "egonet",
        "vertex": vertex,
        "n_vertices": int(vertices.shape[0]),
        "centre_degree": int(np.count_nonzero(at_centre & off_centre)),
        "triangles_at_centre": int(np.count_nonzero(
            ~at_centre & off_centre & (srcs != dsts))) // 2,
    }
    if with_payload:
        result["n_induced_edges"] = int(rows.shape[0])
        result["payload_totals"] = {
            name: int(rows[:, 2 + offset].sum())
            for offset, name in enumerate(payload_columns)
        }
    if include_members:
        result["vertices"] = vertices
        if with_payload:
            # The payload rows already carry the topology in their first two
            # columns — a separate "edges" array would ship it twice.
            result["rows"] = rows
            result["columns"] = _columns(payload_columns, with_payload)
        else:
            result["edges"] = rows
    return result


def shape_egonet(store, vertex: int, *, with_payload: bool = False,
                 include_members: bool = False) -> dict:
    """``egonet`` answer from an in-process store: :func:`egonet_shape`
    over the store's egonet rows."""
    vertex = int(vertex)
    if with_payload:
        # The in-process pair holds the rows, and is what the benchmark's
        # replay stand-in (perfbench/served.py) answers.
        ego, rows = store.egonet(vertex, with_payload=True)
        vertices = ego.vertices
    else:
        vertices, rows = store.egonet_edges(vertex)
    return egonet_shape(vertex, vertices, rows, store.payload_columns,
                        with_payload=with_payload,
                        include_members=include_members)


def range_shape(lo: int, hi: int, rows: np.ndarray,
                payload_columns: Sequence[str], *,
                with_payload: bool) -> dict:
    """Assemble an ``edges_in_range`` answer from the stored rows of the
    ``[lo, hi)`` source range (see :func:`shape_range`)."""
    return {
        "query": "edges_in_range",
        "lo": int(lo),
        "hi": int(hi),
        "n_edges": int(rows.shape[0]),
        "columns": _columns(payload_columns, with_payload),
        "edges": rows,
    }


def shape_range(store, lo: int, hi: int, *,
                with_payload: bool = False) -> dict:
    """``edges_in_range`` answer: every stored row with source in the
    ``[lo, hi)`` range, ``(src, dst)``-sorted; ``n_edges`` counts them.  The
    CLI truncates the ``edges`` it prints itself (``query --limit``)."""
    lo, hi = int(lo), int(hi)
    rows = store.edges_in_range(lo, hi, with_payload=with_payload)
    return range_shape(lo, hi, rows, store.payload_columns,
                       with_payload=with_payload)


def shape_range_binary(store, lo: int, hi: int, *,
                       with_payload: bool = False):
    """``(answer, rows)``: :func:`shape_range` and its ``edges`` array.

    Every answer array travels as raw bytes, so range answers need no
    shape of their own; this thin alias stays because the benchmark's
    in-process replay (``perfbench/served.py``) calls it by this name and
    takes the answer from the pair."""
    answer = shape_range(store, lo, hi, with_payload=with_payload)
    return answer, answer["edges"]


def edges_for_sources_shape(vertices: np.ndarray, rows: np.ndarray,
                            payload_columns: Sequence[str], *,
                            with_payload: bool) -> dict:
    """``edges_for_sources`` answer: every stored row whose source is in
    *vertices* (deduplicated), ``(src, dst)``-sorted — the batch gather the
    range router splits by worker ranges, exposed on the wire so remote
    callers (and the router itself) can compose subgraph-style queries from
    one round trip per slice.  Assembled from the gathered *rows*."""
    return {
        "query": "edges_for_sources",
        "vertices": vertices,
        "n_edges": int(rows.shape[0]),
        "columns": _columns(payload_columns, with_payload),
        "edges": rows,
    }


def subgraph_shape(vertices: np.ndarray, rows: np.ndarray,
                   payload_columns: Sequence[str], store_name: Optional[str],
                   *, with_payload: bool) -> dict:
    """Assemble a ``subgraph`` answer from :meth:`ShardStore.subgraph_edges`
    and the vertex list in the caller's order, from which a client
    rebuilds the store's exact adjacency."""
    result = {
        "query": "subgraph",
        "vertices": vertices,
        "n_vertices": int(vertices.size),
        "n_edges": int(rows.shape[0]),
        "name": f"{store_name or 'store'}[sub]",
    }
    if with_payload:
        result["rows"] = rows
        result["columns"] = _columns(payload_columns, with_payload)
    else:
        result["edges"] = rows
    return result


def edge_payloads_shape(payload_columns: Sequence[str],
                        values: np.ndarray) -> dict:
    """Assemble an ``edge_payloads`` answer from the looked-up payload
    rows (see :func:`shape_edge_payloads`)."""
    return {
        "query": "edge_payloads",
        "columns": list(payload_columns),
        "payloads": values,
    }


def shape_edge_payloads(store, ps: Sequence[int], qs: Sequence[int]) -> dict:
    """``edge_payloads`` answer: per-edge ground-truth rows for the queried
    ``(ps[t], qs[t])`` pairs (every pair must be a stored edge)."""
    values = store.edge_payloads(np.asarray(ps, dtype=np.int64),
                                 np.asarray(qs, dtype=np.int64))
    return edge_payloads_shape(store.payload_columns, values)


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
              for key in ("shard_reads", "cache_hits", "evictions",
                          "cached_shards", "cache_shards", "resident_bytes",
                          "mapped_bytes")}
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
