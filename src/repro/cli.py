"""Command-line interface for generating and validating Kronecker benchmark graphs.

The CLI mirrors the workflow a benchmark consumer would follow with the
published artefacts of the paper:

``repro-kron generate``
    Build two factor graphs (from any of the built-in generators), save them
    as a compressed Kronecker bundle (``.npz``) — the shareable representation
    of the product — and print its summary statistics.

``repro-kron stats``
    Load a bundle and print the Section VI-style summary table (vertices,
    edges, triangles) for the factors and the product, all from Kronecker
    formulas.  With ``--connect HOST:PORT`` it instead polls a running
    ``repro-kron serve`` instance's operational stats (request counts,
    latency percentiles, fleet rollup) — ``--watch N`` refreshes every N
    seconds (appending the flight recorder's most recent events under
    each refresh) and ``--prometheus`` emits the registry snapshot in
    Prometheus text format for scraping.

``repro-kron validate``
    Load a bundle and run the egonet spot-check validation (Fig. 7) and, when
    the product is small enough, the full formula-vs-direct validation.

``repro-kron stream``
    Load a bundle and spill the product's edge list in bounded-memory
    chunks — by default as a ``.npy`` shard directory with a JSON manifest
    (TSV stays available via ``--format tsv`` or a ``.tsv`` output path).
    With ``--ranks N`` the spill runs through the communication-free
    streaming rank pipeline: every rank folds its blocks into aggregates,
    the aggregates are allreduced, and the result is validated on the fly
    against the closed-form factor statistics — no full edge list is ever
    held in memory.  ``--payload triangles,trussness`` widens the spilled
    shards with exact per-edge ground-truth columns (evaluated per block
    through the factored statistics), recorded by name in the manifest; a
    payload spill always runs through the rank pipeline, on one rank when
    ``--ranks`` is not given.  A ``.npy`` spill is a shard store: its
    manifest v2 records each shard's source-vertex range, so ``query`` and
    ``serve`` open it as it is.

``repro-kron compact``
    Optionally re-cut a shard store — a spill or an earlier compaction —
    into shards of ``--target-edges`` edges under a new manifest v2
    (``repro.store``): fewer, larger shards than a spill's one per block, or
    smaller ones.  The rows are already in ``(src, dst)`` order, so
    compaction checks that order and re-cuts them, payload columns
    unchanged; rows out of order are an error.

``repro-kron query``
    Serve degree / neighbor / egonet / edge-range queries from a shard
    store, decoding only the shards whose manifest range overlaps the query
    — the product is never materialized.  ``--payload`` adds the stored
    per-edge ground truth to the answer and ``--json`` emits a single JSON
    object for scripts.  With ``--connect HOST:PORT`` the same queries run
    against a remote ``repro-kron serve`` instance instead of a local
    directory — identical output, because both surfaces share the
    :mod:`repro.serve.shaping` answer shapes.

``repro-kron serve``
    Put a shard store behind a socket: the :mod:`repro.serve` asyncio
    front-end (one concurrent-safe :class:`~repro.store.ShardStore`, warm
    store calls over at most two shards on the event loop and the rest on
    a bounded decode pool — one thread unless ``--threads`` says
    otherwise, since decodes hold the GIL — concurrent scalar queries
    coalesced into batch calls).  With ``--fleet`` the router and every
    slice worker serve on that one event loop, and the router awaits
    every routed query and rollup there, so a routed request crosses no
    thread; each worker keeps its own ``--threads`` decode pool.  The
    loop's thread is named ``shard-serve``, so ``profile`` samples it
    under the ``event_loop`` role.  Stops gracefully on Ctrl-C or a
    client ``shutdown`` request, then prints the request/cache
    statistics.

``repro-kron profile``
    Arm a running server's continuous sampling profiler for a few
    seconds and print the folded-stack aggregate — per-role top stacks,
    or raw flamegraph-tool input lines with ``--collapsed``.  Against a
    router the answer is the whole fleet's profile, merged.

``repro-kron health``
    One-shot liveness check of a running server: uptime, profiler and
    flight-recorder state, open connections — and, against a router, a
    per-worker rollup that names any unreachable worker and its vertex
    range.  Exits 1 when the surface is degraded, so it drops straight
    into shell-level monitoring.

``repro-kron lint``
    Run the AST convention linter (:mod:`repro.lint`) over a file or
    directory — by default the installed ``repro`` package — and exit 1
    on any finding.  ``--json`` emits a machine-readable report (stable
    keys, sorted findings) for automation to diff; ``--rule NAME``
    restricts the run to one rule; ``--list-rules`` prints the registered
    rule set.  The tier-1 test suite runs the same engine and asserts
    zero findings, so a red ``lint`` is a red build.

Each sub-command is also usable programmatically through :func:`main`, which
accepts an ``argv`` list and returns the process exit code (the test-suite
drives it this way).

Each sub-command imports what it runs.  ``generate``, ``stats`` (with a
bundle), ``validate`` and ``stream`` import the generation, analysis and
validation stack, and with it scipy, inside the sub-command, and ``lint``
imports the AST engine there.  At module level this file imports only the
serving layers (:mod:`repro.serve`, :mod:`repro.store`, :mod:`repro.graphs.io`
and, through them, :mod:`repro.obs` and :mod:`repro.lint.runtime`), so
``serve``, ``serve --fleet``, ``query`` and the ``--connect`` commands start
with numpy and the standard library only; ``tests/test_import_set.py``
holds that.  A store that is missing, has no manifest, or fails the
manifest check (a ``format_version`` 1 spill of an earlier release
included) makes ``serve`` and ``query`` exit with one line naming the
store and the reason.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import sys
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.graphs.io import (
    NpyShardSink,
    load_kronecker_bundle,
    read_shard_manifest,
    save_kronecker_bundle,
    write_edge_shards,
)
from repro.serve import (
    PROTOCOL_VERSION,
    FleetStore,
    QueryClient,
    RangeRouter,
    ShardStoreServer,
    fleet_info_from_manifest,
)
from repro.serve.shaping import (
    shape_degree,
    shape_egonet,
    shape_neighbors,
    shape_range,
)
from repro.store import ShardStore, compact_shards, partition_manifest

if TYPE_CHECKING:
    from repro.graphs.adjacency import Graph

__all__ = ["main", "build_parser"]

#: Factor recipes available to ``repro-kron generate --factor-a/--factor-b``.
FACTOR_RECIPES = ("weblike", "ba", "er", "clique", "looped-clique", "hub-cycle", "tpa")


def _build_factor(recipe: str, size: int, seed: int) -> Graph:
    """Instantiate one factor from a recipe name."""
    from repro import generators

    if recipe == "weblike":
        return generators.webgraph_like(size, seed=seed)
    if recipe == "ba":
        return generators.barabasi_albert(size, 3, seed=seed)
    if recipe == "er":
        return generators.erdos_renyi(size, min(1.0, 8.0 / max(size, 1)), seed=seed)
    if recipe == "clique":
        return generators.complete_graph(size)
    if recipe == "looped-clique":
        return generators.looped_clique(size)
    if recipe == "hub-cycle":
        return generators.hub_cycle_graph()
    if recipe == "tpa":
        return generators.triangle_constrained_pa(size, seed=seed)
    raise ValueError(f"unknown factor recipe {recipe!r}; choose from {FACTOR_RECIPES}")


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for the ``repro-kron`` command."""
    parser = argparse.ArgumentParser(
        prog="repro-kron",
        description="Non-stochastic Kronecker graph generation with exact triangle statistics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="build factors and save a Kronecker bundle")
    gen.add_argument("bundle", type=Path, help="output .npz bundle path")
    gen.add_argument("--factor-a", choices=FACTOR_RECIPES, default="weblike")
    gen.add_argument("--factor-b", choices=FACTOR_RECIPES, default="weblike")
    gen.add_argument("--size-a", type=int, default=1000)
    gen.add_argument("--size-b", type=int, default=1000)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--self-loops-b", action="store_true",
                     help="add a self loop at every vertex of factor B (B ← B + I)")
    gen.add_argument("--stream", type=Path, default=None, metavar="DIR",
                     help="also spill the product edge list to a .npy shard "
                          "directory (bounded-memory, never materialized)")

    stats = sub.add_parser(
        "stats",
        help="print the summary table for a bundle, or poll a running "
             "server's operational stats with --connect")
    stats.add_argument("bundle", type=Path, nargs="?", default=None,
                       help="Kronecker bundle (omit with --connect)")
    stats.add_argument("--connect", type=str, default=None, metavar="HOST:PORT",
                       help="show a running `repro-kron serve` instance's "
                            "operational stats instead of a bundle table")
    stats.add_argument("--watch", type=float, default=None, metavar="SECONDS",
                       help="with --connect: re-poll every SECONDS until "
                            "interrupted")
    stats.add_argument("--prometheus", action="store_true",
                       help="with --connect: print the metrics registry in "
                            "Prometheus text format instead of the JSON "
                            "stats answer")
    stats.add_argument("--timeout", type=float, default=30.0,
                       help="socket timeout in seconds for --connect "
                            "(default 30)")

    val = sub.add_parser("validate", help="validate formulas against direct computation")
    val.add_argument("bundle", type=Path)
    val.add_argument("--egonets", type=int, default=9,
                     help="number of random egonet spot checks (default 9)")
    val.add_argument("--seed", type=int, default=0)
    val.add_argument("--full", action="store_true",
                     help="also materialize the product and compare every statistic "
                          "(only for small products)")
    val.add_argument("--max-nnz", type=int, default=20_000_000,
                     help="materialization guard for --full")

    stream = sub.add_parser(
        "stream",
        help="spill the product edge list in bounded-memory chunks "
             "(.npy shards by default, TSV opt-in)")
    stream.add_argument("bundle", type=Path)
    stream.add_argument("output", type=Path,
                        help="shard directory (default format) or .tsv file")
    stream.add_argument("--format", choices=("auto", "shards", "tsv"), default="auto",
                        help="spill format; 'auto' picks TSV for *.tsv/*.txt "
                             "outputs and .npy shards otherwise")
    stream.add_argument("--max-edges", type=int, default=None,
                        help="cap on edges written (single-rank spills "
                             "without --payload only)")
    stream.add_argument("--block", type=int, default=1024,
                        help="A-entries per streamed block (memory bound)")
    stream.add_argument("--ranks", type=int, default=None, metavar="N",
                        help="run the streaming rank pipeline over N simulated "
                             "ranks, validating the allreduced aggregates "
                             "against the closed-form factor statistics")
    stream.add_argument("--processes", action="store_true",
                        help="with --ranks: fan the ranks out on a process pool")
    stream.add_argument("--payload", type=str, default=None, metavar="COLS",
                        help="comma-separated per-edge ground-truth columns "
                             "to carry in the spilled shards (an unknown "
                             "name exits listing the known ones); shards "
                             "become (m, 2+k) rows and the manifest records the "
                             "column names (.npy shard format only; runs "
                             "the rank pipeline, on one rank without "
                             "--ranks)")

    compact = sub.add_parser(
        "compact",
        help="optionally re-cut a shard store (a spill or an earlier "
             "compaction) into shards of --target-edges edges; a spill is "
             "already a store that query and serve open as it is")
    compact.add_argument("source", type=Path,
                         help="store directory to re-cut (e.g. a spill)")
    compact.add_argument("destination", type=Path, help="output store directory")
    compact.add_argument("--target-edges", type=int, default=262_144,
                         help="edges per output shard (default 262144)")

    query = sub.add_parser(
        "query",
        help="answer vertex/range queries from a shard store (a spill or "
             "a compaction) without materializing the product")
    query.add_argument("store", type=Path, nargs="?", default=None,
                       help="store directory (omit with --connect)")
    query.add_argument("--connect", type=str, default=None, metavar="HOST:PORT",
                       help="query a running `repro-kron serve` instance "
                            "instead of a local store directory")
    query.add_argument("--timeout", type=float, default=30.0,
                       help="socket timeout in seconds for --connect "
                            "(default 30; guards against a hung server)")
    what = query.add_mutually_exclusive_group(required=True)
    what.add_argument("--degree", type=int, metavar="V",
                      help="degree of product vertex V")
    what.add_argument("--neighbors", type=int, metavar="V",
                      help="sorted neighbour list of product vertex V")
    what.add_argument("--egonet", type=int, metavar="V",
                      help="egonet summary (size, centre degree, triangles) "
                           "of product vertex V")
    what.add_argument("--range", type=int, nargs=2, metavar=("LO", "HI"),
                      help="edges with source vertex in [LO, HI)")
    query.add_argument("--cache", type=int, default=4,
                       help="decoded shards kept in the LRU cache (default 4)")
    query.add_argument("--limit", type=int, default=20,
                       help="rows of output printed for list results (default 20)")
    query.add_argument("--payload", action="store_true",
                       help="include the store's per-edge payload columns "
                            "(triangle counts, trussness, ...) in the answer; "
                            "requires a payload-carrying store")
    query.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the query result as one JSON object on "
                            "stdout (for scripts)")

    serve = sub.add_parser(
        "serve",
        help="serve shard-store queries over a socket (asyncio front-end, "
             "one concurrent-safe store, JSON control frames plus one "
             "binary frame per array answer)")
    serve.add_argument("store", type=Path,
                       help="store directory (a spill or a compaction)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="bind port; 0 picks an ephemeral port and "
                            "prints it (default 0)")
    serve.add_argument("--cache", type=int, default=8,
                       help="decoded shards kept in the store's LRU "
                            "(default 8; shared by every connection)")
    serve.add_argument("--threads", type=int, default=1,
                       help="bounded pool cold store calls (shard decodes) "
                            "run on; a call touching at most two shards, "
                            "all cached, runs on the event loop (default 1: "
                            "decodes hold the GIL, so more threads overlap "
                            "nothing; with --fleet this sizes each slice "
                            "worker's pool, and the router awaits every "
                            "routed query on its event loop)")
    serve.add_argument("--fleet", type=int, default=None, metavar="N",
                       help="partition the store into N contiguous "
                            "vertex-range slices, serve one in-process "
                            "worker per slice replica, and serve a range "
                            "router that fans batch queries out and merges "
                            "the answers, all on one event loop (same "
                            "protocol, byte-equal answers)")
    serve.add_argument("--replicas", type=int, default=1, metavar="R",
                       help="workers per slice with --fleet (default 1); "
                            "a failed worker call is retried once against "
                            "the next replica")
    serve.add_argument("--slow-ms", type=float, default=None, metavar="MS",
                       help="slow-request threshold in milliseconds: slower "
                            "requests count in serve.slow_queries and emit a "
                            "serve.slow_request event carrying their trace "
                            "id (default: off)")

    profile = sub.add_parser(
        "profile",
        help="sample a running server's threads for a few seconds and "
             "print the folded-stack profile (fleet-merged on a router)")
    profile.add_argument("--connect", type=str, required=True,
                         metavar="HOST:PORT",
                         help="the `repro-kron serve` instance to profile")
    profile.add_argument("--seconds", type=float, default=5.0, metavar="N",
                         help="sampling window length (default 5)")
    profile.add_argument("--hz", type=float, default=None,
                         help="sampling rate in samples/s (default: the "
                              "server's configured rate)")
    profile.add_argument("--collapsed", action="store_true",
                         help="print raw folded-stack lines "
                              "(`role;mod:fn;... count`) for flamegraph "
                              "tools instead of the per-role summary")
    profile.add_argument("--timeout", type=float, default=30.0,
                         help="socket timeout in seconds (default 30)")

    health = sub.add_parser(
        "health",
        help="print a running server's liveness surface (uptime, profiler "
             "and flight-recorder state; per-worker rollup on a router); "
             "exit 1 when degraded")
    health.add_argument("--connect", type=str, required=True,
                        metavar="HOST:PORT",
                        help="the `repro-kron serve` instance to check")
    health.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the raw health answer as JSON")
    health.add_argument("--timeout", type=float, default=30.0,
                        help="socket timeout in seconds (default 30)")

    lint = sub.add_parser(
        "lint",
        help="run the AST convention linter over the source tree "
             "(exit 1 on any finding)")
    lint.add_argument("path", type=Path, nargs="?", default=None,
                      help="file or directory to lint (default: the "
                           "installed repro package)")
    lint.add_argument("--json", action="store_true", dest="as_json",
                      help="emit the findings as one JSON object on stdout "
                           "(stable keys, sorted findings — diffable by "
                           "automation)")
    lint.add_argument("--rule", action="append", default=None, metavar="NAME",
                      help="run only the named rule (repeatable); "
                           "see --list-rules")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the registered rules and exit")

    return parser


def _load_undirected_bundle(path: Path):
    from repro.graphs.adjacency import Graph

    factor_a, factor_b, meta = load_kronecker_bundle(path)
    if not isinstance(factor_a, Graph) or not isinstance(factor_b, Graph):
        raise SystemExit("this command expects an undirected factor bundle")
    return factor_a, factor_b, meta


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.core import KroneckerGraph

    factor_a = _build_factor(args.factor_a, args.size_a, args.seed)
    factor_b = _build_factor(args.factor_b, args.size_b, args.seed + 1)
    if args.self_loops_b:
        factor_b = factor_b.with_self_loops()
    save_kronecker_bundle(args.bundle, factor_a, factor_b,
                          metadata={"cli": "generate", "seed": args.seed})
    product = KroneckerGraph(factor_a, factor_b)
    print(f"wrote {args.bundle} ({args.bundle.stat().st_size:,} bytes)")
    print(f"factors: A = {factor_a}, B = {factor_b}")
    print(f"product: {product.n_vertices:,} vertices, {product.n_edges:,} edges")
    if args.stream is not None:
        written = write_edge_shards(product, args.stream,
                                    metadata={"cli": "generate", "seed": args.seed})
        print(f"streamed {written:,} edges to {args.stream} (.npy shards)")
    return 0


def _format_event(event: dict) -> str:
    """One flight-recorder event as a compact console line."""
    ts = time.strftime("%H:%M:%S",
                       time.localtime(event.get("ts_us", 0) / 1e6))
    extras = " ".join(
        f"{key}={value}" for key, value in sorted(event.items())
        if key not in ("kind", "ts_us", "seq"))
    return f"  {ts} {event.get('kind', '?')} {extras}".rstrip()


def _stats_remote(args: argparse.Namespace) -> int:
    """Poll a running server's operational surface (the ``stats`` op, or
    the ``metrics`` op's Prometheus rendering with ``--prometheus``).
    Watch mode appends a recent-events pane under each refresh — the
    flight recorder's newest entries, fleet-interleaved on a router."""
    with QueryClient.from_address(args.connect,
                                  timeout=args.timeout) as client:
        try:
            while True:
                if args.prometheus:
                    print(client.metrics()["prometheus"], end="", flush=True)
                else:
                    print(json.dumps(client.request("stats"),
                                     indent=2, sort_keys=True), flush=True)
                if args.watch is None:
                    return 0
                events = client.events(limit=8)["events"]
                if events:
                    print("recent events:", flush=True)
                    for event in events:
                        print(_format_event(event), flush=True)
                time.sleep(args.watch)
        except KeyboardInterrupt:
            return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    if (args.bundle is None) == (args.connect is None):
        raise SystemExit(
            "stats needs exactly one of a bundle path or --connect HOST:PORT")
    if args.connect is not None:
        return _stats_remote(args)
    from repro.analysis import format_table, graph_summary, kronecker_summary
    from repro.core import kron_global_clustering

    factor_a, factor_b, _ = _load_undirected_bundle(args.bundle)
    rows = [
        graph_summary(factor_a, name="A"),
        graph_summary(factor_b, name="B"),
        kronecker_summary(factor_a, factor_b, name="A ⊗ B"),
    ]
    print(format_table(rows))
    print(f"\nglobal clustering coefficient of A ⊗ B: "
          f"{kron_global_clustering(factor_a, factor_b):.6f}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.core import validate_egonets, validate_undirected_product

    factor_a, factor_b, _ = _load_undirected_bundle(args.bundle)
    report = validate_egonets(factor_a, factor_b, n_samples=args.egonets, seed=args.seed)
    print(report.summary())
    exit_code = 0 if report.passed else 1
    if args.full:
        full = validate_undirected_product(factor_a, factor_b, max_nnz=args.max_nnz)
        print()
        print(full.summary())
        exit_code = exit_code or (0 if full.passed else 1)
    return exit_code


def _resolve_stream_format(args: argparse.Namespace) -> str:
    if args.format != "auto":
        return args.format
    return "tsv" if args.output.suffix in (".tsv", ".txt") else "shards"


def _parse_payload_columns(spec: Optional[str]) -> Tuple[str, ...]:
    """Split and validate ``--payload`` *before* any sink touches the output
    directory — a typo'd column name must not cost the user an existing
    spill (constructing a sink clears the destination)."""
    if not spec:
        return ()
    from repro.parallel import KNOWN_PAYLOAD_COLUMNS

    columns = tuple(c.strip() for c in spec.split(",") if c.strip())
    unknown = [c for c in columns if c not in KNOWN_PAYLOAD_COLUMNS]
    if unknown:
        raise SystemExit(
            f"unknown payload column(s) {', '.join(unknown)}; "
            f"choose from: {', '.join(KNOWN_PAYLOAD_COLUMNS)}")
    return columns


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.core import KroneckerGraph, ValidationAccumulator
    from repro.parallel import distributed_generate, stream_edges_to_file

    factor_a, factor_b, _ = _load_undirected_bundle(args.bundle)
    product = KroneckerGraph(factor_a, factor_b)
    fmt = _resolve_stream_format(args)
    payload_columns = _parse_payload_columns(args.payload)
    if args.processes and args.ranks is None:
        raise SystemExit("--processes requires --ranks")
    if payload_columns and fmt == "tsv":
        raise SystemExit("--payload requires the .npy shard format "
                         "(payload columns live in the shard rows)")

    if args.ranks is not None or payload_columns:
        # Every payload-carrying spill comes from the rank pipeline, which
        # evaluates the columns once per block and validates the run.
        n_ranks = 1 if args.ranks is None else args.ranks
        if fmt == "tsv":
            raise SystemExit("--ranks spills .npy shards; TSV is single-rank only")
        if args.max_edges is not None:
            raise SystemExit("--max-edges caps single-rank spills without "
                             "--payload only; drop --ranks and --payload")
        sink = NpyShardSink(args.output, name=product.name,
                            n_vertices=product.n_vertices,
                            payload_columns=payload_columns)
        result = distributed_generate(
            factor_a, factor_b, n_ranks,
            streaming=True, a_edges_per_block=args.block,
            sink=sink, use_processes=args.processes,
            payload_columns=payload_columns,
        )
        print(f"streamed {result.n_edges:,} edges over {n_ranks} rank(s) "
              f"to {args.output} (.npy shards)")
        if payload_columns:
            print(f"payload columns: {', '.join(payload_columns)} "
                  "(exact per-edge ground truth, evaluated per block)")
        print(f"peak block: {result.max_block_edges:,} edges "
              f"(bound {args.block * factor_b.nnz:,})")
        report = ValidationAccumulator(factor_a, factor_b,
                                       stats=result.stats).validate(result.total)
        print(report.summary())
        return 0 if report.passed else 1

    if fmt == "tsv":
        written = stream_edges_to_file(product, args.output,
                                       a_edges_per_block=args.block,
                                       max_edges=args.max_edges)
    else:
        written = write_edge_shards(product, args.output,
                                    a_edges_per_block=args.block,
                                    max_edges=args.max_edges)
    print(f"wrote {written:,} edges to {args.output} ({fmt})")
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    manifest = compact_shards(args.source, args.destination,
                              target_shard_edges=args.target_edges,
                              metadata={"cli": "compact"})
    n_src = manifest["metadata"]["compaction"]["source_shards"]
    print(f"compacted {n_src} shards ({manifest['total_edges']:,} edges) "
          f"into {len(manifest['shards'])} source-sorted shards at {args.destination}")
    if manifest["shards"]:
        lo = manifest["shards"][0]["src_min"]
        hi = manifest["shards"][-1]["src_max"]
        print(f"manifest v2: per-shard vertex ranges cover [{lo}, {hi}] "
              f"of {manifest['n_vertices']:,} product vertices")
    return 0


def _wire_request(args: argparse.Namespace) -> Tuple[str, dict]:
    """Map the parsed ``query`` flags to a wire (op, args) pair.

    The shapes come back identical to the local path because the server
    answers through the same :mod:`repro.serve.shaping` helpers the local
    branch calls directly.
    """
    if args.degree is not None:
        return "degree", {"vertex": args.degree}
    if args.neighbors is not None:
        return "neighbors", {"vertex": args.neighbors,
                             "with_payload": args.payload}
    if args.egonet is not None:
        return "egonet", {"vertex": args.egonet, "with_payload": args.payload}
    lo, hi = args.range
    return "edges_in_range", {"lo": lo, "hi": hi,
                              "with_payload": args.payload}


def _print_query_text(result: dict, limit: int) -> None:
    kind = result["query"]
    if kind == "degree":
        print(f"degree({result['vertex']}) = {result['degree']}")
    elif kind == "neighbors":
        nbrs = result["neighbors"]
        payload = result.get("payload")
        if payload:
            names = list(payload)
            print(f"neighbors({result['vertex']}) with "
                  f"[{', '.join(names)}] ({result['count']} vertices):")
            for row_index, q in enumerate(nbrs[:limit]):
                values = ", ".join(f"{name}={payload[name][row_index]}"
                                   for name in names)
                print(f"  {q}\t{values}")
            if len(nbrs) > limit:
                print(f"  ... ({len(nbrs) - limit} more)")
        else:
            shown = ", ".join(map(str, nbrs[:limit]))
            suffix = ", ..." if len(nbrs) > limit else ""
            print(f"neighbors({result['vertex']}) = [{shown}{suffix}] "
                  f"({result['count']} vertices)")
    elif kind == "egonet":
        print(f"egonet({result['vertex']}): {result['n_vertices']} vertices, "
              f"centre degree {result['centre_degree']}, "
              f"{result['triangles_at_centre']} triangles at the centre")
        if "payload_totals" in result:
            totals = ", ".join(f"{name} total {value}"
                               for name, value in result["payload_totals"].items())
            print(f"  induced edges: {result['n_induced_edges']} ({totals})")
    else:
        print(f"edges_in_range({result['lo']}, {result['hi']}) = "
              f"{result['n_edges']:,} edges")
        if len(result["columns"]) > 2:
            print(f"  columns: {chr(9).join(result['columns'])}")
        for row in result["edges"]:
            print("  " + "\t".join(map(str, row)))
        if result["n_edges"] > len(result["edges"]):
            print(f"  ... ({result['n_edges'] - len(result['edges']):,} more)")


def _json_list(value):
    """``json.dumps`` hook: answers hold ``int64`` arrays, printed as the
    integer lists they carry."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _no_payload_exit(source) -> SystemExit:
    return SystemExit(
        f"{source} carries no payload columns; re-run the spill with "
        "`stream --payload ...` to serve per-edge ground truth")


@contextlib.contextmanager
def _opening_store(path: Path):
    """Turn a store-open failure into a one-line exit naming the store: a
    missing directory or manifest (``FileNotFoundError``) or a manifest the
    validator rejects, a ``format_version`` 1 spill included
    (``ValueError``)."""
    try:
        yield
    except (FileNotFoundError, ValueError) as exc:
        raise SystemExit(f"cannot open store {path}: {exc}") from exc


def _query_local(args: argparse.Namespace) -> dict:
    with _opening_store(args.store):
        store = ShardStore(args.store, cache_shards=args.cache)
    if args.payload and not store.payload_columns:
        raise _no_payload_exit(args.store)
    if args.degree is not None:
        result = shape_degree(store, args.degree)
    elif args.neighbors is not None:
        result = shape_neighbors(store, args.neighbors,
                                 with_payload=args.payload)
    elif args.egonet is not None:
        result = shape_egonet(store, args.egonet, with_payload=args.payload)
    else:
        lo, hi = args.range
        result = shape_range(store, lo, hi, with_payload=args.payload)
    result["store"] = {
        "n_shards": store.n_shards,
        # Counters of a store opened for this one query: its decode cost.
        "scope": "query",
        "shard_reads": store.shard_reads,
        "cache_hits": store.cache_hits,
        "payload_columns": list(store.payload_columns),
    }
    return result


def _query_remote(args: argparse.Namespace) -> dict:
    with QueryClient.from_address(args.connect,
                                  timeout=args.timeout) as client:
        info = client.hello()["store"]
        if args.payload and not info["payload_columns"]:
            raise _no_payload_exit(args.connect)
        op, wire_args = _wire_request(args)
        result = client.request(op, wire_args)
        counters = client.stats()["store"]
    result["store"] = {
        "n_shards": counters["n_shards"],
        # Cumulative totals across every client since the server started —
        # NOT this query's decode cost (scripts must check "scope").
        "scope": "server-lifetime",
        "shard_reads": counters["shard_reads"],
        "cache_hits": counters["cache_hits"],
        "payload_columns": list(info["payload_columns"]),
    }
    return result


def _cmd_query(args: argparse.Namespace) -> int:
    if (args.store is None) == (args.connect is None):
        raise SystemExit(
            "query needs exactly one of a store directory or --connect "
            "HOST:PORT")
    result = _query_remote(args) if args.connect else _query_local(args)
    if args.range is not None:
        # Answers hold every row (n_edges counts them); --limit bounds
        # only what is printed.
        result["edges"] = result["edges"][:args.limit]
    if args.as_json:
        print(json.dumps(result, indent=2, sort_keys=True,
                         default=_json_list))
    else:
        _print_query_text(result, args.limit)
        counters = result["store"]
        if args.connect:
            # Remote counters are server-lifetime totals across every
            # client, not this query's decode cost.
            print(f"server totals: {counters['shard_reads']} shard reads, "
                  f"{counters['cache_hits']} cache hits over "
                  f"{counters['n_shards']} shards")
        else:
            print(f"decoded {counters['shard_reads']} of "
                  f"{counters['n_shards']} shards "
                  f"({counters['cache_hits']} cache hits)")
    return 0


def _slow_query_us(args: argparse.Namespace) -> Optional[int]:
    """The server's slow-request threshold (µs) from ``--slow-ms``."""
    return None if args.slow_ms is None else int(args.slow_ms * 1000)


def _serve_on_this_thread(main) -> None:
    """``asyncio.run(main)`` on this thread, named ``shard-serve`` while it
    serves — the name of a :class:`~repro.serve.ThreadedServer` loop
    thread, which the profiler samples under the ``event_loop`` role."""
    thread = threading.current_thread()
    name, thread.name = thread.name, "shard-serve"
    try:
        asyncio.run(main)
    finally:
        thread.name = name


def _serve_fleet(args: argparse.Namespace) -> int:
    if args.fleet < 1:
        raise SystemExit("--fleet needs at least 1 worker")
    if args.replicas < 1:
        raise SystemExit("--replicas needs at least 1 worker per slice")
    with _opening_store(args.store):
        slices = partition_manifest(args.store, n_slices=args.fleet)
        info = fleet_info_from_manifest(read_shard_manifest(args.store))
    summary: dict = {}

    async def _run() -> None:
        # The slice workers serve on the router's own loop: a routed
        # request crosses no thread.
        workers: List[ShardStoreServer] = []
        try:
            spec = []
            for entry in slices:
                addresses = []
                for _ in range(args.replicas):
                    worker = ShardStoreServer(entry["directory"],
                                              cache_shards=args.cache,
                                              decode_threads=args.threads)
                    await worker.start()
                    workers.append(worker)
                    addresses.append(f"{worker.host}:{worker.port}")
                spec.append({"src_lo": entry["src_lo"],
                             "src_hi": entry["src_hi"],
                             "addresses": addresses})
            router = RangeRouter(FleetStore(spec, info), host=args.host,
                                 port=args.port,
                                 slow_query_us=_slow_query_us(args))
            await router.start()
            print(f"serving {args.store} on {router.host}:{router.port} "
                  f"(fleet of {args.fleet} slice(s) x {args.replicas} "
                  f"replica(s), {info['n_shards']} shards, "
                  f"{info['total_edges']:,} edges, "
                  f"protocol v{PROTOCOL_VERSION})",
                  flush=True)
            try:
                await router.serve_until_stopped()
            finally:
                # Roll the final numbers up while the workers still
                # answer, then close the connections the rollup opened.
                summary.update(await router.fleet_stats())
                await router.fleet.close()
        finally:
            for worker in workers:
                await worker.stop()

    try:
        _serve_on_this_thread(_run())
    except KeyboardInterrupt:
        print("\ninterrupted; router stopped")
    if summary:
        served = sum(summary["server"]["requests"].values())
        counters = summary["store"]
        print(f"served {served:,} requests over "
              f"{summary['server']['connections_total']} connections via "
              f"{summary['fleet']['workers']} workers; "
              f"{counters['shard_reads']} shard reads, "
              f"{counters['cache_hits']} cache hits")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Checked before anything opens, for a fleet's workers too.
    if args.threads < 1:
        raise SystemExit("--threads needs at least 1 decode thread")
    if args.cache < 1:
        raise SystemExit("--cache needs at least 1 cached shard")
    if args.fleet is not None:
        return _serve_fleet(args)
    with _opening_store(args.store):
        store = ShardStore(args.store, cache_shards=args.cache)
    server = ShardStoreServer(store, host=args.host, port=args.port,
                              decode_threads=args.threads,
                              slow_query_us=_slow_query_us(args))

    async def _run() -> None:
        await server.start()
        print(f"serving {args.store} on {server.host}:{server.port} "
              f"({store.n_shards} shards, {store.total_edges:,} edges, "
              f"cache {args.cache}, {args.threads} decode threads, "
              f"protocol v{PROTOCOL_VERSION})",
              flush=True)
        # serve_until_stopped tears down gracefully even when Ctrl-C
        # cancels it, so the stats below are final either way.
        await server.serve_until_stopped()

    try:
        _serve_on_this_thread(_run())
    except KeyboardInterrupt:
        print("\ninterrupted; server stopped")
    stats = server.stats()
    served = sum(stats["server"]["requests"].values())
    counters = stats["store"]
    print(f"served {served:,} requests over "
          f"{stats['server']['connections_total']} connections; "
          f"{counters['shard_reads']} shard reads, "
          f"{counters['cache_hits']} cache hits")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Arm the server's sampling profiler for a window, then print the
    aggregate — per-role top stacks, or raw folded-stack lines with
    ``--collapsed``.  A router answers fleet-merged."""
    if args.seconds <= 0:
        raise SystemExit("--seconds must be > 0")
    with QueryClient.from_address(args.connect,
                                  timeout=args.timeout) as client:
        client.profile("reset")
        client.profile("start", hz=args.hz)
        try:
            time.sleep(args.seconds)
        finally:
            answer = client.profile("stop", collapsed=True)
    if args.collapsed:
        print(answer["collapsed"], end="")
        return 0
    profile = answer["profile"]
    merged = (f" across {answer['workers']} workers + router"
              if "workers" in answer else "")
    print(f"{answer['hz']:g} Hz x {args.seconds:g} s on {args.connect}: "
          f"{profile['samples']} samples{merged}")
    for role, counts in sorted(profile["stacks"].items()):
        total = sum(counts.values())
        print(f"{role} ({total} samples):")
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        for stack, count in ranked[:5]:
            print(f"  {count:6d}  {stack}")
        if len(ranked) > 5:
            print(f"          ... ({len(ranked) - 5} more stacks)")
    return 0


def _cmd_health(args: argparse.Namespace) -> int:
    """Print the ``health`` answer; exit 1 when the surface is degraded
    (a router reports any unreachable worker and its vertex range)."""
    with QueryClient.from_address(args.connect,
                                  timeout=args.timeout) as client:
        health = client.health()
    degraded = health.get("status") != "ok"
    if args.as_json:
        print(json.dumps(health, indent=2, sort_keys=True))
        return 1 if degraded else 0
    profiler = health["profiler"]
    recorder = health["events"]
    print(f"{args.connect}: {health['status']} "
          f"(up {health['uptime_s']:g} s, "
          f"{health.get('connections_open', 0)} connection(s) open)")
    print(f"  profiler: {'running' if profiler['running'] else 'stopped'} "
          f"at {profiler['hz']:g} Hz, {profiler['samples']} samples")
    print(f"  events: {recorder['recorded']}/{recorder['max_events']} "
          f"recorded, {recorder['dropped']} dropped; "
          f"{health['traces']} trace(s) retained")
    for report in health.get("workers", ()):
        status = "ok" if report.get("ok") else f"DOWN ({report['error']})"
        print(f"  worker {report['worker']} "
              f"[{report['src_lo']}, {report['src_hi']}): {status}")
    return 1 if degraded else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import LintEngine, all_rules, render_json, render_text

    rules = all_rules()
    if args.list_rules:
        for rule in rules:
            print(f"{rule.name}: {rule.description}")
        return 0
    if args.rule:
        by_name = {rule.name: rule for rule in rules}
        unknown = [name for name in args.rule if name not in by_name]
        if unknown:
            print(f"unknown rule(s): {', '.join(unknown)}; available: "
                  f"{', '.join(sorted(by_name))}", file=sys.stderr)
            return 2
        rules = [by_name[name] for name in args.rule]
    target = args.path if args.path is not None else Path(__file__).parent
    report = LintEngine(rules).run(target)
    print(render_json(report) if args.as_json else render_text(report))
    return 0 if report.ok else 1


_COMMANDS = {
    "generate": _cmd_generate,
    "stats": _cmd_stats,
    "validate": _cmd_validate,
    "stream": _cmd_stream,
    "compact": _cmd_compact,
    "query": _cmd_query,
    "serve": _cmd_serve,
    "profile": _cmd_profile,
    "health": _cmd_health,
    "lint": _cmd_lint,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
