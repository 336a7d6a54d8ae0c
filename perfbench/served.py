"""Served workloads: point-hot, scan-cold and routed.

The program runs as its own ``python -m repro.cli serve`` process, unpinned.
This process is the load generator: two client threads, one connection
each, in a closed loop (each caller waits for its answer, as analytics code
does), both pinned to one CPU so host steal on the other CPU cannot move
the offered load.
"""

from __future__ import annotations

import bisect
import gc
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

from repro.obs import TraceRecorder, trace
from repro.serve import QueryClient, protocol, shaping
from repro.store import ShardStore

from perfbench import gate, host, inputs
from perfbench.measure import (
    children_by_parent,
    latency_summary,
    median_or_zero,
    self_time,
)


class Spec(NamedTuple):
    """How one served workload builds, serves and loads its store."""

    shard_edges: Optional[int]
    serve_args: tuple
    cache_shards: int
    stream: str
    length: int


WORKLOADS: Dict[str, Spec] = {
    # The default --cache 8 holds every shard of the 2-shard store, so no
    # shard is decoded after warm-up: serving overhead is the critical path.
    "point-hot": Spec(None, ("--cache", "8"), 8, "point", 4096),
    # About 110 shards behind a 2-shard LRU: decodes dominate, JSON does not.
    "scan-cold": Spec(inputs.SCAN_SHARD_EDGES, ("--cache", "2"), 2, "scan",
                      2048),
    # point-hot through a router and 2 in-process slice workers.
    "routed": Spec(None, ("--fleet", "2"), 8, "point", 4096),
}

CLIENT_THREADS = 2
#: Requests each client sends in the warm-up pass that ends set-up.
WARMUP_OPS = 32
#: Server starts per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: CPU time and host steal are sampled this often during a window.
SLICE_S = 1.0
#: Requests per trace in the traced run.  A server keeps 2048 spans per
#: trace and a cold egonet alone emits about 70 decode spans.
TRACE_CHUNK = 16
#: Requests per client replayed in-process in the traced run.
REPLAY_OPS = 300


class Server:
    """One ``repro-kron serve`` process and a control connection to it."""

    def __init__(self, root: Path, store: Path, serve_args: tuple, log: Path):
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        with open(log, "ab") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", str(store),
                 "--port", "0", *serve_args],
                cwd=root, env=env, stdout=subprocess.PIPE, stderr=err,
                text=True)
        try:
            line = self.proc.stdout.readline()
            found = re.search(r" on (\S+):(\d+) ", line)
            if found is None:
                self.kill()
                raise RuntimeError(f"server did not start: {line!r}\n"
                                   f"{log.read_text()[-2000:]}")
            self.address = f"{found[1]}:{found[2]}"
            self.control = QueryClient.from_address(self.address)
            self.control.hello()
        except BaseException:
            self.kill()
            raise

    @property
    def pid(self) -> int:
        return self.proc.pid

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()

    def stop(self) -> None:
        """Ask for a graceful stop; kill the process if it does not exit."""
        try:
            self.control.shutdown_server()
            self.proc.communicate(timeout=30)
        except (OSError, protocol.ProtocolError, subprocess.TimeoutExpired):
            self.kill()


class ClientLog:
    """What one client thread saw: per request its stream position, latency,
    completion instant, answer rows and answer (``None`` when it failed)."""

    def __init__(self):
        self.affinity: List[int] = []
        self.latency_us: List[float] = []
        self.done_at: List[float] = []
        self.rows: List[int] = []
        self.kinds: List[str] = []
        self.answers: List[tuple] = []
        self.errors: Dict[str, int] = {}
        self.span_sets: List[tuple] = []
        self.failure: Optional[BaseException] = None

    @property
    def attempted(self) -> int:
        return len(self.answers)

    @property
    def failed(self) -> int:
        return sum(self.errors.values())


def answer_rows(kind: str, answer) -> int:
    """Rows an answer carried to the client."""
    if kind == "degree":
        return 1
    if kind == "neighbors":
        return int(answer[0].shape[0])
    if kind == "egonet":
        return int(answer[1].shape[0])
    if kind == "edges_in_range":
        return gate.rows_in(answer)
    return int(answer.shape[0])


def _send(client: QueryClient, stream, position: int, log: ClientLog) -> None:
    op = stream[position % len(stream)]
    start = time.perf_counter_ns()
    try:
        answer = gate.served(client, op)
    except Exception as exc:  # counted as failed, never retried
        name = type(exc).__name__
        if isinstance(exc, protocol.ServerError):
            name = str(exc).split(":", 1)[0]
        log.errors[name] = log.errors.get(name, 0) + 1
        log.answers.append((position, None))
        return
    end = time.perf_counter_ns()
    log.latency_us.append((end - start) / 1000.0)
    log.done_at.append(end / 1e9)
    log.rows.append(answer_rows(op.kind, answer))
    log.kinds.append(op.kind)
    log.answers.append((position, answer))


class _Rounds:
    """Keeps traced clients in step: every client sends its chunk, then
    every client fetches its spans, so the server never serves a span fetch
    while the other client's requests are being traced."""

    def __init__(self, parties: int, seconds: float):
        self.seconds = seconds
        self.deadline: Optional[float] = None
        self.stop = False
        self.barrier = threading.Barrier(parties, action=self._decide)

    def _decide(self) -> None:
        now = time.perf_counter()
        if self.deadline is None:
            self.deadline = now + self.seconds
        self.stop = now >= self.deadline

    def wait(self) -> None:
        self.barrier.wait(timeout=120)


def _client(address: str, stream, cpu: int, first: int, count: int,
            seconds: float, rounds: Optional[_Rounds],
            barrier: threading.Barrier, log: ClientLog) -> None:
    """One load-generator thread: *count* requests from stream position
    *first*, or as many as fit in *seconds* when *count* is 0; under
    *rounds*, traced chunks of :data:`TRACE_CHUNK` requests."""
    try:
        log.affinity = host.pin_current_thread(cpu)
        client = QueryClient.from_address(address)
        client.hello()
    except BaseException as exc:
        log.failure = exc
        barrier.abort()
        return
    try:
        barrier.wait()
        position = first
        deadline = time.perf_counter() + seconds
        while rounds is None and (position < first + count if count
                                  else time.perf_counter() < deadline):
            _send(client, stream, position, log)
            position += 1
        recorder = TraceRecorder()
        while rounds is not None:
            rounds.wait()
            if rounds.stop:
                break
            with trace.start_trace("perfbench.chunk", recorder) as handle:
                for offset in range(TRACE_CHUNK):
                    _send(client, stream, position + offset, log)
            position += TRACE_CHUNK
            rounds.wait()
            log.span_sets.append((recorder.spans(handle.trace_id),
                                  client.trace_spans(handle.trace_id)))
            recorder.clear()
    except BaseException as exc:
        log.failure = exc
        if rounds is not None:
            rounds.barrier.abort()
    finally:
        client.close()


def drive(address: str, streams, cpu: int, *, first: int = 0, count: int = 0,
          seconds: float = 0.0, traced: bool = False, sample=None):
    """Run every client thread; returns their logs and what *sample*
    returned, called every :data:`SLICE_S` while they run."""
    logs = [ClientLog() for _ in streams]
    barrier = threading.Barrier(len(streams) + 1)
    rounds = _Rounds(len(streams), seconds) if traced else None
    threads = [threading.Thread(
        target=_client, args=(address, stream, cpu, first, count, seconds,
                              rounds, barrier, log), daemon=True)
        for stream, log in zip(streams, logs)]
    # The clients keep every answer for the gate; with the cyclic collector
    # on, its full passes over that growing heap would raise the load
    # generator's CPU per request as the window goes on.
    gc.collect()
    gc.disable()
    for thread in threads:
        thread.start()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass
    samples = []
    try:
        for thread in threads:
            while thread.is_alive():
                if sample is not None:
                    samples.append(sample())
                thread.join(timeout=SLICE_S)
        if sample is not None:
            samples.append(sample())
    finally:
        gc.enable()
    for log in logs:
        if log.failure is not None:
            raise RuntimeError("load generator thread failed") from log.failure
    return logs, samples


def window(server: Server, streams, cpu: int, seconds: float,
           traced: bool = False) -> dict:
    """One measured window: counters reset first; every second the CPU time
    of the server's process tree and of this process, and host steal;
    ``stats`` read after it."""
    def sample():
        return (time.perf_counter(), host.tree_cpu_s(server.pid),
                time.process_time(), host.cpu_times())

    server.control.request("reset_stats")
    first = sample()
    logs, samples = drive(server.address, streams, cpu, first=WARMUP_OPS,
                          seconds=seconds, traced=traced, sample=sample)
    samples = [first] + samples
    last = samples[-1]
    done = sorted((t, r) for log in logs for t, r in zip(log.done_at, log.rows))
    times = [t for t, _ in done]
    slices = []
    for (t0, s0, c0, h0), (t1, s1, c1, h1) in zip(samples, samples[1:]):
        inside = done[bisect.bisect_left(times, t0):bisect.bisect_left(times, t1)]
        slices.append([len(inside), sum(r for _, r in inside),
                       (s1 - s0) + (c1 - c0), host.steal_share(h0, h1)])
    return {"logs": logs, "seconds": seconds,
            "steal": host.steal_share(first[3], last[3]),
            "client_cpu_s": last[2] - first[2],
            "server_cpu_s": last[1] - first[1], "slices": slices,
            "stats": server.control.stats()}


def end_to_end(measured: dict, setups: List[float], rss_mb: float):
    """The gated metrics of a window, and its wall-clock figures.

    Throughput is per CPU-second of the server process tree plus the load
    generator (the client library's encode and decode), which host steal
    moves far less than wall time.  Wall-clock rates and latency go to the
    run record."""
    logs = measured["logs"]
    done = [t for log in logs for t in log.done_at]
    latency = [x for log in logs for x in log.latency_us]
    rows = sum(r for log in logs for r in log.rows)
    cpu_s = measured["server_cpu_s"] + measured["client_cpu_s"]
    wall = latency_summary(latency)
    wall.update(ops_per_s=len(done) / measured["seconds"],
                rows_per_s=rows / measured["seconds"])
    return {
        "setup_s": statistics.median(setups),
        "ops_per_cpu_s": len(done) / cpu_s,
        "rows_per_cpu_s": rows / cpu_s,
        "peak_rss_mb": rss_mb,
    }, wall


def _cpu_per_op(measured: dict) -> float:
    ops = sum(len(log.latency_us) for log in measured["logs"])
    return (measured["server_cpu_s"] + measured["client_cpu_s"]) / ops


def counter_layers(measured: dict, routed: bool) -> dict:
    """Per-op ratios from the untraced window's ``stats`` and ``/proc``."""
    logs, stats = measured["logs"], measured["stats"]
    ops = sum(log.attempted for log in logs)
    server, store = stats["server"], stats["store"]
    coalesced = server["coalesced"]
    batches = coalesced["degree"]["batches"] + coalesced["neighbors"]["batches"]
    folded = coalesced["degree"]["requests"] + coalesced["neighbors"]["requests"]
    lookups = store["shard_reads"] + store["cache_hits"]
    layers = {
        "serve.client.cpu_us_per_op": 1e6 * measured["client_cpu_s"] / ops,
        "serve.server.cpu_us_per_op": 1e6 * measured["server_cpu_s"] / ops,
        "serve.server.coalesce_batch_mean": folded / batches if batches else 0.0,
        "serve.server.binary_bytes_per_op": server["binary"]["bytes"] / ops,
        "store.query.shard_reads_per_op": store["shard_reads"] / ops,
        "store.query.cache_hit_ratio":
            store["cache_hits"] / lookups if lookups else 0.0,
    }
    for kind in inputs.OP_CLASSES:
        layers[f"serve.client.{kind}.p50_us"] = median_or_zero(
            lat for log in logs
            for lat, k in zip(log.latency_us, log.kinds) if k == kind)
    if routed:
        # The reset_stats fan-out itself makes one call per worker after
        # the counters were zeroed.
        slices = stats["fleet"]["slices"]
        calls = sum(s["calls"] for s in slices) - len(slices)
        layers["serve.router.worker_calls_per_op"] = calls / ops
    return layers


def span_layers(logs):
    """Stage times folded from the traced window's span trees, and the
    median client and server span of a served ``degree``."""
    wire, handler, decode, calls, router_self = [], [], [], [], []
    degree_client, degree_server = [], []
    for log in logs:
        for client_spans, server_spans in log.span_sets:
            children = children_by_parent(server_spans)
            for c in client_spans:
                if not c["name"].startswith("client."):
                    continue
                tops = [s for s in children.get(c["span"], ())
                        if s["name"].startswith("serve.")]
                if not tops:
                    continue
                s = tops[0]
                below = children.get(s["span"], ())
                wire.append(c["elapsed_us"] - s["elapsed_us"])
                handler.append(self_time(s, below))
                if c["op"] == "degree":
                    degree_client.append(c["elapsed_us"])
                    degree_server.append(s["elapsed_us"])
                fanout = [x for x in below if x["name"] == "fleet.worker_call"]
                if fanout:
                    router_self.append(self_time(s, fanout))
            decode += [s["elapsed_us"] for s in server_spans
                       if s["name"] == "store.decode"]
            calls += [s["elapsed_us"] for s in server_spans
                      if s["name"] == "fleet.worker_call"]
    return {
        "serve.server.wire_p50_us": median_or_zero(wire),
        "serve.server.handler_p50_us": median_or_zero(handler),
        "store.query.decode_p50_us": median_or_zero(decode),
        "serve.router.worker_call_p50_us": median_or_zero(calls),
        "serve.router.self_p50_us": median_or_zero(router_self),
    }, {"client": median_or_zero(degree_client),
        "server": median_or_zero(degree_server)}


class _Canned:
    """A store stand-in answering every query with one precomputed answer,
    so a shaping function can be timed without its store call."""

    def __init__(self, store, answer):
        self.payload_columns = store.payload_columns
        self.manifest = store.manifest
        self._answer = answer

    def _canned(self, *args, **kwargs):
        return self._answer

    degree = degrees = edges_for_sources = edge_payloads = egonet = \
        edges_in_range = _canned


def store_call(store, op: inputs.Op):
    """The store query the server makes for *op*, as its shaping function
    makes it."""
    kind, args = op.kind, op.args
    if kind == "degree":
        return store.degree(args[0])
    if kind == "neighbors":
        return store.edges_for_sources([args[0]], with_payload=True)
    if kind == "edge_payloads":
        return store.edge_payloads(*args)
    if kind == "degrees":
        return store.degrees(args[0])
    if kind == "egonet":
        return store.egonet(args[0], with_payload=True)
    return store.edges_in_range(*args, with_payload=True)


def shape(store, op: inputs.Op) -> dict:
    """The answer shape the server frames for *op*."""
    kind, args = op.kind, op.args
    if kind == "degree":
        return shaping.shape_degree(store, args[0])
    if kind == "neighbors":
        return shaping.shape_neighbors(store, args[0], with_payload=True)
    if kind == "edge_payloads":
        return shaping.shape_edge_payloads(store, *args)
    if kind == "degrees":
        return shaping.shape_degrees(store, args[0])
    if kind == "egonet":
        return shaping.shape_egonet(store, args[0], with_payload=True,
                                    include_members=True)
    return shaping.shape_range_binary(store, *args, with_payload=True)[0]


def replay(store_dir: Path, cache_shards: int, streams):
    """In-process replay of the stream on a ``ShardStore`` with the server's
    LRU size: store call, shaping and frame encoding timed apart.  Returns
    the layer figures and the median stages of a ``degree``."""
    store = ShardStore(store_dir, cache_shards=cache_shards)
    for op in streams[0][:WARMUP_OPS]:
        store_call(store, op)
    times: Dict[str, List[float]] = {"store": [], "shape": [], "encode": []}
    degree: Dict[str, List[float]] = {"store": [], "shape": [], "encode": []}
    for stream in streams:
        for op in stream[WARMUP_OPS:WARMUP_OPS + REPLAY_OPS]:
            t0 = time.perf_counter_ns()
            answer = store_call(store, op)
            t1 = time.perf_counter_ns()
            result = shape(_Canned(store, answer), op)
            t2 = time.perf_counter_ns()
            protocol.encode_frame(protocol.result_frame(result))
            t3 = time.perf_counter_ns()
            for sink in (times, degree) if op.kind == "degree" else (times,):
                sink["store"].append((t1 - t0) / 1000.0)
                sink["shape"].append((t2 - t1) / 1000.0)
                sink["encode"].append((t3 - t2) / 1000.0)
    store.close()
    return {
        "store.query.replay_p50_us": median_or_zero(times["store"]),
        "serve.shaping.encode_p50_us": median_or_zero(
            s + e for s, e in zip(times["shape"], times["encode"])),
    }, {k: median_or_zero(v) for k, v in degree.items()}


def degree_budget(spans: dict, local: dict) -> dict:
    """Stage self times of a served ``degree``, summing to its median round
    trip: wire (client span minus server span, less the response encode),
    handler (server span less the store call and shaping inside it), and
    store and shaping (shape plus frame encode) from the in-process replay,
    because coalesced requests run their store call without the trace."""
    if not spans["server"]:
        return dict.fromkeys(("serve.degree.wire_us", "serve.degree.handler_us",
                              "serve.degree.store_us",
                              "serve.degree.shaping_us"), 0.0)
    return {
        "serve.degree.wire_us":
            spans["client"] - spans["server"] - local["encode"],
        "serve.degree.handler_us":
            spans["server"] - local["store"] - local["shape"],
        "serve.degree.store_us": local["store"],
        "serve.degree.shaping_us": local["shape"] + local["encode"],
    }


def make_streams(spec: Spec, reference, seed: int):
    if spec.stream == "point":
        return [inputs.point_stream(reference, seed, t, spec.length)
                for t in range(CLIENT_THREADS)]
    return [inputs.scan_stream(reference.n_vertices, seed, t, spec.length)
            for t in range(CLIENT_THREADS)]


def run(root: Path, work: Path, workload: str, seed: int, seconds: float,
        traced: bool) -> dict:
    """Drive one served workload; returns the run's figures and checks."""
    spec = WORKLOADS[workload]
    store_dir = inputs.build_store(work, spec.shard_edges)
    reference = ShardStore(store_dir, cache_shards=10_000)
    streams = make_streams(spec, reference, seed)
    refs = gate.references(reference, streams)
    cpu = host.loadgen_cpu()
    setups: List[float] = []
    server = None
    try:
        for repeat in range(SETUP_REPEATS):
            start = time.perf_counter()
            server = Server(root, store_dir, spec.serve_args,
                            work / "server.log")
            drive(server.address, streams, cpu, count=WARMUP_OPS)
            setups.append(time.perf_counter() - start)
            if repeat < SETUP_REPEATS - 1:
                server.stop()
                server = None
        measured = window(server, streams, cpu, seconds)
        traced_run = window(server, streams, cpu, seconds, traced=True) \
            if traced else None
        program_affinity = sorted(os.sched_getaffinity(server.pid))
        rss_mb = host.tree_peak_rss_mb(server.pid)
    finally:
        if server is not None:
            server.stop()
    windows = [measured] + ([traced_run] if traced_run else [])
    logs = [log for w in windows for log in w["logs"]]
    results = [[a for w in windows for a in w["logs"][t].answers]
               for t in range(CLIENT_THREADS)]
    wrong = gate.mismatches(streams, refs, results)
    metrics, wall = end_to_end(measured, setups, rss_mb)
    layers = {}
    budget_record = {}
    if traced:
        span_figures, degree_spans = span_layers(traced_run["logs"])
        replay_figures, degree_stages = replay(store_dir, spec.cache_shards,
                                               streams)
        budget = degree_budget(degree_spans, degree_stages)
        layers = {
            **counter_layers(measured, routed=workload == "routed"),
            **span_figures,
            **replay_figures,
            **budget,
            "obs.trace_overhead_pct": 100.0 * (
                _cpu_per_op(traced_run) / _cpu_per_op(measured) - 1.0),
        }
        budget_record = {"degree_budget_us": budget,
                         "degree_largest_stage": max(budget, key=budget.get)
                         if any(budget.values()) else None}
    errors: Dict[str, int] = {}
    for log in logs:
        for name, count in log.errors.items():
            errors[name] = errors.get(name, 0) + count
    return {
        "attempted": sum(log.attempted for log in logs),
        "failed": sum(log.failed for log in logs),
        "correct": not wrong,
        "end_to_end": metrics,
        "layers": layers,
        "record": {
            "setup_s_each": setups, "wall": wall,
            "slices": measured["slices"],
            "steal_share": measured["steal"],
            "loadgen_affinity": [log.affinity for log in measured["logs"]],
            "program_affinity": program_affinity,
            "errors": errors, "wrong_answers": wrong[:10],
            **budget_record,
        },
    }
