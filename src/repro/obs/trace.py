"""Request-scoped distributed tracing: trace IDs, timed spans, recorders.

A *trace* is a tree of timed spans identified by a shared hex trace ID.
The active trace travels in a :mod:`contextvars` variable, so it follows
``await`` inside one asyncio task, and a task created under it starts in a
copy.  The serve layer runs every store call on its event loop inside the
request's task, so shard-decode spans parent under the request with no
explicit copy.

Across the wire the trace rides the additive ``"trace"`` request key
(``{"id": <trace_id>, "span": <parent_span_id>}``) — an optional key,
so no ``PROTOCOL_VERSION`` bump (PR 5 rules).  Each server records its
own spans into a bounded :class:`TraceRecorder` and serves them back
through the ``trace`` wire op; the range router additionally merges the
per-worker recorders, so one routed query yields the full tree
client → router → per-worker attempt → worker serve → shard decode.

When no trace is active, :func:`span` is a no-op context manager — the
guard that keeps instrumentation overhead off the untraced hot path.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from repro.lint.runtime import new_lock

__all__ = [
    "TraceContext",
    "TraceRecorder",
    "NULL_SPAN",
    "SpanNames",
    "activate",
    "adopt_span",
    "begin_leaf",
    "begin_request",
    "current",
    "end_leaf",
    "leaf_span",
    "new_span_id",
    "new_trace_id",
    "span",
    "start_trace",
]


def new_trace_id() -> str:
    return os.urandom(8).hex()


#: Span ids are a random six-hex-digit per-process prefix + a
#: process-local decimal counter: unique across the processes whose spans
#: merge into one tree (router + workers) without paying an ``os.urandom``
#: syscall per span — span creation is on the per-request hot path and
#: budgeted at ≤ 5% overhead, and a plain decimal counter formats in
#: under half the time of a zero-padded hex one.
_SPAN_PREFIX = os.urandom(3).hex()
_SPAN_COUNTER = itertools.count(1)  # next() is atomic under the GIL


def new_span_id() -> str:
    return f"{_SPAN_PREFIX}{next(_SPAN_COUNTER)}"


class TraceContext:
    """The active (trace_id, span_id, recorder) triple for this context."""

    __slots__ = ("trace_id", "span_id", "recorder")

    def __init__(self, trace_id: str, span_id: Optional[str],
                 recorder: "TraceRecorder"):
        self.trace_id = trace_id
        self.span_id = span_id
        self.recorder = recorder


_STATE: contextvars.ContextVar[Optional[TraceContext]] = contextvars.ContextVar(
    "repro_trace_context", default=None)


def current() -> Optional[TraceContext]:
    """The active trace context, or ``None`` (tracing disabled here)."""
    return _STATE.get()


class TraceRecorder:
    """Bounded, thread-safe store of completed spans keyed by trace ID.

    Oldest traces are evicted once ``max_traces`` is exceeded; a single
    runaway trace is capped at ``max_spans`` (the cap is recorded on the
    trace's first dropped span so truncation is visible, not silent).
    """

    def __init__(self, max_traces: int = 128, max_spans: int = 2048):
        self.max_traces = int(max_traces)
        self.max_spans = int(max_spans)
        self._lock = new_lock("obs.trace_recorder")
        self._traces: "OrderedDict[str, List[dict]]" = OrderedDict()
        self._truncated: set = set()

    def record(self, span_record) -> None:
        # Fast path, no lock: dict lookup and list.append are each atomic
        # under the GIL, so a known trace below its cap appends directly
        # (the cap may overshoot by a few spans under contention — it is a
        # memory guard, not an exact count).  First-seen traces, eviction,
        # and cap enforcement take the lock.  Entries are either finished
        # record dicts or leaf tuples (:func:`end_leaf`) that materialize
        # lazily in :meth:`spans` — read time, not the request hot path.
        spans = self._traces.get(span_record[0][1]
                                 if type(span_record) is tuple
                                 else span_record["trace"])
        if spans is not None and len(spans) < self.max_spans:
            spans.append(span_record)
            return
        self._record_slow(span_record)

    def _record_slow(self, span_record) -> None:
        trace_id = (span_record[0][1] if type(span_record) is tuple
                    else span_record["trace"])
        with self._lock:
            spans = self._traces.get(trace_id)
            if spans is None:
                spans = self._traces[trace_id] = []
                while len(self._traces) > self.max_traces:
                    dropped, _ = self._traces.popitem(last=False)
                    self._truncated.discard(dropped)
            if len(spans) >= self.max_spans:
                if trace_id not in self._truncated:
                    self._truncated.add(trace_id)
                    spans.append({"trace": trace_id, "span": "",
                                  "parent": None, "name": "trace.truncated",
                                  "status": "error",
                                  "error": f"span cap {self.max_spans} hit"})
                return
            spans.append(span_record)

    def spans(self, trace_id: str) -> List[dict]:
        with self._lock:
            return [_leaf_record(entry) if type(entry) is tuple else entry
                    for entry in self._traces.get(trace_id, ())]

    def trace_ids(self) -> List[str]:
        with self._lock:
            return list(self._traces)

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()
            self._truncated.clear()


class activate:
    """Adopt an incoming trace (server side of the ``"trace"`` key):
    spans opened inside record into *recorder* with *parent_span_id* as
    their parent.

    A slotted class context manager, not ``@contextmanager``: activation
    runs once per traced request and the generator protocol is measurable
    there.
    """

    __slots__ = ("_ctx", "_token")

    def __init__(self, recorder: TraceRecorder, trace_id: str,
                 parent_span_id: Optional[str] = None):
        self._ctx = TraceContext(trace_id, parent_span_id, recorder)

    def __enter__(self) -> None:
        self._token = _STATE.set(self._ctx)
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        _STATE.reset(self._token)
        return False


class _NullSpan:
    """The inactive-trace span: enters to ``None``, records nothing."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: The span :func:`span` returns when no trace is active.
NULL_SPAN = _NullSpan()


class _Span:
    """One live span: a slotted context manager on the traced hot path."""

    __slots__ = ("_ctx", "_token", "_start", "record")

    def __init__(self, ctx: TraceContext, name: str, attrs: dict):
        record = {
            "trace": ctx.trace_id,
            "span": new_span_id(),
            "parent": ctx.span_id,
            "name": name,
            "start_us": time.time_ns() // 1000,
        }
        for key, value in attrs.items():
            record[key] = (value if isinstance(value, (int, float, bool))
                           else str(value))
        self._ctx = ctx
        self.record = record

    def __enter__(self) -> dict:
        self._token = _STATE.set(TraceContext(
            self._ctx.trace_id, self.record["span"], self._ctx.recorder))
        self._start = time.perf_counter_ns()
        return self.record

    def __exit__(self, exc_type, exc, tb) -> bool:
        record = self.record
        record["elapsed_us"] = (time.perf_counter_ns() - self._start) // 1000
        if exc_type is None:
            record["status"] = "ok"
        else:
            record["status"] = "error"
            record["error"] = f"{exc_type.__name__}: {exc}"
        _STATE.reset(self._token)
        self._ctx.recorder.record(record)
        return False  # the span observes the exception; it never eats it


def span(name: str, **attrs):
    """A timed span under the active trace; no-op when none is active.

    Yields the mutable span record (or ``None`` when inactive) so
    callers may attach attributes mid-flight.  An exception marks the
    span ``status="error"`` (with the exception text) and re-raises.
    """
    ctx = _STATE.get()
    if ctx is None:
        return NULL_SPAN
    return _Span(ctx, name, attrs)


def adopt_span(recorder: TraceRecorder, trace_id: str,
               parent_span_id: Optional[str], name: str, **attrs):
    """Adopt an incoming trace AND open its first span in one context
    switch — equivalent to ``activate(...)`` + ``span(...)`` but with a
    single contextvar set/reset.  The server uses this per traced request,
    where the nested pair is measurable against the ≤ 5% overhead budget.
    """
    return _Span(TraceContext(trace_id, parent_span_id, recorder),
                 name, attrs)


# Leaf spans: spans that cannot have children, for work that provably
# opens none (the coalesced scalar ops — their batch flush runs outside the
# request's context, in an event-loop callback or a task it starts — the
# client round trip, a shard decode).  A leaf switches no context and
# builds no object: it is a tuple, opened by begin_leaf or begin_request
# and closed by end_leaf, and its record dict (the microsecond divisions,
# key coercion) is built only when the recorder is read.  On a small host
# the serving threads ping-pong on context switches, so every in-window
# microsecond shows up multiplied in round-trip time — the hot path does
# the minimum and the read path pays the rest.  Inner code that *does*
# call span() inside a leaf records under the leaf's parent, not the leaf;
# use adopt_span wherever children are possible.


class SpanNames(dict):
    """``op -> (f"{prefix}.{op}", {"op": op})``: the name and attributes of
    each op's span, built on first use and then shared by every span of
    that op (leaf attributes are never mutated)."""

    def __init__(self, prefix: str):
        super().__init__()
        self.prefix = prefix

    def __missing__(self, op: str) -> tuple:
        meta = self[op] = (f"{self.prefix}.{op}", {"op": op})
        return meta


def begin_leaf(recorder: TraceRecorder, trace_id: str,
               parent_span_id: Optional[str], name: str, attrs: dict
               ) -> tuple:
    """Open a leaf span under *parent_span_id* of the trace *trace_id*:
    :func:`adopt_span` minus the context switch.  Returns the open span,
    to close with :func:`end_leaf`; *attrs* is kept as it is.  The span's
    id is formatted when the recorder is read (``new_span_id()``'s
    counter is drawn now)."""
    return (recorder, trace_id, next(_SPAN_COUNTER), parent_span_id, name,
            attrs, time.time_ns(), time.perf_counter_ns())


def begin_request(ctx: TraceContext, name: str, attrs: dict
                  ) -> Tuple[dict, tuple]:
    """Open the leaf span of one outgoing request under *ctx*.  Returns
    the request's additive ``"trace"`` key, which names the new span as
    the parent of everything the server records for the request, and the
    open span, to close with :func:`end_leaf` once the answer is in."""
    number = next(_SPAN_COUNTER)
    return ({"id": ctx.trace_id, "span": f"{_SPAN_PREFIX}{number}"},
            (ctx.recorder, ctx.trace_id, number, ctx.span_id, name, attrs,
             time.time_ns(), time.perf_counter_ns()))


def end_leaf(leaf: tuple, exc: Optional[BaseException] = None) -> None:
    """Close and record an open leaf span; *exc* marks it
    ``status="error"``."""
    entry = (leaf, time.perf_counter_ns() - leaf[7],
             None if exc is None else f"{type(exc).__name__}: {exc}")
    # TraceRecorder.record's fast path, inlined: every call in the request
    # window counts.
    recorder = leaf[0]
    spans = recorder._traces.get(leaf[1])
    if spans is not None and len(spans) < recorder.max_spans:
        spans.append(entry)
    else:
        recorder._record_slow(entry)


def _leaf_record(entry: tuple) -> dict:
    """The record dict of a recorded leaf (:func:`end_leaf`)."""
    leaf, elapsed_ns, error = entry
    _, trace_id, number, parent, name, attrs, start_ns, _ = leaf
    record = {
        "trace": trace_id,
        "span": f"{_SPAN_PREFIX}{number}",
        "parent": parent,
        "name": name,
        "start_us": start_ns // 1000,
        "elapsed_us": elapsed_ns // 1000,
        "status": "ok" if error is None else "error",
    }
    if error is not None:
        record["error"] = error
    for key, value in attrs.items():
        record[key] = (value if isinstance(value, (int, float, bool))
                       else str(value))
    return record


class _LeafBlock:
    """An open leaf span as a ``with`` block (see :func:`leaf_span`)."""

    __slots__ = ("_leaf",)

    def __init__(self, leaf: tuple):
        self._leaf = leaf

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        end_leaf(self._leaf, exc)
        return False


def leaf_span(name: str, **attrs):
    """:func:`span` as a leaf (see :func:`begin_leaf`): a ``with`` block
    timing work that never opens a child span; no-op when no trace is
    active."""
    ctx = _STATE.get()
    if ctx is None:
        return NULL_SPAN
    return _LeafBlock(begin_leaf(ctx.recorder, ctx.trace_id, ctx.span_id,
                                 name, attrs))


class _TraceHandle:
    __slots__ = ("trace_id", "root")

    def __init__(self, trace_id: str, root: Optional[dict]):
        self.trace_id = trace_id
        self.root = root


@contextmanager
def start_trace(name: str, recorder: TraceRecorder,
                trace_id: Optional[str] = None, **attrs):
    """Open a new root span and make its trace active in this context.

    The client side of a distributed trace: requests issued inside the
    block are stamped with the trace, and the handle's ``trace_id`` is
    what to pass to the ``trace`` wire op afterwards.
    """
    trace_id = trace_id or new_trace_id()
    token = _STATE.set(TraceContext(trace_id, None, recorder))
    try:
        with span(name, **attrs) as root:
            yield _TraceHandle(trace_id, root)
    finally:
        _STATE.reset(token)
