"""Request-scoped distributed tracing: trace IDs, timed spans, recorders.

A *trace* is a tree of timed spans identified by a shared hex trace ID.
The active trace travels in a :mod:`contextvars` variable, so it follows
``await`` inside one asyncio task, and a task created under it starts in a
copy.  The serve layer runs every store call on its event loop inside the
request's task, so shard-decode spans parent under the request with no
explicit copy.

Every span is one kind of record: the entry :func:`begin_leaf` opens — a
tuple holding the span's number, parent, name, attribute dict and start
clocks — and :func:`end_leaf` closes into a :class:`TraceRecorder`.  Its
record dict is built only when the recorder is read.  A span that parents
others adds one context switch over the same entry (:func:`scope`) and
builds nothing more: :func:`span` is the entry plus its scope,
:func:`leaf_span` the entry alone.

Across the wire the trace rides the additive ``"trace"`` request key
(``{"id": <trace_id>, "span": <parent_span_id>}``) — an optional key,
so no ``PROTOCOL_VERSION`` bump.  :func:`request_span` opens an outgoing
request's span and stamps the key with its id.  Each server records its
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
from typing import List, Optional, Union

from repro.lint.runtime import new_lock

__all__ = [
    "TraceContext",
    "TraceRecorder",
    "NULL_SPAN",
    "SpanNames",
    "activate",
    "begin_leaf",
    "current",
    "end_leaf",
    "leaf_span",
    "new_trace_id",
    "request_span",
    "scope",
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
#: under half the time of a zero-padded hex one.  A span keeps only its
#: counter value; its id is formatted when the recorder is read, or when
#: a request names it on the wire (:func:`request_span`).
_SPAN_PREFIX = os.urandom(3).hex()
_SPAN_COUNTER = itertools.count(1)  # next() is atomic under the GIL

#: A span's parent: ``None`` at a trace's root, the id string a request's
#: ``"trace"`` key names, or the counter value of a span of this process.
ParentRef = Union[str, int, None]


class TraceContext:
    """The active (trace_id, span_id, recorder) triple for this context;
    *span_id* parents the spans opened here (a :data:`ParentRef`)."""

    __slots__ = ("trace_id", "span_id", "recorder")

    def __init__(self, trace_id: str, span_id: ParentRef,
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
    """Bounded, thread-safe store of closed spans keyed by trace ID.

    Oldest traces are evicted once ``max_traces`` is exceeded; a single
    runaway trace is capped at ``max_spans`` (a capped trace reads with a
    ``trace.truncated`` marker span last, so truncation is visible, not
    silent).  Spans are kept as the entries :func:`end_leaf` closes and
    become record dicts in :meth:`spans` — read time, not the request hot
    path.
    """

    def __init__(self, max_traces: int = 128, max_spans: int = 2048):
        self.max_traces = int(max_traces)
        self.max_spans = int(max_spans)
        self._lock = new_lock("obs.trace_recorder")
        self._traces: "OrderedDict[str, List[tuple]]" = OrderedDict()
        self._truncated: set = set()

    def _record_slow(self, entry: tuple) -> None:
        # end_leaf appends to a known trace below its cap without the lock
        # (dict lookup and list.append are each atomic under the GIL; the
        # cap may overshoot by a few spans under contention — it is a
        # memory guard, not an exact count).  First-seen traces, eviction
        # and the cap take the lock here.
        trace_id = entry[0][1]
        with self._lock:
            spans = self._traces.get(trace_id)
            if spans is None:
                spans = self._traces[trace_id] = []
                while len(self._traces) > self.max_traces:
                    dropped, _ = self._traces.popitem(last=False)
                    self._truncated.discard(dropped)
            if len(spans) < self.max_spans:
                spans.append(entry)
            else:
                self._truncated.add(trace_id)

    def spans(self, trace_id: str) -> List[dict]:
        """The record dicts of one trace's spans, in closing order."""
        with self._lock:
            records = [_leaf_record(entry)
                       for entry in self._traces.get(trace_id, ())]
            if trace_id in self._truncated:
                records.append({"trace": trace_id, "span": "",
                                "parent": None, "name": "trace.truncated",
                                "status": "error",
                                "error": f"span cap {self.max_spans} hit"})
        return records

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
                 parent_span_id: ParentRef = None):
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


# The one span record.  An open span is a tuple, opened by begin_leaf and
# closed by end_leaf; its record dict (the span id, the microsecond
# divisions, attribute coercion) is built only when the recorder is read.
# On a small host the serving threads ping-pong on context switches, so
# every in-window microsecond shows up multiplied in round-trip time — the
# hot path does the minimum and the read path pays the rest.  An open span
# is not the context's parent by itself: spans opened while it is open
# parent under it only inside scope(leaf), the one context switch a span
# with children adds (span() does both).  Work that provably opens no
# span — the coalesced scalar ops, whose batch flush runs outside the
# request's context; an outgoing request's round trip; a shard decode —
# skips the switch.


class SpanNames(dict):
    """``op -> (f"{prefix}.{op}", {"op": op})``: the name and attributes of
    each op's span, built on first use and then shared by every span of
    that op — never mutated, since only :func:`span` yields a span's
    attribute dict, and it builds its own."""

    def __init__(self, prefix: str):
        super().__init__()
        self.prefix = prefix

    def __missing__(self, op: str) -> tuple:
        meta = self[op] = (f"{self.prefix}.{op}", {"op": op})
        return meta


def begin_leaf(recorder: TraceRecorder, trace_id: str,
               parent_span_id: ParentRef, name: str, attrs: dict) -> tuple:
    """Open a span under *parent_span_id* of the trace *trace_id*, to
    record into *recorder*: no context switch and no object beyond the
    returned tuple, to close with :func:`end_leaf`.  *attrs* is kept as it
    is (and may be shared)."""
    return (recorder, trace_id, next(_SPAN_COUNTER), parent_span_id, name,
            attrs, time.time_ns(), time.perf_counter_ns())


def end_leaf(leaf: tuple, exc: Optional[BaseException] = None) -> None:
    """Close and record an open span; *exc* marks it ``status="error"``."""
    entry = (leaf, time.perf_counter_ns() - leaf[7],
             None if exc is None else f"{type(exc).__name__}: {exc}")
    # The recorder's fast path, inlined: every call in the request window
    # counts.
    recorder = leaf[0]
    spans = recorder._traces.get(leaf[1])
    if spans is not None and len(spans) < recorder.max_spans:
        spans.append(entry)
    else:
        recorder._record_slow(entry)


def _leaf_record(entry: tuple) -> dict:
    """The record dict of a closed span (:func:`end_leaf`)."""
    leaf, elapsed_ns, error = entry
    _, trace_id, number, parent, name, attrs, start_ns, _ = leaf
    record = {
        "trace": trace_id,
        "span": f"{_SPAN_PREFIX}{number}",
        "parent": (f"{_SPAN_PREFIX}{parent}" if isinstance(parent, int)
                   else parent),
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


def scope(leaf: tuple) -> activate:
    """Make the open span *leaf* the parent of the spans opened inside the
    block, in this task and in the tasks it creates: one context switch
    over the same entry, which enters to ``None``."""
    return activate(leaf[0], leaf[1], leaf[2])


class _LeafBlock:
    """An open span as a ``with`` block: an exception leaving it marks the
    span ``status="error"`` and propagates."""

    __slots__ = ("_leaf",)

    def __init__(self, leaf: tuple):
        self._leaf = leaf

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        end_leaf(self._leaf, exc)
        return False


class _Span(_LeafBlock):
    """A :class:`_LeafBlock` inside its :func:`scope`, entering to the
    span's own attribute dict."""

    __slots__ = ("_token",)

    def __enter__(self) -> dict:
        leaf = self._leaf
        self._token = _STATE.set(TraceContext(leaf[1], leaf[2], leaf[0]))
        return leaf[5]

    def __exit__(self, exc_type, exc, tb) -> bool:
        _STATE.reset(self._token)
        end_leaf(self._leaf, exc)
        return False


def span(name: str, **attrs):
    """A timed span under the active trace, parenting the spans opened
    inside it; no-op when no trace is active.

    Yields the span's own attribute dict (or ``None`` when inactive) so
    callers may attach attributes mid-flight.  An exception marks the
    span ``status="error"`` (with the exception text) and re-raises.
    """
    ctx = _STATE.get()
    if ctx is None:
        return NULL_SPAN
    return _Span(begin_leaf(ctx.recorder, ctx.trace_id, ctx.span_id,
                            name, attrs))


def leaf_span(name: str, **attrs):
    """:func:`span` without its scope, for work that never opens a span:
    yields ``None``; no-op when no trace is active."""
    ctx = _STATE.get()
    if ctx is None:
        return NULL_SPAN
    return _LeafBlock(begin_leaf(ctx.recorder, ctx.trace_id, ctx.span_id,
                                 name, attrs))


def request_span(frame: dict, names: SpanNames):
    """The span of one outgoing request *frame*, as a ``with`` block around
    its round trip; no-op when no trace is active.

    Under an active trace it opens the ``names[frame["op"]]`` span (a
    leaf: the round trip opens none) and stamps the frame's additive
    ``"trace"`` key with its id, which makes it the parent of everything
    the server records for the request.
    """
    ctx = _STATE.get()
    if ctx is None:
        return NULL_SPAN
    name, attrs = names[frame["op"]]
    leaf = begin_leaf(ctx.recorder, ctx.trace_id, ctx.span_id, name, attrs)
    frame["trace"] = {"id": ctx.trace_id, "span": f"{_SPAN_PREFIX}{leaf[2]}"}
    return _LeafBlock(leaf)


class _TraceHandle:
    __slots__ = ("trace_id", "root")

    def __init__(self, trace_id: str, root: dict):
        self.trace_id = trace_id
        self.root = root  # the root span's attribute dict


@contextmanager
def start_trace(name: str, recorder: TraceRecorder,
                trace_id: Optional[str] = None, **attrs):
    """Open a new root span and make its trace active in this context.

    The client side of a distributed trace: requests issued inside the
    block are stamped with the trace, and the handle's ``trace_id`` is
    what to pass to the ``trace`` wire op afterwards.
    """
    trace_id = trace_id or new_trace_id()
    with _Span(begin_leaf(recorder, trace_id, None, name, attrs)) as root:
        yield _TraceHandle(trace_id, root)
