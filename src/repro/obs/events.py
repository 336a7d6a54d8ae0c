"""Flight-recorder event log: a bounded ring buffer of structured events.

The third observability pillar next to :mod:`repro.obs.metrics` (how much /
how fast) and :mod:`repro.obs.trace` (where one request spent its time):
the :class:`EventLog` records *what happened around* the requests — a
replica died, the router failed over, a request crossed the slow
threshold, a request hit an internal fault, a server began its graceful
shutdown — as small JSON-able dicts in arrival order, capped at
``max_events`` so a misbehaving fleet can never grow the log without bound
(the overflow is counted, not silently dropped).

Event records are flat dicts::

    {"seq": 17, "ts_us": 1754650000123456, "kind": "fleet.failover",
     "trace": "9f2c...", "worker": 1, ...}

* ``seq`` is a per-log monotonically increasing sequence number (the
  tie-breaker when merging logs recorded on one host);
* ``ts_us`` is wall-clock microseconds (``time.time_ns() // 1000``) — wall
  clock, not monotonic, so events from the router and its workers
  interleave into one timeline;
* ``kind`` follows the registry's dotted ``layer.noun`` naming
  (``fleet.failover``, ``fleet.replica_death``, ``serve.slow_request``,
  ``serve.internal_error``, ``serve.shutdown``);
* ``trace`` is stamped automatically from the active
  :func:`repro.obs.trace.current` context (or passed explicitly by a
  caller whose trace context has already been exited), linking the event
  into the request's span tree.

The lock is created through :func:`repro.lint.runtime.new_lock` under the
class name ``obs.events`` and :meth:`emit` acquires no other lock while
holding it — the event log is a *leaf* in the lock-order digraph, so any
layer (the store under churn, the router mid-failover) can emit without
widening the ordering relation the sanitizer checks.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Iterable, List, Optional, Sequence

from repro.lint.runtime import new_lock
from repro.obs import trace

__all__ = ["EventLog", "merge_events"]

#: The event kinds the serving stack emits (informational — the log accepts
#: any dotted kind; new emitters should extend this list and the ROADMAP).
#: Per-request churn never goes here: LRU evictions, one per cold decode,
#: are the ``store.evictions`` counter, or they would flush every other
#: event out of the ring.
KNOWN_EVENT_KINDS = (
    "fleet.failover",
    "fleet.replica_death",
    "serve.slow_request",
    "serve.internal_error",
    "serve.shutdown",
)


class EventLog:
    """Bounded ring buffer of structured operational events.

    Parameters
    ----------
    max_events:
        Cap on retained events (≥ 1).  Emitting past the cap drops the
        *oldest* event and increments :attr:`dropped` — a flight recorder
        keeps the recent past, and the drop counter shows how far back it
        reaches.
    """

    def __init__(self, max_events: int = 512):
        if max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self.max_events = int(max_events)
        self._lock = new_lock("obs.events")
        self._events: "deque[dict]" = deque()
        self._dropped = 0
        self._seq = 0

    def emit(self, kind: str, *, trace_id: Optional[str] = None,
             **attrs) -> dict:
        """Record one event; returns the stored record.

        ``trace_id`` defaults to the active trace context's id (a no-op
        without one).  Passing it explicitly serves emitters whose span
        already closed — e.g. the server's slow-request hook, which fires
        after the serve span exits but still knows the request's id.
        """
        if trace_id is None:
            active = trace.current()
            if active is not None:
                trace_id = active.trace_id
        record = {"seq": 0, "ts_us": time.time_ns() // 1000,
                  "kind": str(kind)}
        if trace_id is not None:
            record["trace"] = str(trace_id)
        record.update(attrs)
        with self._lock:
            self._seq += 1
            record["seq"] = self._seq
            self._events.append(record)
            if len(self._events) > self.max_events:
                self._events.popleft()
                self._dropped += 1
        return record

    def tail(self, limit: Optional[int] = None, *,
             kind: Optional[str] = None) -> List[dict]:
        """The most recent events, oldest first.

        ``limit`` keeps the newest *limit* (after filtering); ``kind``
        restricts to one event kind.  Returned dicts are copies — callers
        (the wire, tests) can hold them past later emits.
        """
        with self._lock:
            events = list(self._events)
        if kind is not None:
            events = [e for e in events if e["kind"] == kind]
        if limit is not None:
            events = events[-int(limit):] if limit > 0 else []
        return [dict(e) for e in events]

    def clear(self) -> None:
        """Drop every retained event and zero the drop counter (the
        sequence keeps counting — merged timelines stay unambiguous)."""
        with self._lock:
            self._events.clear()
            self._dropped = 0

    @property
    def dropped(self) -> int:
        """Events lost to the ring-buffer cap since the last clear."""
        with self._lock:
            return self._dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


def merge_events(streams: Iterable[Sequence[dict]],
                 *, limit: Optional[int] = None) -> List[dict]:
    """Interleave several event lists into one wall-clock timeline.

    Orders by ``(ts_us, seq)`` — wall-clock first so router and worker
    events weave correctly, sequence as the tie-breaker for events stamped
    in the same microsecond on one log.  ``limit`` keeps the newest
    *limit* events of the merged timeline (the rollup analogue of
    :meth:`EventLog.tail`).
    """
    merged = [event for stream in streams for event in stream]
    merged.sort(key=lambda e: (e.get("ts_us", 0), e.get("seq", 0)))
    if limit is not None and limit >= 0:
        merged = merged[-int(limit):] if limit > 0 else []
    return merged
