"""Pure measurement helpers: percentiles and span self time.

Nothing here imports the program under test, so the self-tests can pin the
rules down without building a store.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank *q*-th percentile (0 < q <= 100) of *values*."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def samples_beyond(n: int, q: float) -> int:
    """How many of *n* samples lie above the nearest-rank *q*-th percentile."""
    return n - max(1, math.ceil(q / 100.0 * n))


def latency_summary(values_us: Sequence[float]) -> Dict[str, Optional[float]]:
    """p50 and p99 of a latency sample with its count.

    p99 is ``None`` when fewer than :data:`MIN_BEYOND` samples lie beyond
    it: such a p99 would be one or two outliers, not a percentile.
    """
    n = len(values_us)
    beyond = samples_beyond(n, 99)
    ordered = sorted(values_us)
    return {"p50": percentile(ordered, 50),
            "p99": percentile(ordered, 99) if beyond >= MIN_BEYOND else None,
            "n": n, "beyond_p99": beyond}


def median_or_zero(values: Iterable[float]) -> float:
    """Median of *values*, 0.0 for an empty sample (a layer the run did not
    load reports 0)."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by half-open ``(start, end)`` intervals."""
    total = 0.0
    cur_start: Optional[float] = None
    cur_end = 0.0
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def self_time(span: dict, children: Iterable[dict]) -> float:
    """A span's duration minus the part of it its children cover.

    Children may overlap each other (a router's concurrent fan-out), so the
    covered part is the union of their intervals, clipped to the span.
    Spans carry ``start_us`` and ``elapsed_us`` as recorded by
    :mod:`repro.obs.trace`.
    """
    start = span["start_us"]
    end = start + span["elapsed_us"]
    clipped = [(max(start, c["start_us"]),
                min(end, c["start_us"] + c["elapsed_us"])) for c in children]
    return span["elapsed_us"] - union_length(clipped)


def children_by_parent(spans: Iterable[dict]) -> Dict[str, List[dict]]:
    """Index spans by their parent span id."""
    index: Dict[str, List[dict]] = {}
    for record in spans:
        index.setdefault(record.get("parent"), []).append(record)
    return index
