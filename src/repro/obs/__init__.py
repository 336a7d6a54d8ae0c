"""Observability layer: one metrics registry, one tracing surface.

``repro.obs`` is the single home for telemetry primitives.  The serving
and store layers never keep private counter dicts or call
``time.perf_counter`` directly (``tests/test_conventions.py`` lints
this); they create instruments on a :class:`MetricsRegistry` and time
work through :meth:`Histogram.time` or :func:`repro.obs.trace.span`.

* :mod:`repro.obs.metrics` — named counters / gauges / fixed-bucket
  histograms with dotted ``snake_case`` names and label sets,
  thread-safe snapshot/reset, Prometheus text rendering.
* :mod:`repro.obs.trace` — request-scoped trace IDs with timed spans,
  propagated across threads via ``contextvars`` and across the wire via
  the additive ``"trace"`` request key.
* :mod:`repro.obs.events` — a bounded flight-recorder ring buffer of
  structured operational events (failovers, slow requests, internal
  faults), each stamped with the active trace id.
* :mod:`repro.obs.profile` — a continuous sampling profiler folding
  ``sys._current_frames()`` into bounded per-thread-role stack
  aggregates that merge with ``+`` across a fleet.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    render_prometheus,
)
from repro.obs.trace import (
    TraceRecorder,
    activate,
    current,
    new_trace_id,
    span,
    start_trace,
)
from repro.obs.events import EventLog, merge_events
from repro.obs.profile import ProfileStats, SamplingProfiler

__all__ = [
    "Counter",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "ProfileStats",
    "SamplingProfiler",
    "TraceRecorder",
    "activate",
    "current",
    "merge_events",
    "new_trace_id",
    "render_prometheus",
    "span",
    "start_trace",
]
