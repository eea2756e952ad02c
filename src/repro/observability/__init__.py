"""``repro.observability`` — metrics, trace spans and structured events.

One switch, three instruments:

* **Metrics** (:mod:`~repro.observability.metrics`) — process-local
  counters, gauges and fixed-bucket histograms with p50/p95/p99
  summaries, rendered by :func:`repro.observability.export.render_prometheus`.
* **Tracing** (:mod:`~repro.observability.tracing`) — nested timed spans
  forming a tree; a :class:`~repro.observability.tracing.TraceContext`
  serializes across the process-pool boundary so worker-side chunk spans
  reattach under the parent's dispatch span.
* **Events** (:mod:`~repro.observability.events`) — a schema-versioned
  JSONL event log (plan compiles, cache misses, chunk dispatches, worker
  failures, residuals) with ring-buffer and file sinks; finished spans
  are mirrored into it as ``kind="span"`` records.

Everything is **off by default**: the instrumented hot paths guard each
call site behind :func:`is_enabled` — a single module attribute read —
and the zero-alloc steady loop is never instrumented at all, so disabled
overhead is unmeasurable. Enable with::

    from repro import observability

    observability.enable(trace_path="run-trace.jsonl")   # file optional
    ...  # run mixes / DSE / parallel batches
    print(observability.render_metrics())
    observability.disable()

or from the CLI: ``repro mix ... --trace FILE``, ``repro dse ... --trace
FILE``, and ``repro metrics MIX`` (run + dump in one shot).
"""

from __future__ import annotations

from typing import Any, ContextManager, Mapping, Sequence
from contextlib import nullcontext

from repro.observability.events import (
    SCHEMA_VERSION,
    EventLog,
    FileSink,
    RingSink,
    read_events,
)
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentiles,
)
from repro.observability.tracing import SpanRecord, TraceContext, Tracer

__all__ = [
    "SCHEMA_VERSION",
    "Counter",
    "EventLog",
    "FileSink",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RingSink",
    "SpanRecord",
    "TraceContext",
    "Tracer",
    "disable",
    "emit",
    "enable",
    "event_log",
    "inc",
    "is_enabled",
    "metrics_registry",
    "observe",
    "percentiles",
    "read_events",
    "render_metrics",
    "render_trace",
    "set_gauge",
    "span",
    "trace_context",
    "tracer",
]


class _State:
    """The process-wide observability switchboard."""

    __slots__ = ("enabled", "registry", "tracer", "events", "_file_sink")

    def __init__(self) -> None:
        self.enabled = False
        self.registry = MetricsRegistry()
        self.events = EventLog(RingSink())
        self.tracer = Tracer(on_finish=self._span_finished)
        self._file_sink: FileSink | None = None

    def _span_finished(self, record: SpanRecord) -> None:
        if self.enabled:
            self.events.emit(
                "span",
                name=record.name,
                span_id=record.span_id,
                parent_id=record.parent_id,
                trace_id=record.trace_id,
                seconds=record.duration,
                attrs=record.attrs,
            )


_STATE = _State()


def enable(
    trace_path: str | None = None,
    ring_capacity: int = 4096,
    fresh: bool = True,
) -> None:
    """Turn instrumentation on.

    ``fresh=True`` (the default) starts a clean registry, tracer and event
    log so the observed state describes exactly one enabled window;
    ``fresh=False`` keeps accumulating into the existing ones.
    ``trace_path`` adds a JSONL :class:`FileSink` next to the always-on
    ring buffer.
    """
    if fresh:
        _STATE.registry = MetricsRegistry()
        _STATE.events = EventLog(RingSink(ring_capacity))
        _STATE.tracer = Tracer(on_finish=_STATE._span_finished)
        _STATE._file_sink = None
    if trace_path is not None:
        _STATE._file_sink = FileSink(trace_path)
        _STATE.events.add_sink(_STATE._file_sink)
    _STATE.enabled = True


def disable() -> None:
    """Turn instrumentation off and flush/close any file sink.

    The collected registry, tracer and event log stay readable until the
    next ``enable()`` — turn off, then render.
    """
    _STATE.enabled = False
    _STATE.events.close()


def is_enabled() -> bool:
    """The one flag every instrumented call site checks first."""
    return _STATE.enabled


def metrics_registry() -> MetricsRegistry:
    """The live registry (readable whether or not recording is on)."""
    return _STATE.registry


def tracer() -> Tracer:
    """The live tracer."""
    return _STATE.tracer


def event_log() -> EventLog:
    """The live event log."""
    return _STATE.events


def ring_sink() -> RingSink | None:
    """The event log's in-memory ring, if it has one (tests read this)."""
    for sink in _STATE.events.sinks:
        if isinstance(sink, RingSink):
            return sink
    return None


# -- guarded one-liners for instrumented call sites ----------------------------
def inc(name: str, amount: float = 1.0, **labels: object) -> None:
    """Increment a counter — no-op while disabled."""
    if _STATE.enabled:
        _STATE.registry.counter(name, **labels).inc(amount)


def observe(name: str, value: float, **labels: object) -> None:
    """Observe a histogram sample — no-op while disabled."""
    if _STATE.enabled:
        _STATE.registry.histogram(name, **labels).observe(value)


def set_gauge(name: str, value: float, **labels: object) -> None:
    """Set a gauge — no-op while disabled."""
    if _STATE.enabled:
        _STATE.registry.gauge(name, **labels).set(value)


def emit(kind: str, **payload: Any) -> None:
    """Emit a structured event — no-op while disabled."""
    if _STATE.enabled:
        _STATE.events.emit(kind, **payload)


def span(name: str, **attrs: Any) -> ContextManager:
    """Open a trace span — a shared null context while disabled."""
    if _STATE.enabled:
        return _STATE.tracer.span(name, **attrs)
    return nullcontext()


def trace_context() -> TraceContext | None:
    """The shippable trace position, or None while disabled."""
    if _STATE.enabled:
        return _STATE.tracer.context()
    return None


def adopt_spans(records: Sequence[Mapping[str, Any]] | None) -> None:
    """Graft worker-returned span dicts into the live tracer (if any)."""
    if _STATE.enabled and records:
        _STATE.tracer.adopt(records)


def render_metrics() -> str:
    """Prometheus-style text dump of the live registry."""
    from repro.observability.export import render_prometheus

    return render_prometheus(_STATE.registry)


def render_trace(unit: str = "ms") -> str:
    """Human-readable table of the live tracer's span forest."""
    from repro.observability.export import render_trace_table

    return render_trace_table(_STATE.tracer, unit=unit)
