"""End-to-end tracing: spans, context propagation, flight recorder.

The span model and in-process API live in :mod:`repro.trace.spans`;
every span carries a trace id, and none of this package knows what the
spans measure — the pipeline and the server attach their own args.  The
always-on crash-bundle ring buffer lives in :mod:`repro.trace.flight`;
exporters and the attribution/critical-path analysis in
:mod:`repro.trace.analyze`; the ``repro trace`` CLI's rendering in
:mod:`repro.trace.report`.  See ``docs/OBSERVABILITY.md`` for the model.
"""

from .analyze import (
    attribution,
    chrome_trace,
    critical_path,
    format_span_summary,
    group_traces,
    load_spans,
    orphan_spans,
    trace_coverage,
    trace_root,
    write_chrome_trace,
    write_spans_jsonl,
)
from .flight import (
    FlightLogHandler,
    FlightRecorder,
    flight_recorder,
    install_flight_recorder,
    uninstall_flight_recorder,
)
from .spans import (
    HeadSampler,
    SpanEvent,
    Trace,
    TraceContext,
    current_trace,
    module_op_count,
    new_trace_id,
    span,
    tracing,
)

__all__ = [
    "FlightLogHandler",
    "FlightRecorder",
    "HeadSampler",
    "SpanEvent",
    "Trace",
    "TraceContext",
    "attribution",
    "chrome_trace",
    "critical_path",
    "current_trace",
    "flight_recorder",
    "format_span_summary",
    "group_traces",
    "install_flight_recorder",
    "load_spans",
    "module_op_count",
    "new_trace_id",
    "orphan_spans",
    "span",
    "trace_coverage",
    "trace_root",
    "tracing",
    "uninstall_flight_recorder",
    "write_chrome_trace",
    "write_spans_jsonl",
]
