"""Observability layer: structured tracing, time-series sampling and run
profiling for simulation runs.

See ``docs/architecture.md`` §8 for the design.  The key contract: every
hook observes without mutating, so traced/sampled/profiled runs produce
:class:`~repro.core.metrics.RunMetrics` byte-identical to plain runs, and
the disabled path (:data:`NULL_TRACER`) adds no work to the optimized
simulator loop.
"""

from repro.obs.metrics import (
    MetricCounter,
    Gauge,
    MetricHistogram,
    MetricsRegistry,
    RunInstrumentation,
    format_sweep_table,
    lint_prometheus,
    log_buckets,
    read_snapshot,
    render_registry,
)
from repro.obs.attribution import (
    ATTRIBUTION_QUANTILES,
    PHASES,
    RequestAttribution,
    attribute_events,
    attribution_summary,
    format_attribution,
    slowest_requests,
)
from repro.obs.explorer import render_explorer_html
from repro.obs.export import (
    read_events,
    summarize_events,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.spans import SpanRecorder
from repro.obs.profiler import CellProfile, ProfileReport
from repro.obs.sampler import Sample, TimeSeriesSampler
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    RecordingTracer,
    REQUEST_TRACK,
    TraceEvent,
    Tracer,
    normalize,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "RecordingTracer",
    "SpanRecorder",
    "TraceEvent",
    "REQUEST_TRACK",
    "normalize",
    "ATTRIBUTION_QUANTILES",
    "PHASES",
    "RequestAttribution",
    "attribute_events",
    "attribution_summary",
    "format_attribution",
    "slowest_requests",
    "render_explorer_html",
    "read_events",
    "summarize_events",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "Sample",
    "TimeSeriesSampler",
    "CellProfile",
    "ProfileReport",
    "MetricCounter",
    "Gauge",
    "MetricHistogram",
    "MetricsRegistry",
    "RunInstrumentation",
    "format_sweep_table",
    "lint_prometheus",
    "log_buckets",
    "read_snapshot",
    "render_registry",
]
