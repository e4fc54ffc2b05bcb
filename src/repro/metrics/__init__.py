"""Live observability for simulation runs: Prometheus-style metrics.

:mod:`repro.metrics.prometheus` implements a minimal registry (counter,
gauge and histogram families) with deterministic text exposition;
:mod:`repro.metrics.monitor` samples it from the event loop while a run
executes, into typed series in memory and, when asked, Prometheus text in
a file; :mod:`repro.metrics.sources` holds the canonical samplers for the
serving systems.  Attach one with ``system.attach_metrics(path=...)``
before ``run()``.  :mod:`repro.metrics.plot` (``python -m
repro.metrics.plot``) parses a recorded scrape stream back into the same
per-series time series.
"""

from repro.metrics.monitor import MetricsMonitor
from repro.metrics.prometheus import (
    DEFAULT_BUCKETS,
    CounterFamily,
    GaugeFamily,
    HistogramFamily,
    MetricFamily,
    MetricsRegistry,
    escape_label_value,
    format_value,
)
from repro.metrics.sources import (
    client_metrics_source,
    fleet_metrics_source,
    tier_metrics_source,
    trace_metrics_source,
)

__all__ = [
    "MetricsMonitor",
    "MetricsRegistry",
    "MetricFamily",
    "CounterFamily",
    "GaugeFamily",
    "HistogramFamily",
    "DEFAULT_BUCKETS",
    "escape_label_value",
    "format_value",
    "client_metrics_source",
    "fleet_metrics_source",
    "tier_metrics_source",
    "trace_metrics_source",
]
