"""Per-request span tracing for the serving stack (``repro.trace``).

Attach a tracer to any serving system and every request records a span
tree over the shared event loop::

    tracer = system.attach_tracer()          # default-off unless attached
    system.run(workload)
    tracer.spans()                           # all spans, export order
    write_chrome_trace(tracer.spans(), "trace.json")   # Perfetto-loadable
    LatencyAttribution.from_tracer(tracer).stage_breakdown()

See :mod:`repro.trace.spans` for the span model, :mod:`repro.trace.tracer`
for the recording hooks, :mod:`repro.trace.export` for the Chrome export
and :mod:`repro.trace.attribution` for per-stage latency
decomposition.
"""

from repro.trace.attribution import LatencyAttribution
from repro.trace.export import (
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.trace.spans import (
    DETAIL_NAMES,
    REQUEST_TRACK,
    STAGE_ORDER,
    TTFT_STAGES,
    Span,
)
from repro.trace.tracer import Tracer

__all__ = [
    "DETAIL_NAMES",
    "LatencyAttribution",
    "REQUEST_TRACK",
    "STAGE_ORDER",
    "Span",
    "TTFT_STAGES",
    "Tracer",
    "chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
]
