"""Span model for per-request tracing.

A *span* is a named, timestamped interval on the simulation clock.  The
tracer records three kinds:

* ``root`` — one per traced request, covering arrival to terminal state
  (finished / shed / lost).  Its ``meta`` carries the terminal status and
  the recorded TTFT / E2E so analyzers can reconcile against the engine's
  own accounting.
* ``stage`` — the children of a root span.  Stage spans *partition* the
  root interval: consecutive lifecycle boundaries (submit, WAN delivery,
  dispatch, first execution, first token, finish) cut the request's
  lifetime into non-overlapping segments, so stage durations sum to the
  end-to-end latency by construction (``tests/invariants.py`` pins this).
* ``detail`` — everything that overlaps the stage partition instead of
  refining it: per-chunk prefill execution, engine iterations, fabric
  transfers, KV migrations, route decisions, and retry backoff windows.

Stage names are fixed (:data:`STAGE_ORDER`); detail names are open-ended
but the common ones are listed in :data:`DETAIL_NAMES` and pinned by
``tests/test_trace.py``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping, Optional, Tuple

#: Stage names in lifecycle order.  A request's stage spans appear in this
#: order (stages that do not apply are simply absent) and tile the root.
STAGE_GATEWAY_WAIT = "gateway_wait"
STAGE_WAN_TRANSFER = "wan_transfer"
STAGE_ADMISSION_QUEUE = "admission_queue"
STAGE_SCHEDULER_QUEUE = "scheduler_queue"
STAGE_PREFILL = "prefill"
STAGE_DECODE = "decode"

STAGE_ORDER: Tuple[str, ...] = (
    STAGE_GATEWAY_WAIT,
    STAGE_WAN_TRANSFER,
    STAGE_ADMISSION_QUEUE,
    STAGE_SCHEDULER_QUEUE,
    STAGE_PREFILL,
    STAGE_DECODE,
)

#: Stages that make up TTFT; ``decode`` is everything after the first token.
TTFT_STAGES: Tuple[str, ...] = tuple(s for s in STAGE_ORDER if s != STAGE_DECODE)

#: Common detail-span names (an open set; these are the instrumented ones).
DETAIL_ROUTE_DECISION = "route_decision"
DETAIL_PREFILL_CHUNK = "prefill_chunk"
DETAIL_ITERATION = "iteration"
DETAIL_NETWORK_DELIVERY = "network_delivery"
DETAIL_KV_MIGRATION = "kv_migration"
DETAIL_RETRY_BACKOFF = "retry_backoff"
DETAIL_GATEWAY_PULL = "gateway_pull"

DETAIL_NAMES: Tuple[str, ...] = (
    DETAIL_ROUTE_DECISION,
    DETAIL_PREFILL_CHUNK,
    DETAIL_ITERATION,
    DETAIL_NETWORK_DELIVERY,
    DETAIL_KV_MIGRATION,
    DETAIL_RETRY_BACKOFF,
    DETAIL_GATEWAY_PULL,
)

#: Track name of request-scoped spans (roots, stages, request details).
REQUEST_TRACK = "requests"


@dataclasses.dataclass(frozen=True)
class Span:
    """One named interval on the simulation clock.

    ``end_s`` is ``None`` only for root spans of requests still in flight
    when the tracer was read out; closed spans always carry both ends.
    """

    name: str
    kind: str  # "root" | "stage" | "detail"
    start_s: float
    end_s: Optional[float]
    request_id: int = -1
    track: str = REQUEST_TRACK
    meta: Mapping[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def duration_s(self) -> Optional[float]:
        if self.end_s is None:
            return None
        return self.end_s - self.start_s

    @property
    def closed(self) -> bool:
        return self.end_s is not None


def span_sort_key(span: Span) -> Tuple:
    """Deterministic ordering for export: by time, then identity."""
    return (
        span.start_s,
        span.end_s if span.end_s is not None else float("inf"),
        span.request_id,
        span.kind,
        span.name,
        span.track,
    )
