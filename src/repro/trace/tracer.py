"""The :class:`Tracer`: per-request span recording on the shared event loop.

The tracer is attached with ``system.attach_tracer(...)`` (single-cluster
and multicluster systems both expose it) and is **off by default**: an
unattached system keeps every ``tracer`` attribute ``None`` and each hook
site is a single ``is not None`` check, so the untraced hot path pays one
pointer comparison per lifecycle event and nothing else.  Attaching one
changes no simulated result (``tests/test_trace.py`` compares a traced
cell's whole result with the untraced run's).

Recording model: hooks append lifecycle *boundaries* per request (submit,
WAN delivery, dispatch, first execution, first token, terminal state).
When a request reaches a terminal state the boundary list is folded into
stage spans that partition ``[arrival, end]`` — which is what makes the
span-conservation invariant (stage durations sum to E2E) hold by
construction rather than by luck.  Detail spans (chunk execution, engine
passes, fabric transfers, migrations, retries) are appended as they
complete and may overlap the stage partition freely.  Only an export
reads them, so a tracer built with ``details=False`` records none: a
sweep cell whose spans nobody exports keeps its stage breakdown and
skips the one ``iteration`` span per engine pass.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from repro.trace.spans import (
    DETAIL_GATEWAY_PULL,
    DETAIL_ITERATION,
    DETAIL_KV_MIGRATION,
    DETAIL_NETWORK_DELIVERY,
    DETAIL_PREFILL_CHUNK,
    DETAIL_RETRY_BACKOFF,
    DETAIL_ROUTE_DECISION,
    REQUEST_TRACK,
    STAGE_ADMISSION_QUEUE,
    STAGE_DECODE,
    STAGE_GATEWAY_WAIT,
    STAGE_PREFILL,
    STAGE_SCHEDULER_QUEUE,
    STAGE_WAN_TRANSFER,
    Span,
    span_sort_key,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.network import Transfer
    from repro.engine.batch import IterationBatch
    from repro.engine.request import Request
    from repro.simulation.event_loop import EventLoop

_TRAILING_ID = re.compile(r"(\d+)$")


def _request_id_from_tag(tag: str) -> int:
    """Best-effort request id from a transfer tag (``swap-out-7`` -> 7)."""
    match = _TRAILING_ID.search(tag)
    return int(match.group(1)) if match else -1


class _RequestState:
    """Mutable per-request recording state (folded into spans at close)."""

    __slots__ = (
        "request_id",
        "root_start",
        "boundaries",
        "root_end",
        "status",
        "first_exec",
        "meta",
    )

    def __init__(self, request_id: int, root_start: float) -> None:
        self.request_id = request_id
        self.root_start = root_start
        #: ``(stage, end_time)`` pairs; segment *k* runs from the previous
        #: boundary (or ``root_start``) to its own end time.
        self.boundaries: List[Tuple[str, float]] = []
        self.root_end: Optional[float] = None
        self.status: Optional[str] = None  # "finished" | "shed" | "lost"
        self.first_exec: Optional[float] = None
        self.meta: Dict[str, object] = {}


class Tracer:
    """Records a span tree per request from instrumented hook points."""

    def __init__(self, loop: "EventLoop", *, details: bool = True) -> None:
        self.loop = loop
        #: whether detail spans are recorded (for :meth:`spans` exports).
        self.details = details
        self._states: Dict[int, _RequestState] = {}
        self._details: List[Span] = []
        self._pending_wan: Dict[int, float] = {}
        self._pending_migrations: Dict[int, Tuple[float, str, str]] = {}
        #: Stage spans of closed requests, in close order — consumed
        #: incrementally by :func:`repro.metrics.sources.trace_metrics_source`.
        self.closed_stage_spans: List[Span] = []
        self._stage_spans: Dict[int, List[Span]] = {}
        self.requests_traced = 0
        self.requests_finished = 0
        self.requests_shed = 0
        self.requests_lost = 0

    # ------------------------------------------------------------------
    # Lifecycle hooks (called from instrumented sites, all None-guarded)
    # ------------------------------------------------------------------
    def on_gateway(self, request: "Request") -> None:
        """A gateway pulled ``request`` from its stream (pre-submission)."""
        if not self.details:
            return
        now = self.loop.now
        self._details.append(
            Span(
                DETAIL_GATEWAY_PULL,
                "detail",
                now,
                max(now, float(request.arrival_time)),
                request.request_id,
                REQUEST_TRACK,
                {"lookahead_s": max(0.0, float(request.arrival_time) - now)},
            )
        )

    def on_submit(self, request: "Request") -> None:
        """``request`` entered a serving system (root span opens)."""
        rid = request.request_id
        if rid in self._states:
            # Re-submission of a WAN-delivered request at its target shard;
            # the root is already open at the tier.
            return
        now = self.loop.now
        state = _RequestState(rid, root_start=min(float(request.arrival_time), now))
        state.boundaries.append((STAGE_GATEWAY_WAIT, now))
        self._states[rid] = state
        self.requests_traced += 1

    def on_route(self, request: "Request", target: object, scope: str = "fleet") -> None:
        """A router picked ``target`` — an instantaneous decision span."""
        if not self.details:
            return
        now = self.loop.now
        self._details.append(
            Span(
                DETAIL_ROUTE_DECISION,
                "detail",
                now,
                now,
                request.request_id,
                REQUEST_TRACK,
                {"target": str(target), "scope": scope},
            )
        )

    def on_wan_start(self, request: "Request", source: int, target: int) -> None:
        """Per-request context left on the inter-cluster fabric."""
        self._pending_wan[request.request_id] = self.loop.now

    def on_wan_end(self, request: "Request") -> None:
        """The WAN transfer delivered; the in-flight segment closes.

        Pre-execution deliveries (cross-cluster dispatch, or a queued
        request re-homed off a dead shard) are a lifecycle stage: the
        request was in flight on the WAN between submission and serving.
        Post-execution deliveries are session *migrations* — the request
        already started (possibly already streamed tokens), so the move
        overlaps prefill/decode and recording it as a stage boundary
        would break the TTFT partition; it becomes a detail span instead.
        """
        started = self._pending_wan.pop(request.request_id, None)
        state = self._states.get(request.request_id)
        if state is None or state.status is not None:
            return
        if state.first_exec is None:
            state.boundaries.append((STAGE_WAN_TRANSFER, self.loop.now))
        elif started is not None and self.details:
            self._details.append(
                Span(
                    DETAIL_KV_MIGRATION,
                    "detail",
                    started,
                    self.loop.now,
                    request.request_id,
                    REQUEST_TRACK,
                    {"wan": True},
                )
            )

    def on_enqueued(self, request: "Request", group_id: int) -> None:
        """``request`` was dispatched to a serving group's scheduler queue."""
        state = self._states.get(request.request_id)
        if state is None or state.status is not None:
            return
        if any(name == STAGE_ADMISSION_QUEUE for name, _ in state.boundaries):
            return  # re-adoption after a fault keeps the original dispatch
        state.meta["group"] = group_id
        state.boundaries.append((STAGE_ADMISSION_QUEUE, self.loop.now))

    def on_iteration(
        self, group: object, batch: "IterationBatch", start_s: float, end_s: float
    ) -> None:
        """A group completed an iteration executing ``batch`` over the window."""
        track = getattr(group, "trace_track", "engine")
        details = self.details
        # Only prefill chunks are listed; a decoding request ran a prefill
        # chunk before, which already marked its first execution.
        prefill_tokens = 0
        for chunk in batch.chunks:
            state = self._states.get(chunk.request.request_id)
            prefill_tokens += chunk.new_tokens
            if state is not None and details:
                self._details.append(
                    Span(
                        DETAIL_PREFILL_CHUNK,
                        "detail",
                        start_s,
                        end_s,
                        chunk.request.request_id,
                        track,
                        {
                            "tokens": chunk.new_tokens,
                            "prefix_tokens": chunk.prefix_tokens,
                        },
                    )
                )
            if state is not None and state.status is None and state.first_exec is None:
                state.first_exec = start_s
                state.boundaries.append((STAGE_SCHEDULER_QUEUE, start_s))
        if not details:
            return
        self._details.append(
            Span(
                DETAIL_ITERATION,
                "detail",
                start_s,
                end_s,
                -1,
                track,
                {
                    "requests": batch.num_requests,
                    "prefill_tokens": prefill_tokens,
                    "decode_tokens": batch.decode_count,
                },
            )
        )

    def on_finished(self, request: "Request") -> None:
        """``request`` produced its last token; fold boundaries into stages."""
        state = self._states.get(request.request_id)
        if state is None or state.status is not None:
            return
        finish = float(request.finish_time)
        first_token = float(request.first_token_time)
        state.boundaries.append((STAGE_PREFILL, first_token))
        state.boundaries.append((STAGE_DECODE, finish))
        state.meta.update(
            {
                "first_token_s": first_token,
                "ttft_s": request.ttft,
                "e2e_s": request.e2e_latency,
                "prompt_tokens": request.prompt_tokens,
                "output_tokens": request.output_tokens,
                "preemptions": request.preemption_count,
                "migrations": request.migration_count,
            }
        )
        self.requests_finished += 1
        self._close(state, "finished", finish)

    def on_shed(self, request: "Request") -> None:
        """Admission rejected ``request``; the root closes unfinished."""
        state = self._states.get(request.request_id)
        if state is None or state.status is not None:
            return
        now = self.loop.now
        state.boundaries.append((STAGE_ADMISSION_QUEUE, now))
        self.requests_shed += 1
        self._close(state, "shed", now)

    def on_lost(self, request: "Request") -> None:
        """A fault dropped ``request`` (e.g. its WAN target died in flight)."""
        state = self._states.get(request.request_id)
        if state is None or state.status is not None:
            return
        now = self.loop.now
        if request.request_id in self._pending_wan:
            self._pending_wan.pop(request.request_id, None)
            state.boundaries.append((STAGE_WAN_TRANSFER, now))
        self.requests_lost += 1
        self._close(state, "lost", now)

    def on_retry_backoff(self, request: "Request", delay_s: float) -> None:
        """A shed attempt scheduled its retry ``delay_s`` from now."""
        if not self.details:
            return
        now = self.loop.now
        self._details.append(
            Span(
                DETAIL_RETRY_BACKOFF,
                "detail",
                now,
                now + delay_s,
                request.request_id,
                REQUEST_TRACK,
                {"delay_s": delay_s},
            )
        )

    def on_migration_start(
        self, request: "Request", src_track: str, dst_track: str
    ) -> None:
        """A running request's KV started moving to another group."""
        if not self.details:
            return
        self._pending_migrations[request.request_id] = (
            self.loop.now,
            src_track,
            dst_track,
        )

    def on_migration_end(self, request: "Request") -> None:
        """The KV migration transfer completed."""
        pending = self._pending_migrations.pop(request.request_id, None)
        if pending is None:
            return
        start, src_track, dst_track = pending
        self._details.append(
            Span(
                DETAIL_KV_MIGRATION,
                "detail",
                start,
                self.loop.now,
                request.request_id,
                src_track,
                {"src": src_track, "dst": dst_track},
            )
        )

    def on_transfer(self, transfer: "Transfer") -> None:
        """A fabric transfer finished (swap / migrate / WAN delivery)."""
        if not self.details:
            return
        self._details.append(
            Span(
                DETAIL_NETWORK_DELIVERY,
                "detail",
                transfer.submitted_at,
                transfer.completed_at,
                _request_id_from_tag(transfer.tag),
                f"network/{transfer.src}->{transfer.dst}",
                {
                    "tag": transfer.tag,
                    "bytes": transfer.size_bytes,
                    "src": transfer.src,
                    "dst": transfer.dst,
                },
            )
        )

    # ------------------------------------------------------------------
    # Close / readout
    # ------------------------------------------------------------------
    def _close(self, state: _RequestState, status: str, end: float) -> None:
        state.status = status
        state.root_end = end
        spans: List[Span] = []
        prev = state.root_start
        for name, boundary in state.boundaries:
            boundary = min(max(boundary, prev), end)
            spans.append(Span(name, "stage", prev, boundary, state.request_id))
            prev = boundary
        self._stage_spans[state.request_id] = spans
        self.closed_stage_spans.extend(spans)

    def _root_span(self, state: _RequestState) -> Span:
        meta = {"status": state.status or "open", **state.meta}
        return Span(
            "request",
            "root",
            state.root_start,
            state.root_end,
            state.request_id,
            REQUEST_TRACK,
            meta,
        )

    def _request_spans(self) -> Iterator[Span]:
        for rid in sorted(self._states):
            yield self._root_span(self._states[rid])
            yield from self._stage_spans.get(rid, ())

    def spans(self) -> List[Span]:
        """Every recorded span in deterministic export order."""
        spans = [*self._request_spans(), *self._details]
        spans.sort(key=span_sort_key)
        return spans

    def request_spans(self) -> List[Span]:
        """Root and stage spans only, by request id and each request's
        spans in record order (:meth:`spans` sorts them for export; the
        per-request stage sums do not depend on the order)."""
        return list(self._request_spans())
