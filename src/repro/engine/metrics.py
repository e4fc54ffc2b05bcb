"""Metric collection: per-request latencies and cluster timelines.

The paper reports, per experiment:

* TTFT and TPOT percentiles (P50/P90/P99/P999) — Figure 13, 14, 16;
* mean TTFT over time and token throughput over time — Figure 12, 16, 17;
* memory usage/demand over time — Figure 2, 12, 16, 17;
* pipeline bubble fraction (1 - GPU utilisation) — Figure 14;
* SLO violation ratios at different scale factors — Figure 13.

The :class:`MetricsCollector` gathers the raw material for all of these
during a simulation run; aggregation helpers turn it into the series and
percentiles the experiment modules print.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.engine.request import Request

#: Bucket width, in simulated seconds, of a collector's timelines.
TIMELINE_WINDOW_S = 1.0


def percentile(values: Sequence[float], p: float) -> float:
    """Percentile ``p`` (0-100) of ``values``; 0.0 for an empty sequence."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), p))


def sorted_percentile(ordered: Sequence[float], p: float) -> float:
    """Percentile ``p`` (0-100) of an ascending sequence of floats.

    Repeats numpy's default (``linear``) method operation for operation,
    so it equals :func:`percentile` of the same values exactly, without
    the array copy and partition per call.
    """
    n = len(ordered)
    if n == 0:
        return 0.0
    index = (n - 1) * (p / 100)
    if index >= n - 1:
        return ordered[-1]
    lo = int(index)
    t = index - lo
    a, b = ordered[lo], ordered[lo + 1]
    if t < 0.5:
        return a + (b - a) * t
    return b - (b - a) * (1 - t)


def nearest_rank(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile ``q`` (0-100) of ``values``: the
    ``ceil(q / 100 * n)``-th smallest (at least the first); ``None`` on
    an empty sample.  The convention of the sweep documents' client
    percentiles and the trace stage breakdown."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


@dataclass
class RequestRecord:
    """Immutable per-request result extracted when a request finishes."""

    request_id: int
    arrival_time: float
    prompt_tokens: int
    output_tokens: int
    slo_class: str
    ttft: Optional[float]
    mean_tpot: Optional[float]
    finish_time: Optional[float]
    e2e_latency: Optional[float]
    preemption_count: int
    swap_count: int
    migration_count: int
    finished: bool

    @classmethod
    def from_request(cls, request: Request) -> "RequestRecord":
        return cls(
            request_id=request.request_id,
            arrival_time=request.arrival_time,
            prompt_tokens=request.prompt_tokens,
            output_tokens=request.output_tokens,
            slo_class=request.slo_class,
            ttft=request.ttft,
            mean_tpot=request.mean_tpot,
            finish_time=request.finish_time,
            e2e_latency=request.e2e_latency,
            preemption_count=request.preemption_count,
            swap_count=request.swap_count,
            migration_count=request.migration_count,
            finished=request.finished,
        )


@dataclass
class TimelinePoint:
    """One sample of a time-bucketed series."""

    time: float
    value: float


class TimelineSeries:
    """Time-bucketed accumulator.

    ``mode='sum'`` accumulates values per bucket (e.g. tokens generated);
    ``mode='mean'`` averages samples per bucket (e.g. memory usage, bubble
    fraction).

    ``add`` sits on simulation hot paths (every iteration completion and
    monitor tick folds samples in), so accumulation is lazy: each sample is
    folded straight into a mutable ``[sum, count]`` bucket entry — with the
    most recent bucket memoised, since consecutive samples almost always
    land in the same window — and :class:`TimelinePoint` objects are
    materialised only when a reader asks.  The per-bucket running sums
    accumulate in exactly the sample order, so reads are bit-identical to
    the eager implementation this replaced.
    """

    __slots__ = ("window_s", "mode", "_buckets", "_last_bucket", "_last_entry")

    def __init__(self, window_s: float = 1.0, mode: str = "mean") -> None:
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        if mode not in ("sum", "mean"):
            raise ValueError(f"unknown mode {mode!r}")
        self.window_s = float(window_s)
        self.mode = mode
        self._buckets: Dict[int, List[float]] = {}
        self._last_bucket: Optional[int] = None
        self._last_entry: Optional[List[float]] = None

    def add(self, time: float, value: float) -> None:
        bucket = int(time // self.window_s)
        if bucket == self._last_bucket:
            entry = self._last_entry
        else:
            entry = self._buckets.get(bucket)
            if entry is None:
                entry = [0.0, 0]
                self._buckets[bucket] = entry
            self._last_bucket = bucket
            self._last_entry = entry
        entry[0] += value
        entry[1] += 1

    def _bucket_value(self, entry: List[float]) -> float:
        if self.mode == "mean" and entry[1] > 0:
            return entry[0] / entry[1]
        return entry[0]

    def points(self) -> List[TimelinePoint]:
        return [
            TimelinePoint(time=bucket * self.window_s, value=self._bucket_value(entry))
            for bucket, entry in sorted(self._buckets.items())
        ]

    def values(self) -> List[float]:
        return [
            self._bucket_value(entry) for _, entry in sorted(self._buckets.items())
        ]

    def max(self) -> float:
        return max(
            (self._bucket_value(entry) for entry in self._buckets.values()),
            default=0.0,
        )

    def mean(self) -> float:
        if not self._buckets:
            return 0.0
        values = self.values()
        return sum(values) / len(values)


class MetricsCollector:
    """Collects per-request records and timelines.

    Of an engine pass it keeps only what its readers use: the new tokens
    on the ``throughput`` timeline and, for a pipelined pass, the bubble
    fraction (``bubble_fractions``, read by :meth:`mean_bubble_fraction`).
    ``record_request`` also keeps a running finished count and the TTFT
    values, sorted lazily when a percentile is asked for, so the queries a
    live metrics scrape makes cost O(new records), not O(all records).
    """

    def __init__(self) -> None:
        self.records: List[RequestRecord] = []
        #: one entry per completed pipelined (multi-stage) pass.  A list,
        #: not a running sum: ``np.mean`` sums it pairwise.
        self.bubble_fractions: List[float] = []
        self.throughput = TimelineSeries(TIMELINE_WINDOW_S, mode="sum")
        self.memory_used = TimelineSeries(TIMELINE_WINDOW_S, mode="mean")
        self.memory_demand = TimelineSeries(TIMELINE_WINDOW_S, mode="mean")
        self.memory_capacity = TimelineSeries(TIMELINE_WINDOW_S, mode="mean")
        #: free-form event markers (drop start/end, restore start/end, ...)
        self.events: List[Dict[str, object]] = []
        self._finished = 0
        self._ttfts: List[float] = []
        self._ttfts_sorted = True

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_request(self, request: Request) -> RequestRecord:
        record = RequestRecord.from_request(request)
        self.records.append(record)
        if record.finished:
            self._finished += 1
        if record.ttft is not None:
            self._ttfts.append(float(record.ttft))
            self._ttfts_sorted = False
        return record

    def record_iteration(self, end_time: float, new_tokens: int, bubble_fraction: float) -> None:
        """A pipelined pass ending at ``end_time`` with ``new_tokens``.

        A single-stage pass has no bubble: its group adds its tokens to
        ``throughput`` directly.
        """
        self.bubble_fractions.append(bubble_fraction)
        self.throughput.add(end_time, float(new_tokens))

    def sample_memory(
        self, time: float, *, used_bytes: float, capacity_bytes: float, demand_bytes: float
    ) -> None:
        self.memory_used.add(time, used_bytes)
        self.memory_capacity.add(time, capacity_bytes)
        self.memory_demand.add(time, demand_bytes)

    def mark_event(self, time: float, kind: str, **details: object) -> None:
        self.events.append({"time": time, "kind": kind, **details})

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def ttft_values(self, slo_class: Optional[str] = None) -> List[float]:
        return [
            r.ttft
            for r in self.records
            if r.ttft is not None and (slo_class is None or r.slo_class == slo_class)
        ]

    def tpot_values(self, slo_class: Optional[str] = None) -> List[float]:
        """Per-request mean TPOT values (the granularity the paper reports)."""
        return [
            r.mean_tpot
            for r in self.records
            if r.mean_tpot is not None and (slo_class is None or r.slo_class == slo_class)
        ]

    def ttft_percentile(self, p: float) -> float:
        """Equal to ``percentile(self.ttft_values(), p)``, from the running
        TTFT list."""
        if not self._ttfts_sorted:
            self._ttfts.sort()
            self._ttfts_sorted = True
        return sorted_percentile(self._ttfts, p)

    def tpot_percentile(self, p: float) -> float:
        return percentile(self.tpot_values(), p)

    def mean_ttft_timeline(self, window_s: float = 5.0) -> List[TimelinePoint]:
        """Mean TTFT of requests bucketed by their arrival time (Figure 12)."""
        series = TimelineSeries(window_s, mode="mean")
        for record in self.records:
            if record.ttft is not None:
                series.add(record.arrival_time, record.ttft)
        return series.points()

    def total_output_tokens(self) -> int:
        return sum(r.output_tokens for r in self.records)

    def finished_count(self) -> int:
        return self._finished

    def mean_bubble_fraction(self) -> float:
        if not self.bubble_fractions:
            return 0.0
        return float(np.mean(self.bubble_fractions))

    def summary(self) -> Dict[str, float]:
        """Headline numbers used by tests and report printing."""
        return {
            "requests": float(len(self.records)),
            "finished": float(self.finished_count()),
            "ttft_p50": self.ttft_percentile(50),
            "ttft_p90": self.ttft_percentile(90),
            "ttft_p99": self.ttft_percentile(99),
            "ttft_p999": self.ttft_percentile(99.9),
            "tpot_p50": self.tpot_percentile(50),
            "tpot_p90": self.tpot_percentile(90),
            "tpot_p99": self.tpot_percentile(99),
            "tpot_p999": self.tpot_percentile(99.9),
            "throughput_tokens_per_s": self.throughput.mean() / TIMELINE_WINDOW_S,
            "mean_bubble_fraction": self.mean_bubble_fraction(),
        }
