"""Arrival traces and workloads.

An :class:`ArrivalTrace` is just a sorted list of arrival timestamps; a
:class:`Workload` combines the trace with per-request prompt/output lengths
(from a dataset sampler) and can materialise engine
:class:`~repro.engine.request.Request` objects for the serving system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.engine.request import Request

#: Vectorisation cut-over: below this many timestamps the numpy round-trip
#: (asarray + tolist) costs more than the plain-python path it replaces.
_VECTORIZE_MIN = 512


@dataclass
class ArrivalTrace:
    """A sequence of request arrival times (seconds, sorted ascending)."""

    timestamps: List[float] = field(default_factory=list)
    name: str = "trace"

    def __post_init__(self) -> None:
        if len(self.timestamps) >= _VECTORIZE_MIN:
            # Bit-identical to the python path: float64 conversion and
            # ascending sort commute with tolist(), and IEEE sorting of the
            # same values yields the same order (ties are identical values).
            array = np.sort(np.asarray(self.timestamps, dtype=np.float64))
            if array.size and array[0] < 0:
                raise ValueError("arrival times must be non-negative")
            self.timestamps = array.tolist()
        else:
            self.timestamps = sorted(float(t) for t in self.timestamps)
            if any(t < 0 for t in self.timestamps):
                raise ValueError("arrival times must be non-negative")

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def duration(self) -> float:
        return self.timestamps[-1] if self.timestamps else 0.0

    @property
    def average_rate(self) -> float:
        """Mean requests/second over the trace duration.

        Degenerate traces are well-defined: an empty trace has rate 0.0,
        and a non-empty trace whose arrivals all land at t=0 (zero
        duration) counts as a one-second burst — its rate equals its
        arrival count — so rate-based rescaling never divides by zero.
        """
        if not self.timestamps:
            return 0.0
        if self.duration <= 0.0:
            return float(len(self.timestamps))
        return len(self.timestamps) / self.duration


@dataclass
class TracedRequest:
    """One request of a workload: when it arrives and how long it is.

    ``session_id`` marks the request as one turn of a multi-turn session
    (stamped by :func:`repro.scenarios.generators.stamp_sessions`); the
    fleet layer's session-affinity router keeps equal ids on the same
    serving group so KV prefix reuse is possible.  ``None`` means a
    single-shot request.
    """

    arrival_time: float
    prompt_tokens: int
    output_tokens: int
    slo_class: str = "chat"
    session_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.prompt_tokens <= 0 or self.output_tokens <= 0:
            raise ValueError("prompt and output token counts must be positive")


@dataclass
class Workload:
    """A named, fully-specified stream of requests."""

    name: str
    requests: List[TracedRequest] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.requests = sorted(self.requests, key=lambda r: r.arrival_time)

    def __len__(self) -> int:
        return len(self.requests)

    @property
    def duration(self) -> float:
        return self.requests[-1].arrival_time if self.requests else 0.0

    @property
    def total_prompt_tokens(self) -> int:
        return sum(r.prompt_tokens for r in self.requests)

    @property
    def total_output_tokens(self) -> int:
        return sum(r.output_tokens for r in self.requests)

    @property
    def mean_prompt_tokens(self) -> float:
        if not self.requests:
            return 0.0
        return self.total_prompt_tokens / len(self.requests)

    @property
    def mean_output_tokens(self) -> float:
        if not self.requests:
            return 0.0
        return self.total_output_tokens / len(self.requests)

    def to_engine_requests(self) -> List[Request]:
        """Materialise engine requests (fresh objects, safe to simulate)."""
        return [
            Request(
                arrival_time=r.arrival_time,
                prompt_tokens=r.prompt_tokens,
                max_output_tokens=r.output_tokens,
                slo_class=r.slo_class,
                session_id=r.session_id,
            )
            for r in self.requests
        ]


def merge_workloads(workloads: Sequence[Workload], name: str = "merged") -> Workload:
    """Interleave several workloads into one (used for mixed experiments)."""
    requests: List[TracedRequest] = []
    for workload in workloads:
        requests.extend(workload.requests)
    return Workload(name=name, requests=requests)
