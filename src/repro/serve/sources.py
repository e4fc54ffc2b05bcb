"""Arrival sources for the online gateway.

An arrival source is any iterator (or iterable) of
:class:`~repro.workloads.trace.TracedRequest` in non-decreasing
``arrival_time`` order.  The gateway pulls it **lazily** — one element of
lookahead — so a source may be a live generator whose later elements do
not exist yet when the simulation starts.  The serve grid replays a
materialised workload through :func:`workload_arrivals` (the open-loop
baseline, fed online instead of pre-scheduled).
"""

from __future__ import annotations

from typing import Iterator

from repro.workloads.trace import TracedRequest, Workload


def workload_arrivals(workload: Workload) -> Iterator[TracedRequest]:
    """Replay a workload's requests as an arrival stream (already sorted)."""
    return iter(workload.requests)
