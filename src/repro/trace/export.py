"""Span export: Chrome trace-event JSON.

Chrome export targets the trace-event format that Perfetto and
``chrome://tracing`` load: a ``{"traceEvents": [...]}`` object of complete
events (``"ph": "X"``, microsecond ``ts``/``dur``) plus ``"M"`` metadata
events naming the tracks.  Request-scoped spans (roots, stages, retry /
route details) land in a ``requests`` process with one thread per request,
so each request renders as a lane showing its stage decomposition; engine
spans land in one process per cluster with one thread per group
("instances as tracks"), and fabric transfers in a ``network`` process
with one thread per link.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Tuple, Union

from repro.trace.spans import REQUEST_TRACK, Span, span_sort_key

_PathLike = Union[str, Path]


def _track_process(span: Span) -> Tuple[str, str]:
    """Map a span to its ``(process, thread)`` display pair."""
    if span.track == REQUEST_TRACK or (
        span.kind in ("root", "stage") and span.request_id >= 0
    ):
        return REQUEST_TRACK, f"request {span.request_id}"
    if "/" in span.track:
        process, thread = span.track.split("/", 1)
        return process, thread
    return "engine", span.track


def chrome_trace(spans: Iterable[Span]) -> Dict:
    """Fold spans into a Chrome trace-event document (JSON-able dict)."""
    ordered = sorted((s for s in spans if s.closed), key=span_sort_key)
    processes: Dict[str, int] = {}
    threads: Dict[Tuple[str, str], int] = {}
    pairs = [_track_process(span) for span in ordered]
    for process, thread in pairs:
        if process not in processes:
            processes[process] = len(processes) + 1
        key = (process, thread)
        if key not in threads:
            threads[key] = sum(1 for p, _ in threads if p == process) + 1
    events: List[Dict] = []
    for process, pid in sorted(processes.items(), key=lambda item: item[1]):
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": process},
            }
        )
    for (process, thread), tid in sorted(threads.items(), key=lambda item: item[1]):
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": processes[process],
                "tid": tid,
                "args": {"name": thread},
            }
        )
    for span, (process, thread) in zip(ordered, pairs):
        args = {key: value for key, value in span.meta.items()}
        if span.request_id >= 0:
            args.setdefault("request_id", span.request_id)
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": span.kind,
                "ts": round(span.start_s * 1e6, 3),
                "dur": round((span.end_s - span.start_s) * 1e6, 3),
                "pid": processes[process],
                "tid": threads[(process, thread)],
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans: Iterable[Span], path: _PathLike) -> Path:
    """Write a Perfetto/``chrome://tracing``-loadable trace file."""
    target = Path(path)
    document = chrome_trace(spans)
    target.write_text(json.dumps(document, sort_keys=True) + "\n")
    return target


def validate_chrome_trace(document: Dict) -> List[str]:
    """Schema-check a Chrome trace document; returns problems (empty = valid)."""
    problems: List[str] = []
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {index} is not an object")
            continue
        phase = event.get("ph")
        if phase not in ("X", "M"):
            problems.append(f"event {index} has unsupported phase {phase!r}")
            continue
        for key in ("name", "pid", "tid"):
            if key not in event:
                problems.append(f"event {index} missing {key!r}")
        if phase == "X":
            for key in ("ts", "dur"):
                value = event.get(key)
                if not isinstance(value, (int, float)):
                    problems.append(f"event {index} {key} must be a number")
                elif key == "dur" and value < 0:
                    problems.append(f"event {index} has negative duration")
    return problems
