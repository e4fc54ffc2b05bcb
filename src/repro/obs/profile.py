"""Per-task resource profiler and cache-wide cost roll-up.

Every :class:`~repro.sweeps.task.SweepTask` execution is wrapped in a
:class:`TaskProfiler` by :func:`repro.sweeps.executor.execute_task`,
which attaches the measurement as a ``profile`` block on the runner's
payload — part of the cached *value*, never the cache key, so existing
cache entries stay valid and documents stay bit-identical (document
assemblers select explicit fields and ignore the block)::

    "profile": {
      "wall_s": 1.82, "cpu_s": 1.79, "peak_rss_kb": 141520,
      "events": 104233, "events_per_s": 57270.9
    }

``peak_rss_kb`` is ``ru_maxrss`` — the *process* high-watermark, not a
per-task delta (the kernel offers no per-slice reset), so within one
worker process it is monotone across tasks; it answers "how much memory
did executing up to and including this cell need", which is the
capacity-planning question.  ``events`` is the
:attr:`~repro.simulation.event_loop.EventLoop.lifetime_events` delta —
the simulated events this task dispatched in this process.

``python -m repro.obs profile`` rolls the blocks up across the on-disk
result cache (``.repro_cache/``): ranks cells by wall-clock cost and
flags cache-efficiency anomalies — cells whose simulated-event
throughput falls far below their task kind's median (they pay the same
cache entry price for much less simulation), and kinds dominating total
spend.  Entries cached before the profiler existed simply lack the
block and are reported as unprofiled, never an error.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

try:  # POSIX only; Windows falls back to zero RSS rather than failing.
    import resource
except ImportError:  # pragma: no cover - non-POSIX
    resource = None  # type: ignore[assignment]

from repro.simulation.event_loop import EventLoop

#: Anomaly flag: a cell slower than this fraction of its kind's median
#: events/s is reported.
THROUGHPUT_ANOMALY_FRACTION = 0.5

#: Kinds need at least this many profiled cells before throughput
#: anomalies are meaningful (a median of one is just the cell itself).
MIN_KIND_SAMPLES = 3


def _peak_rss_kb() -> int:
    """Process peak RSS in kB (Linux ``ru_maxrss`` unit); 0 when unavailable."""
    if resource is None:  # pragma: no cover - non-POSIX
        return 0
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


class TaskProfiler:
    """Context manager measuring one runner execution.

    Wall time via ``perf_counter``, CPU time via ``process_time`` (user +
    system of this process), simulated events via the process-wide
    :class:`EventLoop` lifetime counters, and the RSS high-watermark at
    exit (see the module docstring for its semantics).
    """

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.peak_rss_kb = 0
        self.events = 0
        self.sim_s = 0.0

    def __enter__(self) -> "TaskProfiler":
        self._events_before = EventLoop.lifetime_events
        self._sim_before = EventLoop.lifetime_sim_s
        self._cpu_start = time.process_time()
        self._wall_start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.wall_s = time.perf_counter() - self._wall_start
        self.cpu_s = time.process_time() - self._cpu_start
        self.events = EventLoop.lifetime_events - self._events_before
        self.sim_s = EventLoop.lifetime_sim_s - self._sim_before
        self.peak_rss_kb = _peak_rss_kb()

    def block(self) -> Dict[str, float]:
        """The ``profile`` payload block."""
        return {
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "peak_rss_kb": self.peak_rss_kb,
            "events": self.events,
            "events_per_s": self.events / self.wall_s if self.wall_s > 0 else 0.0,
            "sim_s": self.sim_s,
        }


# ----------------------------------------------------------------------
# Cache roll-up
# ----------------------------------------------------------------------
def collect_profiles(cache_dir: Optional[Path] = None) -> List[Dict[str, Any]]:
    """Every cache entry's identity + profile block (``profile`` may be None).

    Rows are sorted by entry filename so the roll-up is deterministic for
    a given cache directory regardless of filesystem listing order.
    """
    from repro.sweeps.cache import default_cache_dir

    root = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    rows: List[Dict[str, Any]] = []
    if not root.is_dir():
        return rows
    for path in sorted(root.glob("*.json")):
        try:
            entry = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        task = entry.get("task") if isinstance(entry, dict) else None
        result = entry.get("result") if isinstance(entry, dict) else None
        if not isinstance(task, dict) or not isinstance(result, dict):
            continue
        key = task.get("key") if isinstance(task.get("key"), dict) else {}
        profile = result.get("profile")
        rows.append(
            {
                "entry": path.name,
                "kind": str(key.get("kind", "unknown")),
                "runner": str(task.get("runner", "unknown")),
                "seed": task.get("seed"),
                "profile": profile if isinstance(profile, dict) else None,
            }
        )
    return rows


def rank_cells(rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Profiled rows, costliest wall-clock first (ties by entry name)."""
    profiled = [row for row in rows if row["profile"] is not None]
    return sorted(
        profiled,
        key=lambda row: (-float(row["profile"].get("wall_s", 0.0)), row["entry"]),
    )


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def flag_anomalies(rows: List[Dict[str, Any]]) -> List[str]:
    """Cache-efficiency anomalies, as human-readable strings.

    A cell is anomalous when its events/s falls below
    :data:`THROUGHPUT_ANOMALY_FRACTION` of its kind's median with at
    least :data:`MIN_KIND_SAMPLES` profiled cells of that kind — it
    consumed far more host time per simulated event than its peers, so
    its cache entry was disproportionately expensive to earn.
    """
    by_kind: Dict[str, List[Dict[str, Any]]] = {}
    for row in rows:
        if row["profile"] is not None and row["profile"].get("events", 0) > 0:
            by_kind.setdefault(row["kind"], []).append(row)
    anomalies: List[str] = []
    for kind in sorted(by_kind):
        peers = by_kind[kind]
        if len(peers) < MIN_KIND_SAMPLES:
            continue
        median_eps = _median(
            [float(row["profile"]["events_per_s"]) for row in peers]
        )
        if median_eps <= 0:
            continue
        for row in sorted(peers, key=lambda r: r["entry"]):
            eps = float(row["profile"]["events_per_s"])
            if eps < THROUGHPUT_ANOMALY_FRACTION * median_eps:
                anomalies.append(
                    f"{kind} {row['entry']}: {eps:.0f} events/s vs kind median "
                    f"{median_eps:.0f} (<{THROUGHPUT_ANOMALY_FRACTION:.0%})"
                )
    return anomalies


def format_profile_report(
    rows: List[Dict[str, Any]], top: int = 20
) -> str:
    """The ``python -m repro.obs profile`` report."""
    profiled = rank_cells(rows)
    unprofiled = len(rows) - len(profiled)
    lines = [
        f"{len(rows)} cache entries, {len(profiled)} profiled"
        + (f" ({unprofiled} predate the profiler)" if unprofiled else ""),
    ]
    if profiled:
        total_wall = sum(float(r["profile"]["wall_s"]) for r in profiled)
        by_kind: Dict[str, float] = {}
        for row in profiled:
            by_kind[row["kind"]] = by_kind.get(row["kind"], 0.0) + float(
                row["profile"]["wall_s"]
            )
        kind_costs = ", ".join(
            f"{kind} {wall:.1f}s"
            for kind, wall in sorted(by_kind.items(), key=lambda kv: -kv[1])
        )
        lines.append(f"total compute banked: {total_wall:.1f}s ({kind_costs})")
        lines.append(
            f"{'kind':<18} {'wall_s':>8} {'cpu_s':>8} {'rss_MB':>8} "
            f"{'events':>10} {'events/s':>10}  entry"
        )
        for row in profiled[:top]:
            profile = row["profile"]
            lines.append(
                f"{row['kind']:<18} {float(profile['wall_s']):>8.2f} "
                f"{float(profile.get('cpu_s', 0.0)):>8.2f} "
                f"{float(profile.get('peak_rss_kb', 0)) / 1024:>8.1f} "
                f"{int(profile.get('events', 0)):>10d} "
                f"{float(profile.get('events_per_s', 0.0)):>10.0f}  "
                f"{row['entry']}"
            )
        if len(profiled) > top:
            lines.append(f"... {len(profiled) - top} cheaper cells not shown")
    anomalies = flag_anomalies(rows)
    if anomalies:
        lines.append(f"{len(anomalies)} cache-efficiency anomalies:")
        lines.extend(f"  {a}" for a in anomalies)
    else:
        lines.append("no cache-efficiency anomalies")
    return "\n".join(lines)
