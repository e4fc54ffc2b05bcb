"""Global monitor: periodic load collection and overload detection.

Every ``interval`` seconds the monitor samples every active group's memory
usage, demand (in-processing + head-of-line queued requests) and queue
lengths, records them into the metrics timelines, and hands the snapshot to
the configured overload policy (which may drop parameters, migrate
requests, or do nothing).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.engine.group import ServingGroup
from repro.engine.metrics import MetricsCollector
from repro.simulation.event_loop import EventLoop
from repro.simulation.process import PeriodicProcess

#: Signature of the policy callback: (snapshots, now) -> None.
MonitorCallback = Callable[[List[Dict[str, float]], float], None]


class GlobalMonitor:
    """Collects usage information and triggers the overload policy."""

    def __init__(
        self,
        loop: EventLoop,
        metrics: MetricsCollector,
        group_provider: Callable[[], List[ServingGroup]],
        *,
        interval_s: float = 1.0,
        callback: Optional[MonitorCallback] = None,
    ) -> None:
        self.loop = loop
        self.metrics = metrics
        self._group_provider = group_provider
        self.interval_s = interval_s
        self.callback = callback
        self._process = PeriodicProcess(loop, interval_s, self._tick, name="global-monitor")
        self.overload_events = 0

    def start(self) -> None:
        self._process.start(initial_delay=self.interval_s)

    def stop(self) -> None:
        self._process.stop()

    def snapshot(self) -> List[Dict[str, float]]:
        """Current per-group load snapshot."""
        return [group.load_snapshot() for group in self._group_provider() if group.active]

    def _tick(self, now: float) -> None:
        snapshots = self.snapshot()
        used = sum(s["kv_used_bytes"] for s in snapshots)
        demand = sum(s["kv_demand_bytes"] for s in snapshots)
        capacity = sum(s["kv_capacity_bytes"] for s in snapshots)
        queued = sum(int(s["num_waiting"]) for s in snapshots)
        self.metrics.sample_memory(
            now, used_bytes=used, capacity_bytes=capacity, demand_bytes=demand
        )
        self.metrics.sample_queue(now, queued)
        if capacity > 0 and demand > capacity:
            self.overload_events += 1
        if self.callback is not None:
            self.callback(snapshots, now)
