"""Global monitor: periodic load collection and overload detection.

Every :data:`MONITOR_INTERVAL_S` (1 s of simulated time) the monitor
samples every active group's memory usage, demand (in-processing +
head-of-line queued requests) and queue lengths, records the memory
figures into the metrics timelines, and hands the snapshot to the
configured overload policy (which may drop parameters, migrate requests,
or do nothing).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.engine.group import ServingGroup
from repro.engine.metrics import MetricsCollector
from repro.simulation.event_loop import EventLoop
from repro.simulation.process import PeriodicProcess

#: Signature of the policy callback: (snapshots, now) -> None.
MonitorCallback = Callable[[List[Dict[str, float]], float], None]

#: Seconds of simulated time between two monitor ticks; also the default
#: sampling period of a system's live metrics stream.
MONITOR_INTERVAL_S = 1.0


class GlobalMonitor:
    """Collects usage information and triggers the overload policy."""

    def __init__(
        self,
        loop: EventLoop,
        metrics: MetricsCollector,
        group_provider: Callable[[], List[ServingGroup]],
        *,
        callback: Optional[MonitorCallback] = None,
    ) -> None:
        self.loop = loop
        self.metrics = metrics
        self._group_provider = group_provider
        self.callback = callback
        self._process = PeriodicProcess(
            loop, MONITOR_INTERVAL_S, self._tick, name="global-monitor"
        )

    def start(self) -> None:
        self._process.start(initial_delay=MONITOR_INTERVAL_S)

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
        self.metrics.sample_memory(
            now, used_bytes=used, capacity_bytes=capacity, demand_bytes=demand
        )
        if self.callback is not None:
            self.callback(snapshots, now)
