"""Deterministic fault injection for multicluster runs.

:class:`ChaosInjector` arms a :class:`~repro.chaos.config.FaultSchedule`
on a :class:`~repro.multicluster.system.MultiClusterSystem`'s shared event
loop: every event becomes an ordinary scheduled callback, so faults fire
at exact simulation times interleaved deterministically with arrivals,
monitor ticks and WAN transfers.  Injection never consumes randomness —
a sampled schedule is materialised *before* the run (see
:func:`repro.chaos.config.sampled_kill_schedule`), which keeps the run a
pure function of ``(config, workload, seed)`` and makes chaos results
cacheable by the sweep engine.

Event dispatch:

* ``instance_kill`` → :meth:`MultiClusterSystem.fail_cluster_instance`
  (in-shard recovery via the fault-tolerance manager);
* ``cluster_outage`` → :meth:`MultiClusterSystem.fail_cluster` (the shard
  dies; the session-migration policy decides the displaced requests'
  fate);
* ``wan_degrade`` → :meth:`MultiClusterSystem.degrade_wan`, with a
  matching restore scheduled at ``at_s + duration_s`` when the event has
  a finite duration.

Targets are validated eagerly at :meth:`arm` time so a schedule that
names a nonexistent cluster or instance fails before the run starts, not
halfway through it.
"""

from __future__ import annotations

from repro.chaos.config import FaultEvent, FaultSchedule


class ChaosInjector:
    """Arms a fault schedule on a multicluster system's event loop."""

    def __init__(self, system, schedule: FaultSchedule) -> None:
        self.system = system
        self.schedule = schedule

    def arm(self, horizon: float) -> None:
        """Schedule every in-horizon event of the schedule on the loop."""
        for event in self.schedule.events:
            self._validate(event)
        loop = self.system.loop
        for event in self.schedule.events:
            if event.at_s >= horizon:
                continue
            loop.schedule_at(
                event.at_s,
                lambda e=event: self._fire(e),
                name=f"chaos-{event.kind}",
            )
            if event.kind == "wan_degrade" and event.duration_s > 0:
                end = event.at_s + event.duration_s
                if end < horizon:
                    loop.schedule_at(
                        end,
                        lambda: self.system.restore_wan(),
                        name="chaos-wan-restore",
                    )

    def _validate(self, event: FaultEvent) -> None:
        num_clusters = len(self.system.handles)
        if event.kind in ("instance_kill", "cluster_outage"):
            if event.cluster >= num_clusters:
                raise ValueError(
                    f"fault targets cluster {event.cluster}, but the tier "
                    f"has {num_clusters}"
                )
        if event.kind == "instance_kill":
            instances = self.system.handles[event.cluster].system.instances
            if event.instance >= len(instances):
                raise ValueError(
                    f"fault targets instance {event.instance} of cluster "
                    f"{event.cluster}, which has {len(instances)}"
                )

    def _fire(self, event: FaultEvent) -> None:
        if event.kind == "instance_kill":
            self.system.fail_cluster_instance(event.cluster, event.instance)
        elif event.kind == "cluster_outage":
            self.system.fail_cluster(event.cluster)
        elif event.kind == "wan_degrade":
            self.system.degrade_wan(event.bandwidth_factor, event.latency_factor)
        else:  # pragma: no cover - FaultEvent validates kinds
            raise ValueError(f"unknown fault kind {event.kind!r}")
