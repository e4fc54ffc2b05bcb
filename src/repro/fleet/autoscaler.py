"""Autoscaler: grow and drain serving groups from spare cluster capacity.

The serving system holds back ``reserve_instances`` of the cluster's
instances as *spare capacity*: they exist (GPUs are provisioned) but hold
no model weights and serve nothing.  On a scale-up trigger the autoscaler
takes a spare, waits ``cold_start_s`` simulated seconds (weight loading —
elasticity is not free), then loads the full model onto it and creates a
fresh single-instance serving group that immediately joins the routable
set.  On sustained calm it *drains* the youngest single-instance group:
routing stops, queued requests are re-homed through the router, and once
the last running request finishes the group retires and its instance
returns to the spare pool.

Triggers are OR-ed and evaluated on the fleet controller's tick, entirely
inside the deterministic event loop:

* queue depth — (admission queue + group backlogs) per active group;
* memory pressure — cluster KV demand / capacity;
* tail latency — TTFT P99 over a sliding window of recent finishes.

Scale-down only touches single-instance groups, so groups a policy merged
into pipelines (KunServe drops) are never torn down underneath it.
"""

from __future__ import annotations

from typing import Callable, Deque, List, Optional, TYPE_CHECKING

from collections import deque

from repro.engine.group import ServingGroup
from repro.engine.instance import ServingInstance
from repro.engine.metrics import percentile
from repro.fleet.config import AutoscalerConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fleet.controller import FleetController


class Autoscaler:
    """Adds/drains serving groups on queue, latency and memory triggers."""

    def __init__(self, config: AutoscalerConfig, controller: "FleetController") -> None:
        self.config = config
        self.controller = controller
        self.spare_instances: List[ServingInstance] = []
        self.draining: List[ServingGroup] = []
        self._pending_scale_ups = 0
        self._last_action_time = float("-inf")
        self._calm_ticks = 0
        #: (finish_time, ttft) of recent finishes for the TTFT P99 trigger.
        self._recent_ttfts: Deque[tuple] = deque()
        self._record_cursor = 0

        self.scale_up_events = 0
        self.scale_down_events = 0

    # ------------------------------------------------------------------
    # Capacity bookkeeping
    # ------------------------------------------------------------------
    def adopt_spares(self, instances: List[ServingInstance]) -> None:
        """Take ownership of the instances held back as spare capacity."""
        self.spare_instances.extend(instances)

    def is_draining(self, group: ServingGroup) -> bool:
        return group in self.draining

    @property
    def has_spare(self) -> bool:
        """Whether any cold instance is available to activate."""
        return bool(self.spare_instances)

    # ------------------------------------------------------------------
    # Tick
    # ------------------------------------------------------------------
    def tick(self, now: float) -> None:
        if not self.config.enabled:
            return
        self._finish_drains()
        inputs = self._pressure_inputs(now)
        if inputs is None:
            return
        num_groups, backlog, memory_ratio, ttft_p99 = inputs

        if self._should_scale_up(num_groups, backlog, memory_ratio, ttft_p99):
            if self._cooldown_passed(now):
                self._scale_up(now)
            return

        calm = (
            backlog == 0
            and memory_ratio <= self.config.scale_down_memory_ratio
        )
        self._calm_ticks = self._calm_ticks + 1 if calm else 0
        if (
            self._calm_ticks >= self.config.scale_down_idle_ticks
            and self._cooldown_passed(now)
        ):
            self._scale_down(now)

    # ------------------------------------------------------------------
    # Scale up
    # ------------------------------------------------------------------
    def _pressure_inputs(self, now: float):
        """The trigger inputs ``(num_groups, backlog, memory_ratio,
        ttft_p99)`` over the routable groups, or ``None`` with none.

        The single definition of "pressure" shared by the local tick and
        the multicluster placement tier (:meth:`wants_capacity`), so the
        two can never disagree about when a cluster is overloaded.
        """
        groups = self.controller.routable_groups()
        if not groups:
            return None
        backlog = self.controller.backlog()
        memory_ratio = self.controller.kv_ratio()
        ttft_p99 = self._ttft_p99(now, self.controller.system.metrics.records)
        return len(groups), backlog, memory_ratio, ttft_p99

    def _triggered(
        self, num_groups: int, backlog: int, memory_ratio: float, ttft_p99: Optional[float]
    ) -> bool:
        """Whether any scale-up trigger currently holds (triggers only)."""
        if backlog >= self.config.scale_up_queue_depth * num_groups:
            return True
        if memory_ratio >= self.config.scale_up_memory_ratio:
            return True
        if (
            self.config.scale_up_ttft_p99_s is not None
            and ttft_p99 is not None
            and ttft_p99 > self.config.scale_up_ttft_p99_s
        ):
            return True
        return False

    def _should_scale_up(
        self, num_groups: int, backlog: int, memory_ratio: float, ttft_p99: Optional[float]
    ) -> bool:
        if not self.spare_instances:
            return False
        target = num_groups + self._pending_scale_ups
        if self.config.max_groups is not None and target >= self.config.max_groups:
            return False
        return self._triggered(num_groups, backlog, memory_ratio, ttft_p99)

    def wants_capacity(self, now: float) -> bool:
        """Whether a scale-up trigger holds, spare availability aside.

        The multicluster placement tier polls this on clusters that have
        exhausted their local spares: a ``True`` here with ``has_spare``
        ``False`` is exactly the situation where a sibling cluster should
        absorb the scale-up.
        """
        if not self.config.enabled:
            return False
        inputs = self._pressure_inputs(now)
        if inputs is None:
            return False
        return self._triggered(*inputs)

    def force_scale_up(self, now: float) -> bool:
        """Externally-directed scale-up (the multicluster placement tier).

        Activates one spare regardless of this cluster's own triggers —
        the *caller* observed the pressure, possibly on a sibling cluster.
        Still respects the spare pool, ``max_groups`` and the cooldown, so
        placement cannot thrash a cluster faster than its own autoscaler
        could.  Returns whether a scale-up was started.
        """
        if not self.config.enabled or not self.spare_instances:
            return False
        target = len(self.controller.routable_groups()) + self._pending_scale_ups
        if self.config.max_groups is not None and target >= self.config.max_groups:
            return False
        if not self._cooldown_passed(now):
            return False
        self._scale_up(now)
        return True

    def _scale_up(self, now: float) -> None:
        instance = self.spare_instances.pop(0)
        self._pending_scale_ups += 1
        self._last_action_time = now
        self.scale_up_events += 1
        self._calm_ticks = 0
        system = self.controller.system
        system.metrics.mark_event(
            now, "fleet-scale-up", instance_id=instance.instance_id,
            cold_start_s=self.config.cold_start_s,
        )
        system.loop.schedule(
            self.config.cold_start_s,
            lambda: self._activate(instance),
            name="fleet-cold-start",
        )

    def _activate(self, instance: ServingInstance) -> None:
        """Cold start finished: load weights, join the fleet, absorb queue."""
        self._pending_scale_ups -= 1
        system = self.controller.system
        if instance.num_resident_layers < system.model.num_layers:
            instance.load_full_model()
        group = system.create_group([instance])
        system.metrics.mark_event(
            system.loop.now, "fleet-group-up",
            group_id=group.group_id, instance_id=instance.instance_id,
        )
        self.controller.admission.drain(system.loop.now)

    # ------------------------------------------------------------------
    # Scale down
    # ------------------------------------------------------------------
    def _scale_down(self, now: float) -> None:
        groups = self.controller.routable_groups()
        floor = max(self.config.min_groups, 1)
        if len(groups) <= floor:
            return
        candidates = [g for g in groups if len(g.instances) == 1]
        if not candidates:
            return
        victim = max(candidates, key=lambda g: g.group_id)
        self.draining.append(victim)
        self._last_action_time = now
        self.scale_down_events += 1
        self._calm_ticks = 0
        system = self.controller.system
        system.metrics.mark_event(now, "fleet-drain-start", group_id=victim.group_id)
        self._rehome_waiting(victim)
        self._finish_drains()

    def _rehome_waiting(self, group: ServingGroup) -> None:
        """Move a draining group's queued requests to the rest of the fleet."""
        admission = self.controller.admission
        scheduler = group.scheduler
        while scheduler.waiting:
            admission.readmit(scheduler.pop_waiting())

    def _finish_drains(self) -> None:
        """Retire draining groups whose last request has finished."""
        system = self.controller.system
        still_draining: List[ServingGroup] = []
        for group in self.draining:
            scheduler = group.scheduler
            busy = scheduler.num_running + scheduler.num_waiting + scheduler.num_swapped
            if busy == 0 and group.active:
                instance = group.instances[0]
                system.retire_group(group)
                self.spare_instances.append(instance)
                system.metrics.mark_event(
                    system.loop.now, "fleet-group-down",
                    group_id=group.group_id, instance_id=instance.instance_id,
                )
            elif group.active:
                still_draining.append(group)
        self.draining = still_draining

    # ------------------------------------------------------------------
    # Triggers
    # ------------------------------------------------------------------
    def _ttft_p99(self, now: float, records) -> Optional[float]:
        """TTFT P99 over finishes in the last ~10 ticks (sliding window)."""
        window_s = 10.0 * self.controller.config.tick_interval_s
        for record in records[self._record_cursor:]:
            if record.ttft is not None and record.finish_time is not None:
                self._recent_ttfts.append((record.finish_time, record.ttft))
        self._record_cursor = len(records)
        horizon = now - window_s
        recent = self._recent_ttfts
        while recent and recent[0][0] < horizon:
            recent.popleft()
        if len(recent) < 5:
            return None
        return percentile([ttft for _, ttft in recent], 99)

    def _cooldown_passed(self, now: float) -> bool:
        return now - self._last_action_time >= self.config.cooldown_s
