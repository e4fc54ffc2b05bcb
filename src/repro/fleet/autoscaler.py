"""Autoscaler: grow and drain serving groups from spare cluster capacity.

An elastic fleet holds back :data:`RESERVE_INSTANCES` of the cluster's
instances as *spare capacity*: they exist (GPUs are provisioned) but hold
no model weights and serve nothing.  On a scale-up trigger the autoscaler
takes a spare, waits :data:`COLD_START_S` simulated seconds (weight
loading — elasticity is not free), then loads the full model onto it and
creates a fresh single-instance serving group that immediately joins the
routable set.  On sustained calm it *drains* the youngest single-instance
group: routing stops, queued requests are re-homed through the router,
and once the last running request finishes the group retires and its
instance returns to the spare pool.

Triggers are OR-ed and evaluated on the fleet controller's tick, entirely
inside the deterministic event loop:

* queue depth — (admission queue + group backlogs) per routable group;
* memory pressure — cluster KV demand / capacity.

A fleet with no routable group left (its last one died) meets both, so
it scales up whenever it holds a spare and the cooldown has passed.
Scale-down only touches single-instance groups, so groups a policy merged
into pipelines (KunServe drops) are never torn down underneath it.
"""

from __future__ import annotations

from typing import List, TYPE_CHECKING

from repro.engine.group import ServingGroup
from repro.engine.instance import ServingInstance

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fleet.controller import FleetController

#: Instances an elastic fleet holds back from its initial deployment as
#: spare capacity (clamped so at least one instance serves).
RESERVE_INSTANCES = 1
#: Never drain below this many routable groups.
MIN_GROUPS = 1
#: Scale up when (admission queue + group backlogs) per routable group
#: reaches this...
SCALE_UP_QUEUE_DEPTH = 8
#: ...or when cluster KV demand / capacity reaches this.
SCALE_UP_MEMORY_RATIO = 0.90
#: A tick is calm when demand / capacity is at or below this and nothing
#: is queued.
SCALE_DOWN_MEMORY_RATIO = 0.30
#: Consecutive calm ticks before a group is drained.
SCALE_DOWN_IDLE_TICKS = 4
#: Delay between a scale-up decision and the new group serving (weight
#: loading, container start).
COLD_START_S = 5.0
#: Minimum time between two scaling actions.
COOLDOWN_S = 8.0


class Autoscaler:
    """Adds/drains serving groups on queue and memory triggers.

    ``enabled`` is the preset's flag: a disabled autoscaler (the ``fixed``
    preset) never acts, and the fleet tick still runs admission control.
    """

    def __init__(self, enabled: bool, controller: "FleetController") -> None:
        self.enabled = enabled
        self.controller = controller
        self.spare_instances: List[ServingInstance] = []
        self.draining: List[ServingGroup] = []
        self._last_action_time = float("-inf")
        self._calm_ticks = 0

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
        if not self.enabled:
            return
        self._finish_drains()
        num_groups, backlog, memory_ratio = self._pressure_inputs()

        if self.spare_instances and self._triggered(num_groups, backlog, memory_ratio):
            if self._cooldown_passed(now):
                self._scale_up(now)
            return

        calm = backlog == 0 and memory_ratio <= SCALE_DOWN_MEMORY_RATIO
        self._calm_ticks = self._calm_ticks + 1 if calm else 0
        if self._calm_ticks >= SCALE_DOWN_IDLE_TICKS and self._cooldown_passed(now):
            self._scale_down(now)

    # ------------------------------------------------------------------
    # Scale up
    # ------------------------------------------------------------------
    def _pressure_inputs(self):
        """The trigger inputs ``(num_groups, backlog, memory_ratio)`` over
        the routable groups.

        The single definition of "pressure" shared by the local tick and
        the multicluster placement tier (:meth:`wants_capacity`), so the
        two can never disagree about when a cluster is overloaded.  With
        no routable group the backlog is the admission queue, the ratio of
        no capacity is infinite, and both triggers hold.
        """
        groups = self.controller.routable_groups()
        if not groups:
            return 0, self.controller.admission.queued, float("inf")
        return len(groups), self.controller.backlog(), self.controller.kv_ratio()

    @staticmethod
    def _triggered(num_groups: int, backlog: int, memory_ratio: float) -> bool:
        """Whether any scale-up trigger currently holds (triggers only)."""
        return (
            backlog >= SCALE_UP_QUEUE_DEPTH * num_groups
            or memory_ratio >= SCALE_UP_MEMORY_RATIO
        )

    def wants_capacity(self) -> bool:
        """Whether a scale-up trigger holds, spare availability aside.

        The multicluster placement tier polls this on clusters that have
        exhausted their local spares: a ``True`` here with ``has_spare``
        ``False`` is exactly the situation where a sibling cluster should
        absorb the scale-up.
        """
        return self.enabled and self._triggered(*self._pressure_inputs())

    def force_scale_up(self, now: float) -> bool:
        """Externally-directed scale-up (the multicluster placement tier).

        Activates one spare regardless of this cluster's own triggers —
        the *caller* observed the pressure, possibly on a sibling cluster.
        Still respects the spare pool and the cooldown, so placement cannot
        thrash a cluster faster than its own autoscaler could.  Returns
        whether a scale-up was started.
        """
        if not self.enabled or not self.spare_instances:
            return False
        if not self._cooldown_passed(now):
            return False
        self._scale_up(now)
        return True

    def _scale_up(self, now: float) -> None:
        instance = self.spare_instances.pop(0)
        self._last_action_time = now
        self.scale_up_events += 1
        self._calm_ticks = 0
        system = self.controller.system
        system.metrics.mark_event(
            now, "fleet-scale-up", instance_id=instance.instance_id,
            cold_start_s=COLD_START_S,
        )
        system.loop.schedule(
            COLD_START_S,
            lambda: self._activate(instance),
            name="fleet-cold-start",
        )

    def _activate(self, instance: ServingInstance) -> None:
        """Cold start finished: load weights, join the fleet, absorb queue."""
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
        if len(groups) <= MIN_GROUPS:
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

    def _cooldown_passed(self, now: float) -> bool:
        return now - self._last_action_time >= COOLDOWN_S
