"""Fleet controller: composes router, admission control and autoscaler.

One controller per :class:`~repro.serving.system.ClusterServingSystem`
(built when ``ServingConfig.fleet`` is set).  It owns the fleet-level
decision tick — a :class:`~repro.simulation.process.PeriodicProcess` on
the system's deterministic event loop — and is the single entry point the
serving system calls on request arrival, so routing, admission and
elasticity all observe a consistent view of the fleet.

The controller (not the raw group list) defines what is *routable*: a
group the autoscaler is draining stays active (it must finish its running
requests) but no longer receives new work.
"""

from __future__ import annotations

from typing import Dict, List, TYPE_CHECKING

from repro.engine.group import ServingGroup
from repro.engine.request import Request
from repro.fleet.admission import AdmissionController
from repro.fleet.autoscaler import RESERVE_INSTANCES, Autoscaler
from repro.fleet.config import AUTOSCALER_PRESETS, FleetConfig
from repro.fleet.routing import make_router
from repro.simulation.process import PeriodicProcess

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.system import ClusterServingSystem

#: Period of the fleet controller's decision tick (admission drain and
#: autoscaler), and of the multicluster tier's placement tick.
TICK_INTERVAL_S = 1.0


class FleetController:
    """Routes, admits and autoscales on behalf of one serving system."""

    def __init__(self, config: FleetConfig, system: "ClusterServingSystem") -> None:
        self.config = config
        self.system = system
        self.router = make_router(config.router, seed=system.config.seed)
        self.admission = AdmissionController(
            config.admission, self.router, groups_provider=self.routable_groups
        )
        self.autoscaler = Autoscaler(AUTOSCALER_PRESETS[config.autoscaler], self)
        self._process = PeriodicProcess(
            system.loop, TICK_INTERVAL_S, self._tick, name="fleet-controller"
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._process.start()

    def stop(self) -> None:
        self._process.stop()

    def reserve_instances(self, num_instances: int) -> int:
        """How many instances to hold back as spare (≥1 must keep serving)."""
        if not self.autoscaler.enabled:
            return 0
        return min(RESERVE_INSTANCES, num_instances - 1)

    def on_group_created(self, group: ServingGroup) -> None:
        """Hook from the serving system: every new group drains the queue.

        Subscribing to the iteration loop keeps admission responsive —
        capacity typically frees when an iteration completes, not on the
        coarser controller tick.
        """
        group.iteration_listeners.append(self._on_group_iteration)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def submit(self, request: Request) -> str:
        """Admit an arriving request; returns the admission outcome."""
        return self.admission.submit(request, self.system.loop.now)

    def routable_groups(self) -> List[ServingGroup]:
        """Active groups currently receiving new work (draining excluded)."""
        return [
            g
            for g in self.system.groups
            if g.active and not self.autoscaler.is_draining(g)
        ]

    # ------------------------------------------------------------------
    # Load view
    # ------------------------------------------------------------------
    # The single definition of cluster load, shared by the autoscaler's
    # triggers and the multicluster tier's routing/placement handles — so
    # local and cross-cluster decisions can never disagree about pressure.
    def backlog(self) -> int:
        """Queued admissions plus every routable group's scheduler backlog."""
        return self.admission.queued + sum(
            g.scheduler.num_waiting for g in self.routable_groups()
        )

    def kv_ratio(self) -> float:
        """Cluster KV demand / capacity over the routable groups."""
        groups = self.routable_groups()
        capacity = sum(g.kv_capacity_bytes() for g in groups)
        demand = sum(g.kv_demand_bytes() for g in groups)
        return demand / capacity if capacity > 0 else float("inf")

    # ------------------------------------------------------------------
    # Ticking
    # ------------------------------------------------------------------
    def _tick(self, now: float) -> None:
        self.admission.drain(now)
        self.autoscaler.tick(now)

    def _on_group_iteration(self, group: ServingGroup, batch, end_time: float) -> None:
        if self.admission.queued:
            self.admission.drain(end_time)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Counters for the ``FLEET_results.json`` entry of this run."""
        return {
            "admitted": float(self.admission.admitted),
            "shed": float(self.admission.shed),
            "queue_peak": float(self.admission.queue_peak),
            "scale_up_events": float(self.autoscaler.scale_up_events),
            "scale_down_events": float(self.autoscaler.scale_down_events),
            "spare_instances": float(len(self.autoscaler.spare_instances)),
            "final_groups": float(len(self.routable_groups())),
        }
