"""Multicluster-tier configuration: fleet-of-fleets sharding knobs.

These dataclasses are deliberately import-light (stdlib plus the equally
light :mod:`repro.fleet.config`) so they can be embedded in
:class:`repro.serving.config.ServingConfig` and shipped to sweep worker
processes without dragging the serving stack along.

A :class:`MultiClusterConfig` describes the tier that sits *above* the
per-cluster fleet layer: how many :class:`~repro.cluster.cluster.Cluster`
shards exist, which global router distributes arrivals across them
(:mod:`repro.multicluster.routing`), which placement policy decides the
cluster that absorbs an autoscaler scale-up
(:mod:`repro.multicluster.placement`), each shard's admission control and
what happens to sessions whose home cluster is down.  The shards' fleet
router and autoscaler preset and the WAN link are constants of
:mod:`repro.multicluster.system`; the tier ticks with the fleet
controller (:data:`repro.fleet.controller.TICK_INTERVAL_S`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.fleet.config import AdmissionConfig

#: Session-migration policies for sessions whose home cluster is down.
SESSION_MIGRATION_POLICIES: Tuple[str, ...] = ("sticky", "migrate")


def list_session_migrations() -> List[str]:
    """Known session-migration policy names."""
    return list(SESSION_MIGRATION_POLICIES)


@dataclass(frozen=True)
class MultiClusterConfig:
    """The fleet-of-fleets tier: sharding, global routing, placement.

    Attributes:
        num_clusters: number of cluster shards; each is a full
            :class:`~repro.serving.system.ClusterServingSystem` (own
            ``FleetController``, admission queue and autoscaler) built from
            the embedding ``ServingConfig``'s cluster spec.
        global_router: global router strategy name
            (:func:`repro.multicluster.routing.list_global_routers`).
        placement: placement policy name deciding which cluster absorbs a
            scale-up when the pressured cluster has no local spare capacity
            (:func:`repro.multicluster.placement.list_placements`).
        admission: per-cluster admission-control parameters.
        session_migration: what happens to sessions whose home cluster is
            down (see :mod:`repro.chaos`).  ``"sticky"`` keeps the dead
            home: every affected arrival is rerouted to an alive sibling
            and pays a full WAN context transfer each turn (repeated WAN
            hops), and requests displaced by the outage are lost.
            ``"migrate"`` adopts the session onto an alive sibling: the
            first affected request moves the session context over the
            ``CrossClusterLink`` once and later turns are served locally
            (amortised KV move); displaced requests are re-homed the same
            way instead of being lost.
    """

    num_clusters: int = 2
    global_router: str = "least_loaded_cluster"
    placement: str = "spare_capacity_first"
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    session_migration: str = "sticky"

    def __post_init__(self) -> None:
        if self.num_clusters < 1:
            raise ValueError("num_clusters must be >= 1")
        if not self.global_router:
            raise ValueError("global_router must be non-empty")
        if not self.placement:
            raise ValueError("placement must be non-empty")
        if self.session_migration not in SESSION_MIGRATION_POLICIES:
            known = ", ".join(SESSION_MIGRATION_POLICIES)
            raise ValueError(
                f"unknown session_migration {self.session_migration!r}; known: {known}"
            )


__all__: Tuple[str, ...] = (
    "MultiClusterConfig",
    "SESSION_MIGRATION_POLICIES",
    "list_session_migrations",
)
