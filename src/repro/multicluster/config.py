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
(:mod:`repro.multicluster.placement`), and the WAN link parameters of the
inter-cluster fabric (:class:`repro.cluster.network.InterClusterLinkSpec`
is built from the plain floats kept here).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.fleet.config import AdmissionConfig

#: Session-migration policies for sessions whose home cluster is down.
SESSION_MIGRATION_POLICIES: Tuple[str, ...] = ("sticky", "migrate")


def list_session_migrations() -> List[str]:
    """Known session-migration policy names."""
    return list(SESSION_MIGRATION_POLICIES)


@dataclass(frozen=True)
class MultiClusterConfig:
    """The fleet-of-fleets tier: sharding, global routing, placement, WAN.

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
        cluster_router: intra-cluster fleet router used inside every shard
            (:func:`repro.fleet.routing.list_routers`).
        cluster_autoscaler: autoscaler preset applied to every shard
            (:func:`repro.fleet.config.list_autoscaler_presets`).
        admission: per-cluster admission-control parameters.
        wan_bandwidth: per-cluster unidirectional WAN uplink, bytes/s.
            The 10 Gbps default sits two orders of magnitude below the
            intra-cluster RDMA NICs, as real geo-sharded deployments do.
        wan_latency_s: one-way propagation delay of every WAN transfer.
        spill_queue_depth: per-group backlog at which the ``spillover``
            global router considers the home cluster overloaded.
        tick_interval_s: period of the multicluster controller's decision
            tick (placement runs on it); also used for the per-cluster
            fleet ticks so the tiers observe a consistent cadence.
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
    cluster_router: str = "least_loaded"
    cluster_autoscaler: str = "elastic"
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    wan_bandwidth: float = 10e9 / 8
    wan_latency_s: float = 0.030
    spill_queue_depth: int = 8
    tick_interval_s: float = 1.0
    session_migration: str = "sticky"

    def __post_init__(self) -> None:
        if self.num_clusters < 1:
            raise ValueError("num_clusters must be >= 1")
        if not self.global_router:
            raise ValueError("global_router must be non-empty")
        if not self.placement:
            raise ValueError("placement must be non-empty")
        if self.wan_bandwidth <= 0:
            raise ValueError("wan_bandwidth must be positive")
        if self.wan_latency_s < 0:
            raise ValueError("wan_latency_s must be >= 0")
        if self.spill_queue_depth < 1:
            raise ValueError("spill_queue_depth must be >= 1")
        if self.tick_interval_s <= 0:
            raise ValueError("tick_interval_s must be positive")
        if self.session_migration not in SESSION_MIGRATION_POLICIES:
            known = ", ".join(SESSION_MIGRATION_POLICIES)
            raise ValueError(
                f"unknown session_migration {self.session_migration!r}; known: {known}"
            )


def make_multicluster_config(
    num_clusters: int = 2,
    global_router: str = "least_loaded_cluster",
    placement: str = "spare_capacity_first",
    *,
    cluster_router: str = "least_loaded",
    cluster_autoscaler: str = "elastic",
    admission: Optional[AdmissionConfig] = None,
    wan_bandwidth: float = 10e9 / 8,
    wan_latency_s: float = 0.030,
    spill_queue_depth: int = 8,
    tick_interval_s: float = 1.0,
    session_migration: str = "sticky",
) -> MultiClusterConfig:
    """Build a :class:`MultiClusterConfig`, failing fast on unknown names."""
    # Local imports: this module stays import-light for the sweep workers,
    # but router / placement / preset typos should fail at configure time.
    from repro.fleet.config import list_autoscaler_presets
    from repro.fleet.routing import list_routers
    from repro.multicluster.placement import list_placements
    from repro.multicluster.routing import list_global_routers

    if global_router not in list_global_routers():
        known = ", ".join(list_global_routers())
        raise KeyError(f"unknown global router {global_router!r}; known: {known}")
    if placement not in list_placements():
        known = ", ".join(list_placements())
        raise KeyError(f"unknown placement policy {placement!r}; known: {known}")
    if cluster_router not in list_routers():
        known = ", ".join(list_routers())
        raise KeyError(f"unknown cluster router {cluster_router!r}; known: {known}")
    if cluster_autoscaler not in list_autoscaler_presets():
        known = ", ".join(list_autoscaler_presets())
        raise KeyError(f"unknown autoscaler preset {cluster_autoscaler!r}; known: {known}")
    return MultiClusterConfig(
        num_clusters=num_clusters,
        global_router=global_router,
        placement=placement,
        cluster_router=cluster_router,
        cluster_autoscaler=cluster_autoscaler,
        admission=admission if admission is not None else AdmissionConfig(),
        wan_bandwidth=wan_bandwidth,
        wan_latency_s=wan_latency_s,
        spill_queue_depth=spill_queue_depth,
        tick_interval_s=tick_interval_s,
        session_migration=session_migration,
    )


def multicluster_preset(name: str) -> MultiClusterConfig:
    """Resolve a compact ``"N/router/placement"`` preset string.

    Segments may be omitted from the right: ``"2"`` means two clusters with
    the default router and placement, ``"2/locality_affinity"`` names the
    router too, ``"3/spillover/cost_weighted"`` names all three.  A leading
    non-numeric segment is treated as the router (two clusters implied), so
    ``"locality_affinity"`` works as well.  This is the format
    ``repro.scenarios``' ``--multicluster`` axis accepts.
    """
    parts: List[str] = [part for part in name.split("/") if part]
    if not parts:
        raise KeyError("empty multicluster preset")
    kwargs = {}
    if parts[0].isdigit():
        kwargs["num_clusters"] = int(parts[0])
        parts = parts[1:]
    if parts:
        kwargs["global_router"] = parts[0]
        parts = parts[1:]
    if parts:
        kwargs["placement"] = parts[0]
        parts = parts[1:]
    if parts:
        raise KeyError(
            f"malformed multicluster preset {name!r}; expected 'N/router/placement'"
        )
    return make_multicluster_config(**kwargs)


__all__: Tuple[str, ...] = (
    "MultiClusterConfig",
    "SESSION_MIGRATION_POLICIES",
    "list_session_migrations",
    "make_multicluster_config",
    "multicluster_preset",
)
