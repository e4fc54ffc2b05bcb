"""Fleet-of-fleets tier (``python -m repro.multicluster``).

Shards the elastic fleet across several :class:`~repro.cluster.cluster.Cluster`
objects — each a complete serving system with its own
:class:`~repro.fleet.controller.FleetController` — behind a global router
with its own strategy registry (:mod:`repro.multicluster.routing`), a
placement policy deciding which cluster absorbs an autoscaler scale-up
(:mod:`repro.multicluster.placement`), and an inter-cluster WAN fabric
that makes remote routing and cross-cluster KV migration pay a modeled
cost (:mod:`repro.multicluster.fabric`, built on
:class:`repro.cluster.network.CrossClusterLink`).  The multicluster grid
(:mod:`repro.multicluster.grid`, ``python -m repro.multicluster``) replays
scenarios across cluster counts, global routers and placements and writes
``MULTICLUSTER_results.json``.

Note: :mod:`repro.multicluster.grid` and
:mod:`repro.multicluster.system` are intentionally *not* imported here —
they pull in :mod:`repro.serving`, whose config embeds
:class:`~repro.multicluster.config.MultiClusterConfig` from this package;
import them directly where needed.
"""

from repro.multicluster.config import MultiClusterConfig
from repro.multicluster.placement import (
    CostWeightedPlacement,
    PlacementPolicy,
    SpareCapacityFirstPlacement,
    list_placements,
    make_placement,
)
from repro.multicluster.routing import (
    GlobalRouter,
    LeastLoadedClusterRouter,
    LocalityAffinityRouter,
    SpilloverRouter,
    WeightedRoundRobinRouter,
    home_cluster_index,
    list_global_routers,
    make_global_router,
)

__all__ = [
    "CostWeightedPlacement",
    "GlobalRouter",
    "LeastLoadedClusterRouter",
    "LocalityAffinityRouter",
    "MultiClusterConfig",
    "PlacementPolicy",
    "SpareCapacityFirstPlacement",
    "SpilloverRouter",
    "WeightedRoundRobinRouter",
    "home_cluster_index",
    "list_global_routers",
    "list_placements",
    "make_global_router",
    "make_placement",
]
