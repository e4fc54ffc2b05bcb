"""Cross-cluster (global) routers behind a registry.

The global router decides which *cluster* receives an arriving request;
the chosen cluster's own fleet layer (admission + intra-cluster router)
then places it on a serving group.  The registry mirrors
:mod:`repro.fleet.routing`: each strategy is a class keyed by its
``name``, instantiated with :func:`make_global_router`, and the
multicluster system resolves them from the same registry the CLI lists.

Routers operate on *cluster handles*
(:class:`repro.multicluster.system.ClusterHandle`) — lightweight views
exposing load (``backlog``, ``kv_ratio``) and topology (``index``,
``routable_group_count``).

Every request has a deterministic *home* cluster — the stable hash of its
session key over the cluster count (:func:`home_cluster_index`).  Routing
to any other cluster is *remote*: the request's context must cross the
inter-cluster fabric first, so remote dispatch pays the WAN cost, and the
``locality_affinity`` strategy exists precisely to avoid it.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Sequence, Type, TYPE_CHECKING

from repro.engine.request import Request
from repro.fleet.routing import session_slot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.multicluster.system import ClusterHandle

#: Per-group backlog at which the ``spillover`` router considers the home
#: cluster overloaded (the autoscaler's queue-depth trigger, per group).
SPILL_QUEUE_DEPTH = 8


def home_cluster_index(request: Request, num_clusters: int) -> int:
    """The request's home cluster: its session's slot among the clusters
    (:func:`repro.fleet.routing.session_slot`, the fleet's affinity
    hash), so a multi-turn conversation keeps one home across its whole
    lifetime and the cross-cluster traffic accounting is
    router-independent."""
    return session_slot(request, num_clusters)


def cluster_load_key(cluster: "ClusterHandle"):
    """Least-loaded ordering: KV pressure, then backlog, ties by index."""
    return (cluster.kv_ratio(), cluster.backlog(), cluster.index)


class GlobalRouter(abc.ABC):
    """Chooses a cluster shard for each request.

    ``route`` receives every cluster handle (in shard order, never empty)
    and must return one of them.  Routers may keep state (WRR counters)
    but must be deterministic for a fixed call sequence.
    """

    #: registry name; each strategy sets its own.
    name: str = "base"

    @abc.abstractmethod
    def route(self, request: Request, clusters: Sequence["ClusterHandle"]) -> "ClusterHandle":
        """Pick a cluster from ``clusters`` (non-empty) for ``request``."""


class LeastLoadedClusterRouter(GlobalRouter):
    """Send to the cluster with the lowest KV pressure (backlog breaks ties).

    The cross-cluster analog of the paper's Llumnix-style least-loaded
    dispatch; ignores locality entirely, so it trades WAN transfers for
    balance.
    """

    name = "least_loaded_cluster"

    def route(self, request: Request, clusters: Sequence["ClusterHandle"]) -> "ClusterHandle":
        return min(clusters, key=cluster_load_key)


class WeightedRoundRobinRouter(GlobalRouter):
    """Smooth weighted round-robin over clusters, weighted by capacity.

    The classic nginx algorithm: each pick adds every cluster's weight
    (its routable group count, so elastic scale-ups attract more traffic)
    to a running counter, the largest counter wins and is decremented by
    the total.  Spreads load proportionally while interleaving picks —
    and, like any RR scheme, ignores session locality completely, which
    makes it the natural traffic-cost baseline for ``locality_affinity``.
    """

    name = "weighted_round_robin"

    def __init__(self) -> None:
        self._current: Dict[int, float] = {}

    def route(self, request: Request, clusters: Sequence["ClusterHandle"]) -> "ClusterHandle":
        weights = {
            cluster.index: float(max(1, cluster.routable_group_count()))
            for cluster in clusters
        }
        total = sum(weights.values())
        best = None
        for cluster in clusters:
            current = self._current.get(cluster.index, 0.0) + weights[cluster.index]
            self._current[cluster.index] = current
            if best is None or current > self._current[best.index]:
                best = cluster
        self._current[best.index] -= total
        return best


class LocalityAffinityRouter(GlobalRouter):
    """Pin every session to its home cluster, unconditionally.

    Maximises KV/prefix locality and keeps cross-cluster traffic at zero;
    the price is that a hot home cluster cannot shed load to its siblings
    (that trade-off is what the ``spillover`` strategy relaxes).
    """

    name = "locality_affinity"

    def route(self, request: Request, clusters: Sequence["ClusterHandle"]) -> "ClusterHandle":
        return clusters[home_cluster_index(request, len(clusters))]


class SpilloverRouter(GlobalRouter):
    """Home cluster first; overflow to the least-pressured remote when it sheds.

    Keeps locality while the home cluster is healthy.  Once the home's
    per-group backlog reaches :data:`SPILL_QUEUE_DEPTH` (the regime where its
    admission controller queues and ultimately sheds), the request
    overflows to the remote cluster with the lowest KV pressure (ties:
    lowest index), accepting one WAN transfer to avoid a shed.
    """

    name = "spillover"

    def route(self, request: Request, clusters: Sequence["ClusterHandle"]) -> "ClusterHandle":
        home = clusters[home_cluster_index(request, len(clusters))]
        groups = max(1, home.routable_group_count())
        if home.backlog() < SPILL_QUEUE_DEPTH * groups:
            return home
        remote = [cluster for cluster in clusters if cluster is not home]
        if not remote:
            return home
        return min(remote, key=lambda c: (c.kv_ratio(), c.index))


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_GLOBAL_ROUTERS: Dict[str, Type[GlobalRouter]] = {
    router.name: router
    for router in (
        LeastLoadedClusterRouter,
        WeightedRoundRobinRouter,
        LocalityAffinityRouter,
        SpilloverRouter,
    )
}


def make_global_router(name: str) -> GlobalRouter:
    """Instantiate a registered global router by name."""
    if name not in _GLOBAL_ROUTERS:
        known = ", ".join(list_global_routers())
        raise KeyError(f"unknown global router {name!r}; known routers: {known}")
    return _GLOBAL_ROUTERS[name]()


def list_global_routers() -> List[str]:
    """Registered global router names in registry order."""
    return list(_GLOBAL_ROUTERS)
