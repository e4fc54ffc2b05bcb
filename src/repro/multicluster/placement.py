"""Placement policies: which cluster absorbs an autoscaler scale-up.

Inside one cluster the autoscaler activates its own spare instances.  At
the multicluster tier a cluster can run out of spares while its siblings
still hold cold capacity; the placement policy decides which sibling
scales up on the pressured cluster's behalf (the global router then pulls
traffic toward the new capacity).  Each policy is a class keyed by its
``name``, mirroring the router registries, so the sweep can treat
placement as a grid axis.

Policies choose among *candidate* handles (clusters that still hold spare
instances; the pressured cluster itself is never a candidate — it had no
spares, which is why placement ran):

* ``spare_capacity_first`` — the cluster with the most spare instances,
  keeping the fleet's headroom balanced.
* ``cost_weighted`` — the least-pressured cluster: the lowest KV
  demand/capacity ratio.  The name is kept from when it also weighed a
  per-token cost fitted per shard; every shard is built from one
  ``ServingConfig``, so that cost could not differ between shards.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence, Type, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.multicluster.system import ClusterHandle


class PlacementPolicy(abc.ABC):
    """Chooses the cluster that absorbs a remote scale-up."""

    #: registry name; each policy sets its own.
    name: str = "base"

    @abc.abstractmethod
    def place(
        self,
        pressured: "ClusterHandle",
        candidates: Sequence["ClusterHandle"],
    ) -> Optional["ClusterHandle"]:
        """Pick a donor from ``candidates`` (may be empty) for ``pressured``.

        Returns ``None`` to decline the scale-up (no acceptable donor).
        """


class SpareCapacityFirstPlacement(PlacementPolicy):
    """Scale up wherever the most spare instances sit (ties: lowest index)."""

    name = "spare_capacity_first"

    def place(
        self,
        pressured: "ClusterHandle",
        candidates: Sequence["ClusterHandle"],
    ) -> Optional["ClusterHandle"]:
        if not candidates:
            return None
        return min(candidates, key=lambda c: (-c.spare_instance_count(), c.index))


class CostWeightedPlacement(PlacementPolicy):
    """Scale up on the least-pressured cluster: lowest KV ratio (ties:
    lowest index)."""

    name = "cost_weighted"

    def place(
        self,
        pressured: "ClusterHandle",
        candidates: Sequence["ClusterHandle"],
    ) -> Optional["ClusterHandle"]:
        if not candidates:
            return None
        return min(candidates, key=lambda c: (c.kv_ratio(), c.index))


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_PLACEMENTS: Dict[str, Type[PlacementPolicy]] = {
    policy.name: policy for policy in (SpareCapacityFirstPlacement, CostWeightedPlacement)
}


def make_placement(name: str) -> PlacementPolicy:
    """Instantiate a registered placement policy by name."""
    if name not in _PLACEMENTS:
        known = ", ".join(list_placements())
        raise KeyError(f"unknown placement policy {name!r}; known policies: {known}")
    return _PLACEMENTS[name]()


def list_placements() -> List[str]:
    """Registered placement policy names in registry order."""
    return list(_PLACEMENTS)
