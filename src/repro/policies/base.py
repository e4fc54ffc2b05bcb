"""Base class for memory-overload handling policies."""

from __future__ import annotations

import abc
from typing import Dict, List, TYPE_CHECKING

from repro.engine.scheduler import SchedulerConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.system import ClusterServingSystem


class OverloadPolicy(abc.ABC):
    """How a serving system is laid out and reacts to memory overload.

    **When selected:** never directly — this is the abstract contract.  A
    concrete policy is chosen per experiment run (one fresh
    :class:`~repro.serving.system.ClusterServingSystem` per policy), via
    :func:`repro.policies.make_policy`, whose keys name the paper's five
    systems and the variants its figures compare.

    **What it models:** the *mechanism/policy split* of the serving stack.
    The engine (scheduler, groups, KV cache, network) provides mechanisms;
    the policy decides how the cluster uses them.  A policy influences
    three layers:

    1. **Deployment** — :meth:`initial_groups` partitions the cluster's
       instances into serving groups and :meth:`initial_layer_assignment`
       says which layers each instance of a group loads (all layers for
       data-parallel groups, a slice for static pipeline parallelism).
    2. **Scheduler** — :meth:`scheduler_config` selects the preemption mode
       (recompute vs. swap) and any budget overrides.
    3. **Cluster reaction** — :meth:`on_monitor_tick` is invoked by the
       global monitor with per-group load snapshots and may migrate
       requests, drop parameters, etc.
    """

    #: Human-readable name used in experiment tables.
    name: str = "base"

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------
    def initial_groups(self, num_instances: int) -> List[List[int]]:
        """Partition instance indices into serving groups (default: DP)."""
        return [[index] for index in range(num_instances)]

    def initial_layer_assignment(
        self, group_instance_indices: List[int], num_layers: int
    ) -> List[List[int]]:
        """Layers each instance of one group loads (default: full replica)."""
        return [list(range(num_layers)) for _ in group_instance_indices]

    # ------------------------------------------------------------------
    # Scheduler
    # ------------------------------------------------------------------
    def scheduler_config(self, base: SchedulerConfig) -> SchedulerConfig:
        """Adjust the scheduler configuration (default: unchanged, so
        preemption recomputes, as in vLLM)."""
        return base

    # ------------------------------------------------------------------
    # Cluster-level hooks
    # ------------------------------------------------------------------
    def attach(self, system: "ClusterServingSystem") -> None:
        """Called once after the system is built; override to wire state."""

    def on_monitor_tick(
        self,
        system: "ClusterServingSystem",
        snapshots: List[Dict[str, float]],
        now: float,
    ) -> None:
        """Called by the global monitor every interval (default: no-op)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
