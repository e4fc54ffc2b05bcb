"""KunServe as a pluggable overload policy.

Wraps :class:`repro.core.kunserve.KunServeController` behind the policy
interface the cluster serving system expects.  The ablation variants of
Figure 14 are expressed through :class:`~repro.core.kunserve.KunServeConfig`
flags: ``+Dynamic drop`` disables coordination and lookahead, ``+Coordinated
ex.`` re-enables coordination, ``+Lookahead`` enables both.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from repro.core.kunserve import KunServeConfig, KunServeController
from repro.policies.base import OverloadPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.system import ClusterServingSystem


class KunServePolicy(OverloadPolicy):
    """Parameter-centric memory management (the paper's system).

    **When selected:** the system under evaluation in every experiment;
    ``make_policy("kunserve")``.  Figure 14's ablation rows are the same
    policy with progressively enabled :class:`KunServeConfig` features.

    **What it models:** instances deploy data-parallel like vLLM, but when
    the monitor detects memory overload the attached
    :class:`~repro.core.kunserve.KunServeController` *drops* duplicated
    parameter replicas — merging groups into ad-hoc pipelines — and remaps
    the freed memory as KV cache, so queued requests start immediately
    instead of waiting for ongoing ones.  Ongoing requests keep serving
    through a coordinated KV exchange; merged groups run with the
    lookahead (cost-model balanced) microbatching; parameters are restored
    and groups re-split once the burst passes.  Recompute preemption
    remains only as the last resort when no drop plan is feasible.
    """

    name = "KunServe"

    def __init__(self, config: Optional[KunServeConfig] = None, *, label: Optional[str] = None) -> None:
        self.config = config if config is not None else KunServeConfig()
        self.controller = KunServeController(self.config)
        if label is not None:
            self.name = label

    def attach(self, system: "ClusterServingSystem") -> None:
        self.controller.attach(system)

    def on_monitor_tick(
        self,
        system: "ClusterServingSystem",
        snapshots: List[Dict[str, float]],
        now: float,
    ) -> None:
        self.controller.on_monitor_tick(snapshots, now)

    # Convenience accessors used by experiments / tests ------------------
    @property
    def drop_reports(self):
        return self.controller.drop_reports
