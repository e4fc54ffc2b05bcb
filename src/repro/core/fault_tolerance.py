"""Fault tolerance for pipeline groups (§4.4).

In ordinary replicated serving a failed instance only hurts itself.  After
a parameter drop, however, the surviving members of its pipeline group no
longer hold a complete model copy, so they cannot serve alone.  KunServe
recovers by restoring the missing layers on the survivors — parameters are
always re-loadable from host DRAM / SSD replicas over PCIe — and reforming
them into independent single-instance groups.  Requests whose KV lived
(partly) on the failed instance are recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.cluster.network import TransferPriority
from repro.core.interfaces import ServingSystemAPI
from repro.core.local_manager import LocalMemoryManager
from repro.engine.group import ServingGroup
from repro.engine.instance import ServingInstance


@dataclass
class FailureReport:
    """Outcome of handling one instance failure."""

    time: float
    failed_instance_id: int
    affected_group_id: Optional[int]
    survivors: List[int] = field(default_factory=list)
    recomputed_requests: int = 0
    requeued_requests: int = 0
    restore_bytes: int = 0
    #: ids of the requests the failure displaced (recomputed + requeued),
    #: in the order they were re-dispatched — chaos sweeps use these to
    #: measure the recovery transient per displaced request.
    displaced_request_ids: List[int] = field(default_factory=list)


class FaultToleranceManager:
    """Handles instance failures, including mid-drop pipeline groups."""

    def __init__(self, system: ServingSystemAPI) -> None:
        self.system = system
        self.reports: List[FailureReport] = []

    def fail_instance(self, instance: ServingInstance, now: Optional[float] = None) -> FailureReport:
        """Simulate the failure of ``instance`` and recover the cluster."""
        if now is None:
            now = self.system.loop.now
        instance.failed = True
        group = self._group_of(instance)
        report = FailureReport(
            time=now,
            failed_instance_id=instance.instance_id,
            affected_group_id=group.group_id if group is not None else None,
        )
        if group is None:
            self.reports.append(report)
            return report

        survivors = [inst for inst in group.instances if inst is not instance]
        report.survivors = [inst.instance_id for inst in survivors]

        # Collect the group's requests before tearing it down.  Running
        # requests lose (at least part of) their KV cache: recompute them.
        running, queued = group.evacuate()
        for request, _ in running:
            request.reset_for_recompute()
        displaced = [request for request, _ in running] + queued
        report.recomputed_requests = len(running)
        report.requeued_requests = len(queued)
        report.displaced_request_ids = [r.request_id for r in displaced]
        self.system.retire_group(group)

        # Restore full replicas on the survivors (pulled from the host copy
        # over PCIe) and bring them back as independent groups.
        num_layers = self.system.model.num_layers
        new_groups: List[ServingGroup] = []
        for survivor in survivors:
            manager = LocalMemoryManager(survivor)
            missing = manager.missing_layers(num_layers)
            if missing:
                if not manager.can_restore(missing):
                    # Should not happen right after a failure (the group's KV
                    # is mostly free once its requests were removed), but be
                    # safe: skip the survivor rather than corrupt state.
                    continue
                outcome = manager.execute_restore(missing)
                report.restore_bytes += outcome.transfer_bytes
                self.system.fabric.submit(
                    survivor.host_node(),
                    survivor.host_node(),
                    outcome.transfer_bytes,
                    priority=TransferPriority.BULK,
                    tag=f"failover-restore-inst{survivor.instance_id}",
                )
            new_groups.append(
                self.system.create_group([survivor], assignment=[list(range(num_layers))])
            )

        # Re-dispatch the displaced requests over the surviving groups (or
        # any other active group when the whole group died).
        targets = new_groups or [g for g in self.system.groups if g.active]
        if targets:
            for index, request in enumerate(displaced):
                targets[index % len(targets)].adopt_waiting(request)

        self.system.metrics.mark_event(
            now,
            "instance_failure",
            instance_id=instance.instance_id,
            recomputed=report.recomputed_requests,
        )
        self.reports.append(report)
        return report

    def _group_of(self, instance: ServingInstance) -> Optional[ServingGroup]:
        for group in self.system.groups:
            if group.active and instance in group.instances:
                return group
        return None
