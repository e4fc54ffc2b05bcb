"""Dynamic parameter restoration (§4.4).

Pipelined execution is only worthwhile while memory is scarce: it reloads
weights more often and suffers bubbles.  Once the KV demand drops below a
threshold (50 % of the *undropped* capacity), KunServe pulls the dropped
parameters back — over the network, overlapped with serving, and at lower
priority than pipeline activations — and then splits the merged group back
into independent single-instance groups, gathering each ongoing request's
KV onto its new home instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.network import Transfer, TransferPriority
from repro.core.drop_plan import balanced_layer_assignment
from repro.core.interfaces import ServingSystemAPI
from repro.core.kv_exchange import ExchangePlan, KVExchangeCoordinator
from repro.core.local_manager import LocalMemoryManager
from repro.engine.group import ServingGroup
from repro.engine.instance import ServingInstance
from repro.models.memory import param_bytes


@dataclass
class RestoreOperation:
    """An in-flight restoration of one merged group."""

    group: ServingGroup
    started_at: float
    pending_transfers: int = 0
    transfer_bytes: float = 0.0
    completed: bool = False


@dataclass
class RestoreReport:
    """Summary of a finished restoration (for metrics / tests)."""

    group_id: int
    started_at: float
    finished_at: float
    transfer_bytes: float
    new_group_ids: List[int] = field(default_factory=list)


class RestoreManager:
    """Decides when and how to restore dropped parameters."""

    def __init__(
        self,
        system: ServingSystemAPI,
        exchange: KVExchangeCoordinator,
        *,
        usage_threshold: float = 0.5,
    ) -> None:
        if not 0 < usage_threshold <= 1:
            raise ValueError("usage_threshold must be in (0, 1]")
        self.system = system
        self.exchange = exchange
        self.usage_threshold = usage_threshold
        self._inflight: Dict[int, RestoreOperation] = {}
        self.reports: List[RestoreReport] = []

    # ------------------------------------------------------------------
    # Trigger
    # ------------------------------------------------------------------
    def undropped_kv_capacity_bytes(self, group: ServingGroup) -> int:
        """KV capacity the group's instances would have with full replicas."""
        full_params = param_bytes(self.system.model)
        total = 0
        for instance in group.instances:
            usable = instance.memory.pool.total_bytes
            total += max(0, usable - full_params)
        return total

    def should_restore(self, group: ServingGroup) -> bool:
        """Is the group merged, idle enough, and not already restoring?"""
        if group.num_stages <= 1 or not group.active:
            return False
        if group.group_id in self._inflight:
            return False
        if self.exchange.has_inflight(group):
            return False
        undropped = self.undropped_kv_capacity_bytes(group)
        if undropped <= 0:
            return False
        demand = max(group.kv_used_bytes(), group.kv_demand_bytes())
        return demand < self.usage_threshold * undropped

    def maybe_restore(self, now: float) -> List[RestoreOperation]:
        """Start restoration for every group that qualifies."""
        started = []
        for group in list(self.system.groups):
            if self.should_restore(group):
                operation = self.start_restore(group, now)
                if operation is not None:
                    started.append(operation)
        return started

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def start_restore(self, group: ServingGroup, now: float) -> Optional[RestoreOperation]:
        """Begin pulling missing parameters for every instance of ``group``.

        The pull happens over the instances' NICs at BULK priority so
        pipeline activations keep going (the coordinated-transfer rule of
        §4.4).  Memory is only re-purposed once all transfers finish.
        """
        num_layers = self.system.model.num_layers
        operation = RestoreOperation(group=group, started_at=now)
        transfers = 0
        for instance in group.instances:
            missing = LocalMemoryManager(instance).missing_layers(num_layers)
            if not missing:
                continue
            if not instance.memory.can_restore_layers(missing):
                # Not enough free KV memory yet; try again on a later tick.
                return None
            size = len(missing) * instance.memory.layer_param_bytes
            source = self._parameter_source(group, instance)
            transfers += 1
            operation.transfer_bytes += size
            self.system.fabric.submit(
                source.nic_node(),
                instance.nic_node(),
                size,
                priority=TransferPriority.BULK,
                tag=f"restore-params-group{group.group_id}-inst{instance.instance_id}",
                on_complete=lambda t, op=operation: self._transfer_done(op, t),
            )
        if transfers == 0:
            return None
        operation.pending_transfers = transfers
        self._inflight[group.group_id] = operation
        self.system.metrics.mark_event(
            now, "restore_start", group_id=group.group_id, transfer_bytes=operation.transfer_bytes
        )
        return operation

    def _parameter_source(self, group: ServingGroup, target: ServingInstance) -> ServingInstance:
        """Pick a peer instance to pull the missing layers from.

        Any instance outside the group still holds a full replica; prefer
        one on a different server so pulls spread across NICs.  Fall back to
        a group member (which holds at least the layers it kept).
        """
        for candidate_group in self.system.groups:
            if not candidate_group.active or candidate_group is group:
                continue
            for instance in candidate_group.instances:
                if instance.server_id != target.server_id:
                    return instance
        peers = [inst for inst in group.instances if inst is not target]
        return peers[0] if peers else target

    def _transfer_done(self, operation: RestoreOperation, _transfer: Transfer) -> None:
        operation.pending_transfers -= 1
        if operation.pending_transfers > 0 or operation.completed:
            return
        operation.completed = True
        self._finish_restore(operation)

    def _finish_restore(self, operation: RestoreOperation) -> None:
        group = operation.group
        now = self.system.loop.now
        num_layers = self.system.model.num_layers
        if not group.active:
            self._inflight.pop(group.group_id, None)
            return

        # 1. Reclaim KV memory and mark the layers resident on every instance.
        for instance in group.instances:
            manager = LocalMemoryManager(instance)
            missing = manager.missing_layers(num_layers)
            if missing and manager.can_restore(missing):
                manager.execute_restore(missing)
        # The group's aggregate KV shrank; reflect that before splitting.
        group.sync_kv_capacity()

        # 2. Split the merged group back into single-instance groups and
        #    spread its requests across them: the running ones balanced by
        #    KV tokens, largest first, the queued ones in turn.
        new_groups = [
            self.system.create_group([instance], assignment=[list(range(num_layers))])
            for instance in group.instances
        ]
        running, queued = group.evacuate()
        loads = [0] * len(new_groups)
        home: Dict[int, ServingGroup] = {}
        for request, tokens in sorted(running, key=lambda pair: pair[1], reverse=True):
            index = loads.index(min(loads))
            loads[index] += tokens
            home[request.request_id] = new_groups[index]
            new_groups[index].adopt_running(request, tokens)
        for index, request in enumerate(queued):
            new_groups[index % len(new_groups)].adopt_waiting(request)
        self.system.retire_group(group)
        self._inflight.pop(group.group_id, None)

        # 3. Gather each moved request's KV onto its new home, planned over
        #    the old group's layout.
        gather_plan = self.exchange.plan_for_split(
            group,
            [(request, tokens, home[request.request_id].instances[0]) for request, tokens in running],
        )
        for move in gather_plan.moves:
            self.exchange.execute(ExchangePlan(moves=[move]), home[move.request.request_id])

        report = RestoreReport(
            group_id=group.group_id,
            started_at=operation.started_at,
            finished_at=now,
            transfer_bytes=operation.transfer_bytes,
            new_group_ids=[g.group_id for g in new_groups],
        )
        self.reports.append(report)
        self.system.metrics.mark_event(
            now,
            "restore_end",
            group_id=group.group_id,
            new_groups=len(new_groups),
            transfer_bytes=operation.transfer_bytes,
        )
        for new_group in new_groups:
            new_group.kick()

    @property
    def restoring_group_ids(self) -> List[int]:
        return list(self._inflight.keys())
