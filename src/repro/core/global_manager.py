"""Global memory manager: turns overload events into executed drop plans.

Workflow (§3, Figure 4): the monitor detects an overload and invokes the
global memory manager (➀); it computes the memory requirement ``R``,
generates a drop plan (Figure 6), forwards it to the local managers of the
involved instances (➁), re-schedules queued and ongoing requests onto the
merged groups executing with pipeline parallelism (➂), and hands the KV of
ongoing requests to the coordinated exchange (§4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.drop_plan import (
    DropPlan,
    PlanGroup,
    balanced_layer_assignment,
    generate_drop_plan,
)
from repro.core.interfaces import ServingSystemAPI
from repro.core.kv_exchange import KVExchangeCoordinator
from repro.core.local_manager import LocalMemoryManager
from repro.engine.group import MicrobatchFormer, ServingGroup
from repro.models.memory import param_bytes

#: Capacity targeted beyond the bare demand, as a fraction of the current
#: KV capacity, so decode growth does not instantly re-overload the system.
HEADROOM_FRACTION = 0.10


@dataclass
class DropExecutionReport:
    """Summary of one executed drop operation (for metrics / tests)."""

    time: float
    plan: DropPlan
    merged_group_ids: List[Tuple[int, ...]] = field(default_factory=list)
    new_group_ids: List[int] = field(default_factory=list)
    freed_bytes: int = 0
    exchanged_bytes: float = 0.0
    exchanged_requests: int = 0


class GlobalMemoryManager:
    """Generates and executes drop plans across the cluster."""

    def __init__(
        self,
        system: ServingSystemAPI,
        exchange: KVExchangeCoordinator,
        *,
        lookahead_former: Optional[MicrobatchFormer] = None,
    ) -> None:
        self.system = system
        self.exchange = exchange
        self.lookahead_former = lookahead_former
        self.reports: List[DropExecutionReport] = []

    # ------------------------------------------------------------------
    # Requirement computation
    # ------------------------------------------------------------------
    def required_bytes(self) -> int:
        """Memory requirement ``R``: queued demand not covered by free KV.

        Counts in-processing and head-of-line queued requests (the standard
        load-accounting the paper adopts from Llumnix) plus a headroom
        fraction so the system does not immediately re-overload from decode
        growth.
        """
        total_capacity = 0
        total_demand = 0
        for group in self.system.groups:
            if not group.active:
                continue
            total_capacity += group.kv_capacity_bytes()
            total_demand += group.kv_demand_bytes()
        headroom = int(HEADROOM_FRACTION * total_capacity)
        return max(0, total_demand + headroom - total_capacity)

    # ------------------------------------------------------------------
    # Plan generation + execution
    # ------------------------------------------------------------------
    def handle_overload(self, now: float, required_bytes: Optional[int] = None) -> Optional[DropExecutionReport]:
        """Generate and execute a drop plan.  Returns None when no merge is
        possible (single group left) or nothing needs to be freed."""
        if required_bytes is None:
            required_bytes = self.required_bytes()
        if required_bytes <= 0:
            return None
        active_groups = [g for g in self.system.groups if g.active]
        plan_groups = [
            PlanGroup(group_ids=(group.group_id,), num_instances=len(group.instances))
            for group in active_groups
        ]
        plan = generate_drop_plan(plan_groups, required_bytes, param_bytes(self.system.model))
        if not plan.merged_groups:
            return None
        report = DropExecutionReport(time=now, plan=plan)
        for merged_ids in plan.merged_groups:
            new_group = self._execute_merge(merged_ids, now, report)
            report.new_group_ids.append(new_group.group_id)
            report.merged_group_ids.append(merged_ids)
        self.system.metrics.mark_event(
            now,
            "drop",
            freed_bytes=report.freed_bytes,
            merged_groups=len(report.merged_group_ids),
            feasible=plan.feasible,
        )
        self.reports.append(report)
        return report

    def _execute_merge(
        self, group_ids: Tuple[int, ...], now: float, report: DropExecutionReport
    ) -> ServingGroup:
        groups = [g for g in self.system.groups if g.group_id in group_ids and g.active]
        instances = [instance for group in groups for instance in group.instances]

        # 1. Drop parameters: each instance keeps only its assigned slice.
        assignment = balanced_layer_assignment(self.system.model.num_layers, len(instances))
        for instance, layers in zip(instances, assignment):
            outcome = LocalMemoryManager(instance).execute_drop(layers)
            report.freed_bytes += outcome.freed_bytes

        # 2. Build the merged group (its KV capacity now includes the freed
        #    parameter memory) and move every request over.
        new_group = self.system.create_group(
            instances, assignment=assignment, microbatch_former=self.lookahead_former
        )
        moved = []
        for group in groups:
            running, queued = group.evacuate()
            for request, tokens in running:
                new_group.adopt_running(request, tokens)
                moved.append((request, tokens, group.instances[0]))
            for request in queued:
                new_group.adopt_waiting(request)
            self.system.retire_group(group)

        # 3. Exchange the KV of ongoing requests so every stage holds the
        #    cache for its layers.
        exchange_plan = self.exchange.plan_for_merge(new_group, moved)
        self.exchange.execute(exchange_plan, new_group)
        report.exchanged_bytes += exchange_plan.total_bytes
        report.exchanged_requests += exchange_plan.num_requests
        new_group.kick()
        return new_group
