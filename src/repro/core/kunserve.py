"""The KunServe controller: detection, drop, restore.

Glues the core pieces together behind the monitor-tick hook the cluster
serving system exposes:

* when the monitor reports memory overload (demand above capacity or a
  scheduler blocked on memory with requests queued), generate and execute a
  drop plan through the :class:`GlobalMemoryManager`;
* when the demand has fallen low enough, restore parameters through the
  :class:`RestoreManager`;
* install the lookahead microbatch former (backed by the fitted cost model)
  on every merged group so pipelined execution stays bubble-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.cost_model import BatchCostModel, fit_cost_model, generate_profiling_samples
from repro.core.global_manager import DropExecutionReport, GlobalMemoryManager
from repro.core.interfaces import ServingSystemAPI
from repro.core.kv_exchange import KVExchangeCoordinator
from repro.core.lookahead import make_lookahead_former
from repro.core.restore import RestoreManager
from repro.engine.group import MicrobatchFormer
from repro.models.memory import kv_bytes_per_token

#: Demand / capacity ratio above which a drop is triggered (the paper
#: triggers when queued requests cannot fit).
OVERLOAD_THRESHOLD = 0.92
#: Minimum spacing, in seconds, between successive drop operations.
DROP_COOLDOWN_S = 10.0
#: Minimum time, in seconds, after a drop before restoration is considered
#: (avoids drop/restore oscillation).
RESTORE_COOLDOWN_S = 20.0


@dataclass
class KunServeConfig:
    """The switches the paper's ablations turn (Figures 14 and 16).

    Attributes:
        restore_threshold: usage / undropped-capacity ratio below which
            parameters are restored (the paper uses 50 %).
        coordinated_exchange: enable the coordinated KV exchange of §4.2
            (disable only for the ablation).
        use_lookahead: enable the lookahead batch formulation of §4.3
            (disable only for the ablation).
    """

    restore_threshold: float = 0.5
    coordinated_exchange: bool = True
    use_lookahead: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.restore_threshold <= 1:
            raise ValueError("restore_threshold must be in (0, 1]")


class KunServeController:
    """Cluster-level brain of parameter-centric memory management."""

    def __init__(self, config: Optional[KunServeConfig] = None) -> None:
        self.config = config if config is not None else KunServeConfig()
        self.system: Optional[ServingSystemAPI] = None
        self.exchange: Optional[KVExchangeCoordinator] = None
        self.global_manager: Optional[GlobalMemoryManager] = None
        self.restore_manager: Optional[RestoreManager] = None
        self.cost_model: Optional[BatchCostModel] = None
        self.lookahead_former: Optional[MicrobatchFormer] = None
        self._last_drop_time: float = -1e9
        self.drop_reports: List[DropExecutionReport] = []

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, system: ServingSystemAPI) -> None:
        """Bind to a serving system: fit the cost model, build managers."""
        self.system = system
        kv_token_bytes = kv_bytes_per_token(system.model)
        self.exchange = KVExchangeCoordinator(
            system.loop,
            system.fabric,
            coordinated=self.config.coordinated_exchange,
            kv_token_bytes=kv_token_bytes,
        )
        self.cost_model = self._fit_cost_model(system)
        if self.config.use_lookahead and self.cost_model is not None:
            self.lookahead_former = make_lookahead_former(self.cost_model)
        self.global_manager = GlobalMemoryManager(
            system, self.exchange, lookahead_former=self.lookahead_former
        )
        self.restore_manager = RestoreManager(
            system, self.exchange, usage_threshold=self.config.restore_threshold
        )

    def _fit_cost_model(self, system: ServingSystemAPI) -> Optional[BatchCostModel]:
        """Offline profiling + least-squares fit (§4.3)."""
        groups = [g for g in system.groups if g.active and g.instances]
        if not groups:
            return None
        latency_model = groups[0].instances[0].latency
        samples = generate_profiling_samples(latency_model)
        return BatchCostModel(fit_cost_model(samples))

    # ------------------------------------------------------------------
    # Monitor hook
    # ------------------------------------------------------------------
    def on_monitor_tick(self, snapshots: List[Dict[str, float]], now: float) -> None:
        """React to the monitor's periodic load snapshot."""
        if self.system is None or self.global_manager is None:
            raise RuntimeError("controller is not attached to a serving system")
        if self._is_overloaded(snapshots):
            if now - self._last_drop_time >= DROP_COOLDOWN_S:
                report = self.global_manager.handle_overload(now)
                if report is not None:
                    self._last_drop_time = now
                    self.drop_reports.append(report)
            return
        if now - self._last_drop_time >= RESTORE_COOLDOWN_S:
            assert self.restore_manager is not None
            self.restore_manager.maybe_restore(now)

    def _is_overloaded(self, snapshots: List[Dict[str, float]]) -> bool:
        """Cluster-wide overload test on the monitor snapshot."""
        total_capacity = sum(s["kv_capacity_bytes"] for s in snapshots)
        total_demand = sum(s["kv_demand_bytes"] for s in snapshots)
        if total_capacity <= 0:
            return False
        if total_demand > OVERLOAD_THRESHOLD * total_capacity:
            return True
        # A scheduler already blocked on memory with queued work is an
        # overload even if the aggregate ratio looks fine (fragmentation
        # across groups), provided spare capacity elsewhere cannot absorb it
        # (that case is the dispatcher/migration's job, not a drop).
        blocked_demand = sum(
            s["kv_demand_bytes"] - s["kv_capacity_bytes"]
            for s in snapshots
            if s["memory_blocked"] > 0 and s["kv_demand_bytes"] > s["kv_capacity_bytes"]
        )
        spare = total_capacity - total_demand
        return blocked_demand > max(0.0, spare)
