"""Coordinated KV-cache exchange (§4.2).

After a drop plan merges groups, the KV cache of an ongoing request is
coupled to the layers its original instance used to hold: instance A keeps
layers 0–k, so the KV of layers k+1..L-1 must move to the instances now
holding those layers (and vice versa).  Recomputing would make queued
requests wait, so the KV is exchanged over the network instead.

The exchange competes with pipeline activation transfers for NIC bandwidth.
KunServe's *coordinated* exchange chops the KV into chunks sized to roughly
one pipeline-stage execution and yields to activation transfers at chunk
boundaries, so activations are never stalled behind a multi-gigabyte
message.  The uncoordinated variant (kept for the Figure 14 ablation) sends
each request's KV as one message, which blocks activations for the
message's residual transfer time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cluster.network import NetworkFabric, Transfer, TransferPriority
from repro.engine.group import ServingGroup
from repro.engine.instance import ServingInstance
from repro.engine.request import Request, RequestState
from repro.simulation.event_loop import EventLoop


@dataclass
class ExchangeMove:
    """KV movement of one request between two instances."""

    request: Request
    src: ServingInstance
    dst: ServingInstance
    size_bytes: float


@dataclass
class ExchangePlan:
    """All KV movements required by one group merge (or split)."""

    moves: List[ExchangeMove] = field(default_factory=list)

    @property
    def total_bytes(self) -> float:
        return sum(move.size_bytes for move in self.moves)

    @property
    def num_requests(self) -> int:
        return len({move.request.request_id for move in self.moves})

    def __len__(self) -> int:
        return len(self.moves)


class KVExchangeCoordinator:
    """Plans and executes KV-cache exchanges over the cluster fabric."""

    #: Residual interference an activation sees at a chunk boundary when the
    #: exchange is coordinated (the check-and-yield overhead).
    COORDINATED_INTERFERENCE_S = 0.002

    def __init__(
        self,
        loop: EventLoop,
        fabric: NetworkFabric,
        *,
        coordinated: bool = True,
        kv_token_bytes: int,
    ) -> None:
        self.loop = loop
        self.fabric = fabric
        self.coordinated = coordinated
        self.kv_token_bytes = kv_token_bytes
        #: exchanges in flight per group id (for interference bookkeeping).
        self._inflight: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan_for_merge(
        self, group: ServingGroup, moved: List[Tuple[Request, int, ServingInstance]]
    ) -> ExchangePlan:
        """KV moves after ``group`` was formed by a merge: each request's
        KV leaves the instance that held it for the layers it lost."""
        return self._plan(group, moved, gather=False)

    def plan_for_split(
        self, group: ServingGroup, moved: List[Tuple[Request, int, ServingInstance]]
    ) -> ExchangePlan:
        """KV moves when pipelined ``group`` splits after a restore: each
        request's KV gathers onto its new home instance."""
        return self._plan(group, moved, gather=True)

    def _plan(
        self,
        group: ServingGroup,
        moved: List[Tuple[Request, int, ServingInstance]],
        *,
        gather: bool,
    ) -> ExchangePlan:
        """Plan one move per ``(request, KV tokens, home)`` of ``moved``.

        ``home`` is the stage of the pipelined ``group`` that holds (merge)
        or will hold (split) the request's whole KV.  The layers ``home``
        does not serve are the moved fraction; they come from (gather) or
        go to the peer holding the most layers.
        """
        plan = ExchangePlan()
        num_layers = group.model.num_layers
        assignment = group.assignment
        for request, tokens, home in moved:
            if tokens == 0:
                continue
            try:
                kept_layers = len(assignment[group.instances.index(home)])
            except ValueError:
                kept_layers = 0
            moved_fraction = 1.0 - kept_layers / num_layers
            if moved_fraction <= 0:
                continue
            size = tokens * self.kv_token_bytes * moved_fraction
            peer = self._pick_peer(group, home)
            if peer is None:
                continue
            src, dst = (peer, home) if gather else (home, peer)
            plan.moves.append(ExchangeMove(request=request, src=src, dst=dst, size_bytes=size))
        return plan

    @staticmethod
    def _pick_peer(group: ServingGroup, home: ServingInstance) -> Optional[ServingInstance]:
        """The peer instance holding the largest share of the moved layers."""
        candidates = [
            (len(layers), instance)
            for instance, layers in zip(group.instances, group.assignment)
            if instance is not home
        ]
        if not candidates:
            return None
        candidates.sort(key=lambda item: item[0], reverse=True)
        return candidates[0][1]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, plan: ExchangePlan, group: ServingGroup) -> None:
        """Start all transfers of ``plan``; stall the affected requests."""
        if not plan.moves:
            return
        self._inflight[group.group_id] = self._inflight.get(group.group_id, 0) + len(plan.moves)
        group.activation_interference_s = self._interference(plan)
        for move in plan.moves:
            self._start_move(move, group)

    def _interference(self, plan: ExchangePlan) -> float:
        if self.coordinated:
            return self.COORDINATED_INTERFERENCE_S
        # Uncoordinated: an activation issued mid-exchange waits, on average,
        # half of one request-sized KV message.
        if not plan.moves:
            return 0.0
        mean_bytes = plan.total_bytes / len(plan.moves)
        bandwidths = [
            min(
                self.fabric.node_bandwidth(move.src.nic_node()),
                self.fabric.node_bandwidth(move.dst.nic_node()),
            )
            for move in plan.moves
        ]
        mean_bandwidth = sum(bandwidths) / len(bandwidths)
        return 0.5 * mean_bytes / mean_bandwidth

    def _start_move(self, move: ExchangeMove, group: ServingGroup) -> None:
        request = move.request
        request.state = RequestState.EXCHANGING
        src_node = move.src.nic_node()
        dst_node = move.dst.nic_node()
        if src_node == dst_node:
            # Same server: NVLink copy, effectively instantaneous at this
            # timescale; no stall needed.
            request.state = RequestState.RUNNING
            self._finish_move(group, request, None)
            return
        eta = self.fabric.estimate_transfer_time(src_node, dst_node, move.size_bytes, exclusive=False)
        group.stall_request(request, self.loop.now + eta)
        priority = TransferPriority.BULK if self.coordinated else TransferPriority.ACTIVATION
        self.fabric.submit(
            src_node,
            dst_node,
            move.size_bytes,
            priority=priority,
            tag=f"kv-exchange-{request.request_id}",
            on_complete=lambda t, r=request, g=group: self._finish_move(g, r, t),
        )

    def _finish_move(self, group: ServingGroup, request: Request, _transfer: Optional[Transfer]) -> None:
        if not request.finished:
            request.state = RequestState.RUNNING
            group.end_stall(request)
        remaining = self._inflight.get(group.group_id, 0) - 1
        if remaining <= 0:
            self._inflight.pop(group.group_id, None)
            group.activation_interference_s = 0.0
        else:
            self._inflight[group.group_id] = remaining
        group.kick()

    def has_inflight(self, group: ServingGroup) -> bool:
        return self._inflight.get(group.group_id, 0) > 0
