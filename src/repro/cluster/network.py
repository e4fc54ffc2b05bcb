"""Bandwidth-shared network fabric with priority classes.

The fabric models each endpoint (a serving instance's NIC, or a server's
PCIe root for swap traffic) as a node with a fixed unidirectional bandwidth.
Transfers between two nodes progress at the minimum of their fair share at
the source and at the destination.  Two priority classes exist:

* ``ACTIVATION`` -- tiny, latency-critical pipeline activation transfers.
* ``BULK`` -- KV-cache exchange, migration, swap, and parameter restore
  traffic.

High-priority transfers take the whole link; bulk transfers share whatever
bandwidth is left.  This is the mechanism KunServe's coordinated exchange
(§4.2) relies on: KV chunks are submitted at BULK priority so activations
are never stalled behind them.

Active transfers are grouped into *flows* keyed by ``(src, dst,
priority)``: a transfer's rate depends only on its endpoints' shares at its
priority, so a flow's members share one rate and advance at the same
instants.  Each submit, cancel or completion recomputes rates and finds the
earliest completion per flow, in O(flows + nodes) with per-node counters;
the only per-transfer work is one subtraction per member when the clock has
moved.  That step is the very product each member would compute from the
same rate and elapsed time, and rounding is monotonic, so members stay
sorted by remaining bytes and every float equals that of advancing each
transfer on its own.  A single completion event, for the earliest-finishing
transfer, is rescheduled on every change — standard progress-based network
simulation.
"""

from __future__ import annotations

import enum
import itertools
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.simulation.event_loop import Event, EventLoop


class TransferPriority(enum.IntEnum):
    """Priority classes for fabric transfers (lower value = higher priority)."""

    ACTIVATION = 0
    BULK = 1


@dataclass(slots=True)
class Transfer:
    """An in-flight data transfer between two fabric nodes.

    While the transfer is active its progress lives in the fabric's flow;
    ``remaining_bytes`` is written when it leaves the fabric (0 on
    completion, the bytes still unsent on cancel).
    """

    transfer_id: int
    src: str
    dst: str
    size_bytes: float
    priority: TransferPriority
    on_complete: Optional[Callable[["Transfer"], None]] = None
    tag: str = ""

    remaining_bytes: float = field(init=False)
    submitted_at: float = field(default=0.0)
    completed_at: Optional[float] = field(default=None)
    cancelled: bool = field(default=False)

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError(f"transfer size must be >= 0, got {self.size_bytes}")
        self.remaining_bytes = float(self.size_bytes)

    @property
    def done(self) -> bool:
        return self.completed_at is not None

    @property
    def duration(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at


@dataclass(frozen=True)
class InterClusterLinkSpec:
    """Static description of a WAN link between two clusters.

    Cross-cluster traffic is qualitatively different from the intra-cluster
    RDMA fabric: bandwidth is one to two orders of magnitude lower and every
    transfer pays a propagation delay regardless of size.  The multicluster
    tier (:mod:`repro.multicluster`) builds one WAN endpoint per cluster
    from this spec, so remote routing and cross-cluster KV migration carry
    a modeled cost instead of being free.

    Attributes:
        bandwidth: per-cluster unidirectional WAN uplink bandwidth, bytes/s.
        latency_s: one-way propagation delay paid before any byte moves.
    """

    bandwidth: float
    latency_s: float

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.latency_s < 0:
            raise ValueError(f"latency_s must be >= 0, got {self.latency_s}")


class CrossClusterLink:
    """A WAN link between two cluster endpoints of a shared fabric.

    Wraps :meth:`NetworkFabric.submit` with the link's propagation delay:
    a transfer first waits ``latency_s`` simulated seconds (the bytes are
    in flight but no endpoint bandwidth is held), then contends for the
    WAN endpoints' bandwidth under the fabric's fluid-flow model like any
    other transfer.  Both endpoints must already be registered on the
    fabric (the multicluster tier adds one ``cluster{i}/wan`` node per
    cluster).
    """

    def __init__(
        self,
        loop: EventLoop,
        fabric: "NetworkFabric",
        src: str,
        dst: str,
        spec: InterClusterLinkSpec,
    ) -> None:
        for node in (src, dst):
            if not fabric.has_node(node):
                raise KeyError(f"unknown fabric node: {node!r}")
        self._loop = loop
        self._fabric = fabric
        self.src = src
        self.dst = dst
        self.spec = spec
        #: propagation-delay multiplier; chaos WAN degradation raises it
        #: for the degradation window and restores it to 1.0 after.
        self.latency_scale: float = 1.0
        self.bytes_sent: float = 0.0
        self.transfers: int = 0

    def transfer(
        self,
        size_bytes: float,
        *,
        priority: TransferPriority = TransferPriority.BULK,
        on_complete: Optional[Callable[[Transfer], None]] = None,
        tag: str = "",
    ) -> None:
        """Move ``size_bytes`` across the link: latency, then bandwidth."""
        if size_bytes < 0:
            raise ValueError(f"transfer size must be >= 0, got {size_bytes}")
        self.bytes_sent += size_bytes
        self.transfers += 1
        self._loop.schedule(
            self.spec.latency_s * self.latency_scale,
            lambda: self._fabric.submit(
                self.src,
                self.dst,
                size_bytes,
                priority=priority,
                on_complete=on_complete,
                tag=tag,
            ),
            name=f"wan-{tag}" if tag else "wan-transfer",
        )


class _Flow:
    """The active transfers from ``src`` to ``dst`` at one priority.

    Every member moves at the flow's ``rate``.  ``remaining`` holds the
    members' remaining bytes in ascending order, parallel to ``transfers``.
    """

    __slots__ = ("src", "dst", "high", "rate", "transfers", "remaining")

    def __init__(self, src: str, dst: str, high: bool) -> None:
        self.src = src
        self.dst = dst
        self.high = high
        self.rate = 0.0
        self.transfers: List[Transfer] = []
        self.remaining: List[float] = []

    def index_of(self, transfer: Transfer) -> int:
        for index, member in enumerate(self.transfers):
            if member is transfer:
                return index
        raise ValueError(f"transfer {transfer.transfer_id} is not in this flow")


_PRIORITIES = tuple(TransferPriority)


class NetworkFabric:
    """Fluid-flow network model shared by all instances of a cluster."""

    def __init__(self, loop: EventLoop) -> None:
        self._loop = loop
        self._node_bandwidth: Dict[str, float] = {}
        self._flows: Dict[Tuple[str, str, TransferPriority], _Flow] = {}
        #: active transfer id -> the flow holding it.
        self._active: Dict[int, _Flow] = {}
        #: the instant every member's remaining bytes refer to.
        self._updated_at = 0.0
        #: per node: endpoints of active transfers, all and ACTIVATION only
        #: (a self-loop is two endpoints), and distinct active transfers
        #: touching the node (a self-loop is one).
        self._endpoints: Dict[str, int] = {}
        self._high_endpoints: Dict[str, int] = {}
        self._touching: Dict[str, int] = {}
        self._counter = itertools.count()
        #: single pending completion event, for the transfer that finishes
        #: earliest under the current rates.  Keeping one event instead of
        #: one per transfer avoids O(active) heap churn on every rate change
        #: (the coordinated KV exchange keeps hundreds of transfers live).
        self._next_completion: Optional[Event] = None
        #: per-request span recorder (``repro.trace``); ``None`` when off.
        self.tracer = None

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def add_node(self, name: str, bandwidth: float) -> None:
        """Register an endpoint with unidirectional ``bandwidth`` bytes/s."""
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        self._node_bandwidth[name] = float(bandwidth)
        for counts in (self._endpoints, self._high_endpoints, self._touching):
            counts.setdefault(name, 0)

    def has_node(self, name: str) -> bool:
        return name in self._node_bandwidth

    def node_bandwidth(self, name: str) -> float:
        return self._node_bandwidth[name]

    def set_node_bandwidth(self, name: str, bandwidth: float) -> None:
        """Change an endpoint's bandwidth mid-run (chaos WAN degradation).

        In-flight transfers keep the bytes they already moved; rates are
        recomputed under the new capacity and the completion event is
        re-armed, exactly as on any submit/complete/cancel.
        """
        if name not in self._node_bandwidth:
            raise KeyError(f"unknown fabric node: {name!r}")
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        self._node_bandwidth[name] = float(bandwidth)
        self._recompute_rates()

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------
    def submit(
        self,
        src: str,
        dst: str,
        size_bytes: float,
        *,
        priority: TransferPriority = TransferPriority.BULK,
        on_complete: Optional[Callable[[Transfer], None]] = None,
        tag: str = "",
    ) -> Transfer:
        """Start a transfer of ``size_bytes`` from ``src`` to ``dst``."""
        for node in (src, dst):
            if node not in self._node_bandwidth:
                raise KeyError(f"unknown fabric node: {node!r}")
        transfer = Transfer(
            transfer_id=next(self._counter),
            src=src,
            dst=dst,
            size_bytes=size_bytes,
            priority=priority,
            on_complete=on_complete,
            tag=tag,
            submitted_at=self._loop.now,
        )
        if size_bytes <= 0:
            # Zero-byte transfers complete immediately (still asynchronously,
            # so callers see a uniform callback discipline).
            self._loop.schedule(0.0, lambda t=transfer: self._finish(t))
            return transfer
        # Bring the members up to now first: the newcomer has moved nothing.
        self._advance_progress()
        key = (src, dst, priority)
        flow = self._flows.get(key)
        if flow is None:
            flow = self._flows[key] = _Flow(
                src, dst, priority == TransferPriority.ACTIVATION
            )
        remaining = transfer.remaining_bytes
        index = bisect_right(flow.remaining, remaining)
        flow.remaining.insert(index, remaining)
        flow.transfers.insert(index, transfer)
        self._active[transfer.transfer_id] = flow
        self._count(flow, 1)
        self._recompute_rates()
        return transfer

    def cancel(self, transfer: Transfer) -> None:
        """Abort an in-flight transfer; its callback will not run."""
        flow = self._active.get(transfer.transfer_id)
        if flow is None:
            return
        transfer.cancelled = True
        self._advance_progress()
        transfer.remaining_bytes = self._remove(flow, flow.index_of(transfer))
        self._recompute_rates()

    def estimate_transfer_time(
        self, src: str, dst: str, size_bytes: float, *, exclusive: bool = True
    ) -> float:
        """Time to move ``size_bytes`` between two nodes.

        With ``exclusive=True`` the estimate is a lower bound: the transfer
        gets the whole link.  Otherwise it divides the link among the
        transfer and every active transfer touching either node, whatever
        their priority.
        """
        bandwidth = min(self._node_bandwidth[src], self._node_bandwidth[dst])
        if exclusive:
            return size_bytes / bandwidth
        touching = self._touching
        if src == dst:
            contenders = 1 + touching[src]
        else:
            # Transfers between the two nodes touch both; count them once.
            contenders = (
                1 + touching[src] + touching[dst]
                - self._pair_count(src, dst) - self._pair_count(dst, src)
            )
        return size_bytes * contenders / bandwidth

    # ------------------------------------------------------------------
    # Internal fluid-flow machinery
    # ------------------------------------------------------------------
    def _pair_count(self, src: str, dst: str) -> int:
        """Active transfers from ``src`` to ``dst``, at any priority."""
        count = 0
        for priority in _PRIORITIES:
            flow = self._flows.get((src, dst, priority))
            if flow is not None:
                count += len(flow.transfers)
        return count

    def _count(self, flow: _Flow, delta: int) -> None:
        """Add ``delta`` members of ``flow`` to the per-node counters."""
        src = flow.src
        dst = flow.dst
        self._endpoints[src] += delta
        self._endpoints[dst] += delta
        if flow.high:
            self._high_endpoints[src] += delta
            self._high_endpoints[dst] += delta
        self._touching[src] += delta
        if dst != src:
            self._touching[dst] += delta

    def _remove(self, flow: _Flow, index: int) -> float:
        """Take member ``index`` out of ``flow``; returns its remaining bytes."""
        transfer = flow.transfers.pop(index)
        remaining = flow.remaining.pop(index)
        del self._active[transfer.transfer_id]
        self._count(flow, -1)
        if not flow.transfers:
            del self._flows[(transfer.src, transfer.dst, transfer.priority)]
        return remaining

    def _advance_progress(self) -> None:
        """Apply the current rates to all active transfers up to `now`."""
        now = self._loop.now
        elapsed = now - self._updated_at
        self._updated_at = now
        if elapsed <= 0:
            return
        for flow in self._flows.values():
            step = flow.rate * elapsed
            remaining = [r - step for r in flow.remaining]
            if not remaining[0] > 0.0:
                # The order survives the subtraction, so the members that
                # ran dry form a prefix: clamp only that.
                for index, value in enumerate(remaining):
                    if value > 0.0:
                        break
                    remaining[index] = 0.0
            flow.remaining = remaining

    def _share(self, node: str, high: bool) -> float:
        """A transfer's share of ``node`` at its priority class."""
        bandwidth = self._node_bandwidth[node]
        busy = self._high_endpoints[node]
        if high:
            return bandwidth / max(1, busy)
        # Bulk transfers share the bandwidth left over after the
        # high-priority class; we conservatively give the high class
        # 90% of the node while it is active.
        leftover = bandwidth * (0.1 if busy > 0 else 1.0)
        return leftover / max(1, self._endpoints[node] - busy)

    def _recompute_rates(self) -> None:
        """Recompute every flow's rate and re-arm the completion event.

        Runs on every submit/complete/cancel with O(flows + nodes) cost,
        plus one subtraction per active transfer if the clock has moved
        since the last update.
        """
        self._advance_progress()
        # Pick the transfer that completes earliest under the new rates and
        # keep a single completion event for it.  Ties resolve to the lowest
        # transfer id (the first submitted), matching the seq tie-break the
        # heap applied when every transfer carried its own event.
        next_transfer: Optional[Transfer] = None
        next_eta = 0.0
        share = self._share
        for flow in self._flows.values():
            src_share = share(flow.src, flow.high)
            dst_share = share(flow.dst, flow.high)
            rate = src_share if src_share <= dst_share else dst_share
            flow.rate = rate
            if rate <= 0:
                continue
            remaining = flow.remaining
            eta = remaining[0] / rate
            if next_transfer is not None and eta > next_eta:
                continue
            # Division is monotonic, so the members finishing at ``eta``
            # form a prefix; distinct remainders can still round to the
            # same ETA, so take the lowest id across all of it.
            transfers = flow.transfers
            first = transfers[0]
            for index in range(1, len(remaining)):
                if remaining[index] / rate != eta:
                    break
                if transfers[index].transfer_id < first.transfer_id:
                    first = transfers[index]
            if (
                next_transfer is None
                or eta < next_eta
                or first.transfer_id < next_transfer.transfer_id
            ):
                next_transfer = first
                next_eta = eta

        if self._next_completion is not None:
            self._next_completion.cancel()
            self._next_completion = None
        if next_transfer is not None:
            self._next_completion = self._loop.schedule(
                next_eta,
                lambda t=next_transfer: self._maybe_complete(t),
                name=f"xfer-{next_transfer.transfer_id}",
            )

    def _maybe_complete(self, transfer: Transfer) -> None:
        self._next_completion = None
        flow = self._active.get(transfer.transfer_id)
        if flow is None:
            # Stale event (the transfer was cancelled); re-arm the chain for
            # the remaining transfers.
            self._recompute_rates()
            return
        self._advance_progress()
        index = flow.index_of(transfer)
        remaining = flow.remaining[index]
        rate = flow.rate
        now = self._loop.now
        if remaining > 1e-6 and rate > 0 and now + remaining / rate > now:
            # Floating-point residue the advance underestimated, and the
            # clock can still make progress on it: re-arm with a fresh
            # (tiny) completion event instead of finishing early.
            self._recompute_rates()
            return
        # Done — or a sub-ulp residue that could never advance the clock.
        self._remove(flow, index)
        self._finish(transfer)
        self._recompute_rates()

    def _finish(self, transfer: Transfer) -> None:
        transfer.remaining_bytes = 0.0
        transfer.completed_at = self._loop.now
        if self.tracer is not None:
            self.tracer.on_transfer(transfer)
        if transfer.on_complete is not None:
            transfer.on_complete(transfer)
