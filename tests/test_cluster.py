"""Tests for the cluster hardware substrate (GPUs, servers, network)."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cluster.cluster import Cluster, ClusterSpec
from repro.cluster.gpu import GPUSpec
from repro.cluster.network import NetworkFabric, TransferPriority
from repro.cluster.specs import A800_80GB, H800_80GB, cluster_a_spec, cluster_b_spec
from repro.simulation.event_loop import Event, EventLoop


class TestGPUSpec:
    def test_a800_capacity(self):
        assert A800_80GB.hbm_bytes == 80 * 1024 ** 3
        assert A800_80GB.nvlink_bandwidth == 0.0

    def test_h800_has_nvlink(self):
        assert H800_80GB.nvlink_bandwidth > 0

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            GPUSpec(name="bad", hbm_bytes=0, fp16_tflops=1.0, hbm_bandwidth=1.0)

    def test_flops_conversion(self):
        assert A800_80GB.flops == pytest.approx(312e12)


class TestClusterTopology:
    def test_cluster_a_shape(self):
        cluster = Cluster(cluster_a_spec(8))
        assert cluster.num_gpus == 8
        assert len(cluster.servers) == 8
        assert all(s.num_gpus == 1 for s in cluster.servers)

    def test_cluster_b_shape(self):
        cluster = Cluster(cluster_b_spec(2))
        assert cluster.num_gpus == 16
        assert len(cluster.servers) == 2

    def test_gpu_groups_single(self):
        cluster = Cluster(cluster_a_spec(4))
        groups = cluster.gpu_groups(1)
        assert len(groups) == 4
        assert all(len(g) == 1 for g in groups)

    def test_gpu_groups_tp4_stay_in_server(self):
        cluster = Cluster(cluster_b_spec(2))
        groups = cluster.gpu_groups(4)
        assert len(groups) == 4
        for group in groups:
            assert len({gpu.server_id for gpu in group}) == 1

    def test_gpu_groups_spanning_servers(self):
        cluster = Cluster(cluster_b_spec(2))
        groups = cluster.gpu_groups(16)
        assert len(groups) == 1
        assert len(groups[0]) == 16

    def test_fabric_nodes_registered(self):
        cluster = Cluster(cluster_a_spec(2))
        assert cluster.fabric.has_node(Cluster.nic_node(0))
        assert cluster.fabric.has_node(Cluster.host_node(1))

    def test_server_of_gpu(self):
        cluster = Cluster(cluster_b_spec(2))
        assert cluster.server_of_gpu(9).server_id == 1
        with pytest.raises(KeyError):
            cluster.server_of_gpu(999)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            ClusterSpec(
                name="bad",
                gpu_spec=A800_80GB,
                num_servers=0,
                gpus_per_server=1,
                nic_bandwidth=1.0,
                pcie_bandwidth=1.0,
            )


class TestNetworkFabric:
    def _fabric(self):
        loop = EventLoop()
        fabric = NetworkFabric(loop)
        fabric.add_node("a", 100.0)
        fabric.add_node("b", 100.0)
        fabric.add_node("c", 50.0)
        return loop, fabric

    def test_single_transfer_duration(self):
        loop, fabric = self._fabric()
        done = []
        fabric.submit("a", "b", 1000.0, on_complete=lambda t: done.append(loop.now))
        loop.run()
        assert done == [pytest.approx(10.0)]

    def test_transfer_limited_by_slower_endpoint(self):
        loop, fabric = self._fabric()
        done = []
        fabric.submit("a", "c", 1000.0, on_complete=lambda t: done.append(loop.now))
        loop.run()
        assert done == [pytest.approx(20.0)]

    def test_bulk_transfers_share_bandwidth(self):
        loop, fabric = self._fabric()
        done = []
        fabric.submit("a", "b", 1000.0, on_complete=lambda t: done.append(("x", loop.now)))
        fabric.submit("a", "b", 1000.0, on_complete=lambda t: done.append(("y", loop.now)))
        loop.run()
        # Two equal transfers sharing a 100 B/s node finish together at ~20 s.
        assert all(t == pytest.approx(20.0, rel=0.01) for _, t in done)

    def test_activation_priority_preempts_bulk(self):
        loop, fabric = self._fabric()
        finish = {}
        fabric.submit("a", "b", 1000.0, priority=TransferPriority.BULK,
                      on_complete=lambda t: finish.setdefault("bulk", loop.now))
        fabric.submit("a", "b", 100.0, priority=TransferPriority.ACTIVATION,
                      on_complete=lambda t: finish.setdefault("act", loop.now))
        loop.run()
        assert finish["act"] < finish["bulk"]
        # Activation is barely slowed down (gets ~full bandwidth).
        assert finish["act"] == pytest.approx(1.0, rel=0.3)

    def test_zero_byte_transfer_completes(self):
        loop, fabric = self._fabric()
        done = []
        fabric.submit("a", "b", 0.0, on_complete=lambda t: done.append(loop.now))
        loop.run()
        assert done == [0.0]

    def test_cancel_prevents_completion(self):
        loop, fabric = self._fabric()
        done = []
        transfer = fabric.submit("a", "b", 1000.0, on_complete=lambda t: done.append(1))
        fabric.cancel(transfer)
        loop.run()
        assert done == []

    def test_unknown_node_rejected(self):
        loop, fabric = self._fabric()
        with pytest.raises(KeyError):
            fabric.submit("a", "nope", 10.0)

    def test_estimate_transfer_time(self):
        _, fabric = self._fabric()
        assert fabric.estimate_transfer_time("a", "c", 500.0) == pytest.approx(10.0)

    def test_conservation_of_bytes(self):
        loop, fabric = self._fabric()
        sizes = [100.0, 400.0, 900.0]
        completed = []
        for size in sizes:
            fabric.submit("a", "b", size, on_complete=completed.append)
        loop.run()
        assert len(completed) == 3
        assert sorted(t.size_bytes for t in completed) == sorted(sizes)
        assert all(t.remaining_bytes == 0 for t in completed)


# ---------------------------------------------------------------------------
# Reference: the per-transfer fabric the flow-grouped one must reproduce.
# ---------------------------------------------------------------------------
@dataclass(slots=True)
class ReferenceTransfer:
    """The per-transfer record :class:`ReferenceFabric` updates in place."""

    transfer_id: int
    src: str
    dst: str
    size_bytes: float
    priority: TransferPriority
    on_complete: Optional[Callable[["ReferenceTransfer"], None]] = None
    tag: str = ""

    remaining_bytes: float = field(init=False)
    submitted_at: float = field(default=0.0)
    completed_at: Optional[float] = field(default=None)
    current_rate: float = field(default=0.0)
    _last_update: float = field(default=0.0)
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


class ReferenceFabric:
    """The per-transfer fluid-flow fabric that preceded flow grouping,
    verbatim: every operation visits every active transfer."""

    def __init__(self, loop: EventLoop) -> None:
        self._loop = loop
        self._node_bandwidth: Dict[str, float] = {}
        self._active: Dict[int, ReferenceTransfer] = {}
        self._counter = itertools.count()
        self.completed_transfers: List[ReferenceTransfer] = []
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
        on_complete: Optional[Callable[[ReferenceTransfer], None]] = None,
        tag: str = "",
    ) -> ReferenceTransfer:
        """Start a transfer of ``size_bytes`` from ``src`` to ``dst``."""
        for node in (src, dst):
            if node not in self._node_bandwidth:
                raise KeyError(f"unknown fabric node: {node!r}")
        transfer = ReferenceTransfer(
            transfer_id=next(self._counter),
            src=src,
            dst=dst,
            size_bytes=size_bytes,
            priority=priority,
            on_complete=on_complete,
            tag=tag,
            submitted_at=self._loop.now,
        )
        transfer._last_update = self._loop.now
        if size_bytes <= 0:
            # Zero-byte transfers complete immediately (still asynchronously,
            # so callers see a uniform callback discipline).
            self._loop.schedule(0.0, lambda t=transfer: self._finish(t))
            return transfer
        self._active[transfer.transfer_id] = transfer
        self._recompute_rates()
        return transfer

    def cancel(self, transfer: ReferenceTransfer) -> None:
        """Abort an in-flight transfer; its callback will not run."""
        if transfer.transfer_id not in self._active:
            return
        transfer.cancelled = True
        self._advance_progress()
        del self._active[transfer.transfer_id]
        self._recompute_rates()

    def active_transfers(self, node: Optional[str] = None) -> List[ReferenceTransfer]:
        """Transfers currently in flight, optionally filtered to one node."""
        transfers = list(self._active.values())
        if node is None:
            return transfers
        return [t for t in transfers if t.src == node or t.dst == node]

    def estimate_transfer_time(
        self, src: str, dst: str, size_bytes: float, *, exclusive: bool = True
    ) -> float:
        """Lower-bound time to move ``size_bytes`` between two nodes.

        With ``exclusive=True`` the estimate assumes the transfer gets the
        whole link; otherwise it accounts for the currently active
        transfers' shares.
        """
        bandwidth = min(self._node_bandwidth[src], self._node_bandwidth[dst])
        if exclusive:
            return size_bytes / bandwidth
        contenders = 1 + len(
            {t.transfer_id for t in self.active_transfers(src)}
            | {t.transfer_id for t in self.active_transfers(dst)}
        )
        return size_bytes * contenders / bandwidth

    # ------------------------------------------------------------------
    # Internal fluid-flow machinery
    # ------------------------------------------------------------------
    def _advance_progress(self) -> None:
        """Apply the current rates to all active transfers up to `now`."""
        now = self._loop.now
        for transfer in self._active.values():
            elapsed = now - transfer._last_update
            if elapsed > 0:
                transfer.remaining_bytes = max(
                    0.0, transfer.remaining_bytes - transfer.current_rate * elapsed
                )
            transfer._last_update = now

    def _recompute_rates(self) -> None:
        """Recompute every active transfer's rate and completion event.

        Runs on every submit/complete/cancel with O(active) cost, so the
        two passes are kept tight: the endpoint counting is unrolled (no
        per-transfer tuple), and progress advancement is fused into the
        rate-assignment pass (each transfer's advance only reads its own
        pre-recompute rate, so fusing is result-identical to advancing all
        transfers first).
        """
        now = self._loop.now
        active = self._active
        # Count per-node demand at each priority level.  Per-node *share*
        # is then computed once per (node, priority) instead of once per
        # transfer endpoint.
        per_node_high: Dict[str, int] = {}
        per_node_total: Dict[str, int] = {}
        total_get = per_node_total.get
        high_get = per_node_high.get
        activation = TransferPriority.ACTIVATION
        for transfer in active.values():
            src = transfer.src
            dst = transfer.dst
            per_node_total[src] = total_get(src, 0) + 1
            per_node_total[dst] = total_get(dst, 0) + 1
            if transfer.priority == activation:
                per_node_high[src] = high_get(src, 0) + 1
                per_node_high[dst] = high_get(dst, 0) + 1

        high_share: Dict[str, float] = {}
        bulk_share: Dict[str, float] = {}
        node_bandwidth = self._node_bandwidth
        for node, total in per_node_total.items():
            bandwidth = node_bandwidth[node]
            high = high_get(node, 0)
            high_share[node] = bandwidth / max(1, high)
            # Bulk transfers share the bandwidth left over after the
            # high-priority class; we conservatively give the high class
            # 90% of the node while it is active.
            leftover = bandwidth * (0.1 if high > 0 else 1.0)
            bulk_share[node] = leftover / max(1, total - high)

        # Pick the transfer that completes earliest under the new rates and
        # keep a single completion event for it.  Ties resolve to the first
        # transfer in insertion order, matching the seq tie-break the heap
        # applied when every transfer carried its own event.
        next_transfer: Optional[ReferenceTransfer] = None
        next_eta = 0.0
        for transfer in active.values():
            elapsed = now - transfer._last_update
            if elapsed > 0:
                remaining = transfer.remaining_bytes - transfer.current_rate * elapsed
                transfer.remaining_bytes = remaining if remaining > 0.0 else 0.0
            transfer._last_update = now
            share = high_share if transfer.priority == activation else bulk_share
            src_share = share[transfer.src]
            dst_share = share[transfer.dst]
            rate = src_share if src_share <= dst_share else dst_share
            transfer.current_rate = rate
            if rate <= 0:
                continue
            eta = transfer.remaining_bytes / rate
            if next_transfer is None or eta < next_eta:
                next_transfer = transfer
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

    def _maybe_complete(self, transfer: ReferenceTransfer) -> None:
        self._next_completion = None
        if transfer.transfer_id not in self._active:
            # Stale event (the transfer was cancelled); re-arm the chain for
            # the remaining transfers.
            self._recompute_rates()
            return
        self._advance_progress()
        remaining = transfer.remaining_bytes
        rate = transfer.current_rate
        now = self._loop.now
        if remaining > 1e-6 and rate > 0 and now + remaining / rate > now:
            # Floating-point residue the advance underestimated, and the
            # clock can still make progress on it: re-arm with a fresh
            # (tiny) completion event instead of finishing early.
            self._recompute_rates()
            return
        # Done — or a sub-ulp residue that could never advance the clock.
        del self._active[transfer.transfer_id]
        self._finish(transfer)
        self._recompute_rates()

    def _finish(self, transfer: ReferenceTransfer) -> None:
        transfer.remaining_bytes = 0.0
        transfer.completed_at = self._loop.now
        self.completed_transfers.append(transfer)
        if self.tracer is not None:
            self.tracer.on_transfer(transfer)
        if transfer.on_complete is not None:
            transfer.on_complete(transfer)


NODES = ("a", "b", "c")
#: Not powers of two, so shares and steps round.
BANDWIDTHS = (3.0, 7.0, 25e9 / 3)
SIZES = (0.0, 1.0, 1.75, math.nextafter(1.75, 2.0), 3.0, 10.0, 40.0, 1e9 / 7)

node = st.sampled_from(NODES)
operation = st.one_of(
    st.tuples(
        st.just("submit"),
        node,
        node,
        st.sampled_from(tuple(TransferPriority)),
        st.one_of(st.sampled_from(SIZES), st.floats(0.0, 50.0)),
    ),
    st.tuples(
        st.just("run"),
        st.one_of(st.sampled_from((0.0, 0.1, 1.0 / 3)), st.floats(1e-6, 3.0)),
    ),
    st.tuples(st.just("cancel"), st.integers(0, 1_000)),
    st.tuples(st.just("bandwidth"), node, st.sampled_from(BANDWIDTHS + (1.5, 11.0))),
)


def drive(fabric_cls, operations):
    """Run ``operations`` on a fresh fabric; return what callers observe.

    That is the completion log (submit index, instant) in order, the
    remaining bytes of each cancelled transfer, the shared-bandwidth
    estimate of every node pair after every operation, and the number of
    events the loop ran.
    """
    loop = EventLoop()
    fabric = fabric_cls(loop)
    for name, bandwidth in zip(NODES, BANDWIDTHS):
        fabric.add_node(name, bandwidth)
    transfers = []
    completions = []
    cancelled = []
    estimates = []
    for kind, *args in operations:
        if kind == "submit":
            src, dst, priority, size = args
            index = len(transfers)
            transfers.append(fabric.submit(
                src, dst, size, priority=priority,
                on_complete=lambda t, i=index: completions.append((i, loop.now)),
            ))
        elif kind == "run":
            loop.run(until=loop.now + args[0])
        elif kind == "cancel":
            live = [t for t in transfers if t.completed_at is None and not t.cancelled]
            if live:
                victim = live[args[0] % len(live)]
                fabric.cancel(victim)
                cancelled.append((victim.transfer_id, victim.remaining_bytes))
        else:
            fabric.set_node_bandwidth(*args)
        estimates.append([
            fabric.estimate_transfer_time(src, dst, 1.75, exclusive=False)
            for src in NODES for dst in NODES
        ])
    loop.run()
    return completions, cancelled, estimates, loop.events_executed


class TestFlowFabricMatchesReference:
    """The flow-grouped fabric is bit-identical to the per-transfer one."""

    @settings(max_examples=300, deadline=None)
    @given(operations=st.lists(operation, max_size=60))
    @example(operations=[  # a transfer joins a flow whose member has moved
        ("submit", "a", "b", TransferPriority.BULK, 10.0),
        ("run", 1.0),
        ("submit", "a", "b", TransferPriority.BULK, 10.0),
    ])
    @example(operations=[  # a self-loop holds two endpoints of its node
        ("submit", "a", "a", TransferPriority.BULK, 10.0),
        ("submit", "a", "b", TransferPriority.BULK, 10.0),
    ])
    def test_random_operation_sequences(self, operations):
        assert drive(NetworkFabric, operations) == drive(ReferenceFabric, operations)

    def test_equal_eta_tie_goes_to_the_earlier_submit(self):
        # At 3.0 B/s on both nodes the two transfers share 1.5 B/s, and
        # 1.75 and the next float up both take 1.1666666666666667 s: the
        # earlier (larger) transfer must finish first.
        operations = [
            ("bandwidth", "b", 3.0),
            ("submit", "a", "b", TransferPriority.BULK, math.nextafter(1.75, 2.0)),
            ("submit", "a", "b", TransferPriority.BULK, 1.75),
        ]
        completions = drive(NetworkFabric, operations)[0]
        assert completions == drive(ReferenceFabric, operations)[0]
        assert [index for index, _ in completions] == [0, 1]
