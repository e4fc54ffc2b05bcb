"""Serving group: one or more instances executing requests together.

A group with a single instance is the normal data-parallel deployment: the
instance holds all layers and executes whole iterations by itself.  A group
with multiple instances executes with pipeline parallelism: each instance
holds a contiguous slice of layers (its *stage*) and iterations are split
into microbatches that flow through the stages.  Groups are the unit the
KunServe drop plan manipulates — merging groups drops the duplicated layers
and enlarges the combined KV cache.

The group drives the iteration loop on the event loop (continuous
batching): form a batch, execute it (analytically), apply its effects,
repeat.  It also owns the *mechanisms* behind scheduler policy decisions:
swap transfers over PCIe, migration transfers over RDMA, stalls for KV
exchange, and the growth/shrink of the group-level paged KV cache when
parameters are dropped or restored.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.network import NetworkFabric, Transfer, TransferPriority
from repro.engine.batch import IterationBatch, MicroBatch
from repro.engine.chunked_prefill import split_into_n_microbatches
from repro.engine.instance import ServingInstance
from repro.engine.metrics import MetricsCollector
from repro.engine.pipeline import PipelineExecution
from repro.engine.request import Request, RequestState
from repro.engine.scheduler import (
    ContinuousBatchingScheduler,
    SchedulerConfig,
    SchedulerHooks,
)
from repro.memory.paged_kv import KV_BLOCK_SIZE, PagedKVCache
from repro.models.memory import kv_bytes_per_token
from repro.models.spec import ModelSpec
from repro.simulation.event_loop import Event, EventLoop

#: Type of the pluggable microbatch-formation function: takes an iteration's
#: batch (prefill chunks plus its decode summary and FCFS prefix bases) and
#: the number of pipeline stages, returns microbatches.
MicrobatchFormer = Callable[[IterationBatch, int], List[MicroBatch]]


class ServingGroup:
    """A set of instances that together hold one complete copy of the model."""

    def __init__(
        self,
        group_id: int,
        instances: Sequence[ServingInstance],
        model: ModelSpec,
        loop: EventLoop,
        fabric: NetworkFabric,
        metrics: MetricsCollector,
        *,
        scheduler_config: Optional[SchedulerConfig] = None,
        assignment: Optional[List[List[int]]] = None,
        microbatch_former: Optional[MicrobatchFormer] = None,
    ) -> None:
        if not instances:
            raise ValueError("a serving group needs at least one instance")
        self.group_id = group_id
        self.instances: List[ServingInstance] = list(instances)
        self.model = model
        self.loop = loop
        self.fabric = fabric
        self.metrics = metrics
        self._kv_token_bytes = kv_bytes_per_token(model)

        if assignment is None:
            assignment = self._default_assignment()
        self._assignment: List[List[int]] = [list(layers) for layers in assignment]
        self._validate_assignment()

        #: every pass is priced on the first instance's latency model: a
        #: ClusterSpec is homogeneous, so each stage's would price it alike.
        #: A single-stage group prices over its one layer slice.
        self._latency = self.instances[0].latency
        self._stage_layers = len(self._assignment[0])

        self.kv = PagedKVCache(num_blocks=0, block_size=KV_BLOCK_SIZE)
        # A pipelined group keeps every stage busy by processing one token
        # budget's worth of work per stage per iteration, so the effective
        # iteration budget scales with the number of stages.
        base_config = scheduler_config if scheduler_config is not None else SchedulerConfig()
        effective_config = SchedulerConfig(
            token_budget=base_config.token_budget * max(1, len(self.instances)),
            max_running_requests=base_config.max_running_requests,
            preemption_mode=base_config.preemption_mode,
        )
        self.scheduler = ContinuousBatchingScheduler(
            self.kv,
            effective_config,
            hooks=SchedulerHooks(
                on_swap_out=self._handle_swap_out,
                on_swap_in=self._handle_swap_in,
            ),
        )
        self.sync_kv_capacity()

        self.microbatch_former: MicrobatchFormer = (
            microbatch_former if microbatch_former is not None else split_into_n_microbatches
        )
        #: extra latency added to every inter-stage activation transfer while
        #: an *uncoordinated* bulk exchange is hogging the links (§4.2).
        self.activation_interference_s: float = 0.0
        self.active: bool = True
        self._busy: bool = False
        self._pending_kick: Optional[Event] = None
        self._inflight_completion: Optional[Event] = None
        #: the pass in flight: its batch, start time and bubble fraction
        #: (``None`` on a single stage).  A group runs one pass at a time.
        self._pass: Optional[IterationBatch] = None
        self._pass_start = 0.0
        self._pass_bubble: Optional[float] = None
        # Event names are precomputed: kick/iteration events are scheduled
        # thousands of times per simulated second, and building an f-string
        # per event was a measurable share of the loop's allocations.
        self._kick_name = f"group{group_id}-kick"
        self._wake_name = f"group{group_id}-wake"
        self._iter_name = f"group{group_id}-iter"

        #: observers notified after every completed iteration
        #: ``(group, batch, end_time)``.
        self.iteration_listeners: List[Callable[["ServingGroup", IterationBatch, float], None]] = []
        #: observers notified when a request finishes ``(request)``.
        self.finish_listeners: List[Callable[[Request], None]] = []
        #: per-request span recorder (``repro.trace``); ``None`` keeps the
        #: hot path at a single pointer comparison per hook site.
        self.tracer = None
        self.trace_track = f"engine/group{group_id}"

    # ------------------------------------------------------------------
    # Topology / assignment
    # ------------------------------------------------------------------
    def _default_assignment(self) -> List[List[int]]:
        """Derive the stage assignment from what each instance has loaded."""
        assignment = []
        for instance in self.instances:
            layers = instance.resident_layers
            assignment.append(layers if layers else list(range(self.model.num_layers)))
        return assignment

    def _validate_assignment(self) -> None:
        if len(self._assignment) != len(self.instances):
            raise ValueError("assignment must have one entry per instance")
        covered = sorted(layer for layers in self._assignment for layer in layers)
        expected = list(range(self.model.num_layers))
        if covered != expected:
            raise ValueError(
                "stage assignment must cover every model layer exactly once; "
                f"got {len(covered)} layers for a {self.model.num_layers}-layer model"
            )

    @property
    def num_stages(self) -> int:
        return len(self.instances)

    @property
    def assignment(self) -> List[List[int]]:
        return [list(layers) for layers in self._assignment]

    # ------------------------------------------------------------------
    # KV capacity management
    # ------------------------------------------------------------------
    def kv_capacity_bytes(self) -> int:
        return sum(inst.kv_capacity_bytes for inst in self.instances)

    def kv_capacity_tokens(self) -> int:
        return self.kv.capacity_tokens

    def kv_used_tokens(self) -> int:
        return self.kv.used_tokens

    def kv_used_bytes(self) -> int:
        return self.kv.used_blocks * KV_BLOCK_SIZE * self._kv_token_bytes

    def kv_demand_bytes(self) -> int:
        """In-processing + head-of-line memory demand (paper's load metric)."""
        return self.scheduler.total_demand_tokens() * self._kv_token_bytes

    def sync_kv_capacity(self) -> None:
        """Align the group KV cache with the instances' mapped KV memory."""
        target_blocks = self.kv_capacity_bytes() // (KV_BLOCK_SIZE * self._kv_token_bytes)
        if target_blocks > self.kv.num_blocks:
            self.kv.grow(target_blocks - self.kv.num_blocks)
        elif target_blocks < self.kv.num_blocks:
            shrink = min(self.kv.num_blocks - target_blocks, self.kv.free_blocks)
            self.kv.shrink(shrink)

    # ------------------------------------------------------------------
    # Request intake
    # ------------------------------------------------------------------
    def enqueue(self, request: Request) -> None:
        """Accept a newly-dispatched request."""
        request.owner_group = self.group_id
        if self.tracer is not None:
            self.tracer.on_enqueued(request, self.group_id)
        self.scheduler.add_request(request)
        self.kick()

    def adopt_running(self, request: Request, kv_tokens: int) -> None:
        """Adopt an in-flight request whose KV is (being) moved here."""
        request.owner_group = self.group_id
        self.scheduler.add_running(request, kv_tokens)
        self.kick()

    def adopt_waiting(self, request: Request, *, front: bool = False) -> None:
        """Adopt a queued request from another group."""
        request.owner_group = self.group_id
        self.scheduler.add_request(request, front=front)
        self.kick()

    def evacuate(self) -> Tuple[List[Tuple[Request, int]], List[Request]]:
        """Take every request off this group, before it is retired.

        Returns the running requests with their KV tokens, in the order
        they started running, then the queued ones: the waiting in FCFS
        order, then the swapped, reset to recompute (their KV cannot
        follow them off the group's host).  Merge, restore and both fault
        paths re-home what this returns.
        """
        scheduler = self.scheduler
        running = [(request, scheduler.remove_request(request)) for request in scheduler.running]
        queued = sorted(scheduler.waiting, key=lambda r: (r.arrival_time, r.request_id))
        for request in queued:
            scheduler.remove_request(request)
        for request in list(scheduler.swapped):
            scheduler.remove_request(request)
            request.reset_for_recompute()
            queued.append(request)
        return running, queued

    # ------------------------------------------------------------------
    # Iteration loop
    # ------------------------------------------------------------------
    def kick(self) -> None:
        """Ensure an iteration attempt is scheduled if the group is idle."""
        if not self.active or self._busy:
            return
        if self._pending_kick is not None and not self._pending_kick.cancelled:
            return
        self._pending_kick = self.loop.schedule(0.0, self._run_iteration, name=self._kick_name)

    def deactivate(self) -> None:
        """Stop serving (the group was merged away or its node failed).

        Any in-flight iteration is abandoned: its requests are about to be
        re-owned by another group, so letting the stale completion run would
        double-apply their progress.  The lost iteration models the (small)
        disruption of reconfiguring the cluster mid-flight.
        """
        self.active = False
        if self._pending_kick is not None:
            self._pending_kick.cancel()
            self._pending_kick = None
        if self._inflight_completion is not None:
            self._inflight_completion.cancel()
            self._inflight_completion = None
        self._busy = False

    def _run_iteration(self) -> None:
        self._pending_kick = None
        if not self.active or self._busy:
            return
        now = self.loop.now
        batch = self.scheduler.form_batch(now)
        if batch.empty:
            self._schedule_wakeup(now)
            return
        duration, self._pass_bubble = self._execute(batch)
        self._busy = True
        self._pass = batch
        self._pass_start = now
        self._inflight_completion = self.loop.schedule_at(
            now + duration, self._complete_iteration, name=self._iter_name
        )

    def _schedule_wakeup(self, now: float) -> None:
        """When idle but stalled work exists, wake up at the stall expiry."""
        expiry = self.scheduler.next_stall_expiry(now)
        if expiry is None:
            return
        if self._pending_kick is not None and not self._pending_kick.cancelled:
            return
        self._pending_kick = self.loop.schedule_at(
            expiry, self._run_iteration, name=self._wake_name
        )

    def _execute(self, batch: IterationBatch) -> Tuple[float, Optional[float]]:
        """Compute the iteration's duration and bubble fraction (``None``
        on a single stage, which has no bubble)."""
        # The chunk list is handed to the latency model without copying:
        # neither path mutates it, and the copy showed up per iteration.
        if len(self.instances) == 1:
            if not batch.chunks:
                return self._latency.decode_batch_time(
                    batch.decode_count, batch.decode_prefix_sum, self._stage_layers
                ), None
            duration = self._latency.batch_time(
                batch.chunks,
                num_layers=self._stage_layers,
                decodes=(batch.decode_count, batch.decode_prefix_sum),
            )
            return duration, None

        # The formers deal decodes from their prefix bases, which the
        # scheduler hands out only on request: the cohort it keeps them for
        # changes after this pass.
        batch.decode_bases = self.scheduler.decode_bases()
        microbatches = self.microbatch_former(batch, self.num_stages)
        if not microbatches:
            return 0.0, 0.0
        stage_times: List[List[float]] = []
        comm_times: List[List[float]] = []
        last_stage = self.num_stages - 1
        # A stage's time depends only on its layer count and whether it
        # runs the lm head, so each distinct layer count is priced once per
        # microbatch, both head flags in one pass over the chunks.
        for microbatch in microbatches:
            decodes = (microbatch.decode_count, microbatch.decode_prefix_sum)
            row = []
            stage_memo: Dict[Tuple[int, bool], float] = {}
            for stage in range(self.num_stages):
                key = (max(1, len(self._assignment[stage])), stage == last_stage)
                duration = stage_memo.get(key)
                if duration is None:
                    without_head, with_head, mb_tokens = self._latency.batch_time_pair(
                        microbatch.chunks, num_layers=key[0], decodes=decodes
                    )
                    stage_memo[(key[0], False)] = without_head
                    stage_memo[(key[0], True)] = with_head
                    duration = stage_memo[key]
                row.append(duration)
            stage_times.append(row)
            # The first stage always prices, so ``mb_tokens`` is this
            # microbatch's token count.
            comm_times.append([
                self._activation_transfer_time(
                    self.instances[stage], self.instances[stage + 1], mb_tokens
                )
                for stage in range(last_stage)
            ])
        stats = PipelineExecution.makespan(stage_times, comm_times=comm_times)
        # Steady-state correction: across consecutive iterations the pipeline
        # stays full (the next iteration's first microbatches enter while the
        # previous one drains), so the fill time of the first microbatch is
        # not paid per iteration.  The drain imbalance still is — that is the
        # bubble the lookahead formulation attacks.
        fill_time = sum(stage_times[0][s] + comm_times[0][s] for s in range(self.num_stages - 1))
        max_stage_busy = max(stats.stage_busy) if stats.stage_busy else 0.0
        duration = max(max_stage_busy, stats.makespan - fill_time)
        if duration <= 0:
            return 0.0, 0.0
        capacity = duration * self.num_stages
        bubble_fraction = max(0.0, 1.0 - stats.total_busy / capacity)
        return duration, bubble_fraction

    def _activation_transfer_time(
        self, src: ServingInstance, dst: ServingInstance, tokens: int
    ) -> float:
        activation_bytes = tokens * self.model.activation_bytes_per_token()
        if src.server_id == dst.server_id and src.gpus[0].spec.nvlink_bandwidth > 0:
            bandwidth = src.gpus[0].spec.nvlink_bandwidth
        else:
            bandwidth = min(
                self.fabric.node_bandwidth(src.nic_node()),
                self.fabric.node_bandwidth(dst.nic_node()),
            )
        base = 5e-6 + activation_bytes / bandwidth
        return base + self.activation_interference_s

    def _complete_iteration(self) -> None:
        """The pass in flight ends now: apply it, record its tokens (and
        bubble), tell the listeners, and form the next one."""
        now = self.loop.now
        self._inflight_completion = None
        batch = self._pass
        finished = self.scheduler.complete_batch(batch, now)
        for request in finished:
            self.metrics.record_request(request)
            for listener in self.finish_listeners:
                listener(request)
        if self._pass_bubble is None:
            self.metrics.throughput.add(now, float(batch.total_new_tokens))
        else:
            self.metrics.record_iteration(now, batch.total_new_tokens, self._pass_bubble)
        for listener in self.iteration_listeners:
            listener(self, batch, now)
        # Without detail spans, a pass matters to the tracer only for the
        # first execution of its prefill chunks.
        tracer = self.tracer
        if tracer is not None and (batch.chunks or tracer.details):
            tracer.on_iteration(self, batch, self._pass_start, now)
        self._busy = False
        if self.active:
            self._run_iteration()

    # ------------------------------------------------------------------
    # Stalls (KV exchange, swap-in, migration)
    # ------------------------------------------------------------------
    def stall_request(self, request: Request, until: float) -> None:
        """Block ``request`` from being scheduled before ``until``.

        The only way a stall is raised: the scheduler running the request
        takes it out of its decode cohort until the stall passes.
        """
        request.stall_until = max(request.stall_until, until)
        if request.scheduler is not None:
            request.scheduler.stall(request)

    def end_stall(self, request: Request) -> None:
        """The transfer ``request`` waited on landed: it may run from now."""
        request.stall_until = min(request.stall_until, self.loop.now)
        if request.scheduler is not None:
            request.scheduler.stall_lowered(request)

    # ------------------------------------------------------------------
    # Swap mechanism (InferCept baseline)
    # ------------------------------------------------------------------
    def _handle_swap_out(self, request: Request) -> None:
        """Move the victim's KV cache to host DRAM over PCIe."""
        instance = self.instances[0]
        size = request.context_tokens * self._kv_token_bytes
        self.fabric.submit(
            instance.host_node(),
            instance.host_node(),
            size,
            priority=TransferPriority.BULK,
            tag=f"swap-out-{request.request_id}",
            on_complete=lambda t, r=request: self._finish_swap_out(r, t),
        )
        eta = size / self.fabric.node_bandwidth(instance.host_node())
        self.stall_request(request, self.loop.now + eta)

    def _finish_swap_out(self, request: Request, _transfer: Transfer) -> None:
        # Nothing further to do: the memory was already released when the
        # scheduler freed the victim's blocks; the stall just models the
        # PCIe occupancy before the request can be swapped back in.
        self.kick()

    def _handle_swap_in(self, request: Request) -> None:
        """Bring a swapped request's KV back from host DRAM."""
        instance = self.instances[0]
        size = request.context_tokens * self._kv_token_bytes
        transfer = self.fabric.submit(
            instance.host_node(),
            instance.host_node(),
            size,
            priority=TransferPriority.BULK,
            tag=f"swap-in-{request.request_id}",
            on_complete=lambda t, r=request: self._finish_swap_in(r, t),
        )
        eta = size / self.fabric.node_bandwidth(instance.host_node())
        self.stall_request(request, self.loop.now + eta)

    def _finish_swap_in(self, request: Request, _transfer: Transfer) -> None:
        self.end_stall(request)
        self.kick()

    # ------------------------------------------------------------------
    # Migration mechanism (Llumnix baseline)
    # ------------------------------------------------------------------
    def migrate_request_to(self, request: Request, destination: "ServingGroup") -> bool:
        """Move a running request (and its KV cache) to another group.

        Returns False when the destination cannot hold the request's KV.
        """
        tokens = self.scheduler.kv_tokens_of(request)
        if tokens == 0:
            tokens = request.context_tokens
        if not destination.kv.can_allocate(request.request_id, tokens):
            return False
        self.scheduler.remove_request(request)
        request.state = RequestState.MIGRATING
        request.migration_count += 1
        destination.adopt_running(request, tokens)

        size = tokens * self._kv_token_bytes
        src_node = self.instances[0].nic_node()
        dst_node = destination.instances[0].nic_node()
        if self.tracer is not None:
            self.tracer.on_migration_start(
                request, self.trace_track, destination.trace_track
            )
        if src_node == dst_node:
            # Same server: treat as an instantaneous device-to-device copy.
            request.state = RequestState.RUNNING
            if self.tracer is not None:
                self.tracer.on_migration_end(request)
            destination.kick()
            return True
        eta = self.fabric.estimate_transfer_time(src_node, dst_node, size, exclusive=False)
        destination.stall_request(request, self.loop.now + eta)
        self.fabric.submit(
            src_node,
            dst_node,
            size,
            priority=TransferPriority.BULK,
            tag=f"migrate-{request.request_id}",
            on_complete=lambda t, r=request, d=destination: self._finish_migration(r, d, t),
        )
        return True

    def _finish_migration(self, request: Request, destination: "ServingGroup", _t: Transfer) -> None:
        if self.tracer is not None:
            self.tracer.on_migration_end(request)
        if not request.finished:
            request.state = RequestState.RUNNING
            destination.end_stall(request)
        destination.kick()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def load_snapshot(self) -> Dict[str, float]:
        """Load metrics used by the dispatcher and the global monitor."""
        capacity = self.kv_capacity_bytes()
        return {
            "group_id": float(self.group_id),
            "num_stages": float(self.num_stages),
            "kv_capacity_bytes": float(capacity),
            "kv_used_bytes": float(self.kv_used_bytes()),
            "kv_demand_bytes": float(self.kv_demand_bytes()),
            "num_running": float(self.scheduler.num_running),
            "num_waiting": float(self.scheduler.num_waiting),
            "num_swapped": float(self.scheduler.num_swapped),
            "memory_blocked": 1.0 if self.scheduler.memory_blocked else 0.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ServingGroup(id={self.group_id}, stages={self.num_stages}, "
            f"running={self.scheduler.num_running}, waiting={self.scheduler.num_waiting})"
        )
