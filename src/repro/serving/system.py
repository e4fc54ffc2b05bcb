"""End-to-end cluster serving system.

Builds the whole stack (cluster, instances, groups, dispatcher, monitor,
policy) from a :class:`ServingConfig`, replays a workload trace through it,
and returns the collected metrics.  This is the object every experiment
module drives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.cluster import Cluster
from repro.engine.group import MicrobatchFormer, ServingGroup
from repro.engine.instance import ServingInstance
from repro.engine.metrics import MetricsCollector, RequestRecord
from repro.engine.request import Request
from repro.engine.scheduler import SchedulerConfig
from repro.fleet.controller import FleetController
from repro.models.memory import kv_bytes_per_token
from repro.models.spec import ModelSpec
from repro.policies.base import OverloadPolicy
from repro.serving.config import ServingConfig
from repro.serving.dispatcher import Dispatcher
from repro.serving.monitor import MONITOR_INTERVAL_S, GlobalMonitor
from repro.simulation.event_loop import EventLoop
from repro.workloads.trace import Workload


@dataclass
class SimulationResult:
    """Outcome of replaying one workload on one system configuration."""

    system_name: str
    workload_name: str
    metrics: MetricsCollector
    records: List[RequestRecord]
    duration_s: float
    submitted_requests: int
    finished_requests: int
    summary: Dict[str, float] = field(default_factory=dict)

    @property
    def completion_ratio(self) -> float:
        if self.submitted_requests == 0:
            return 1.0
        return self.finished_requests / self.submitted_requests


class ClusterServingSystem:
    """A cluster of serving instances behind a dispatcher and a monitor."""

    def __init__(
        self,
        config: ServingConfig,
        policy: OverloadPolicy,
        *,
        loop: Optional[EventLoop] = None,
    ) -> None:
        # ``loop`` lets a caller share one deterministic event loop across
        # several systems — the multicluster tier simulates N clusters in
        # lock-step on a single loop.  Default: a private loop, as before.
        self.config = config
        self.policy = policy
        self.loop = loop if loop is not None else EventLoop()
        self.cluster = Cluster(config.cluster, self.loop)
        self.fabric = self.cluster.fabric
        self.metrics = MetricsCollector()
        self.model: ModelSpec = config.model
        self.kv_token_bytes = kv_bytes_per_token(config.model)
        self._group_counter = itertools.count()

        self.instances: List[ServingInstance] = self._build_instances()
        self.groups: List[ServingGroup] = []
        #: called with each finished request, synchronously at completion —
        #: the online serving frontend's closed-loop clients hang off this.
        #: Populated before group construction: every group (including ones
        #: the autoscaler creates later) fans out through the same list.
        self.completion_listeners: List = []
        self.fleet: Optional[FleetController] = (
            FleetController(config.fleet, self) if config.fleet is not None else None
        )
        #: optional per-request span recorder (see :meth:`attach_tracer`).
        #: Initialised before group construction: ``create_group`` checks it.
        self.tracer = None
        #: cluster label used in trace track names; the multicluster tier
        #: overrides it per shard before wiring the shared tracer.
        self._trace_cluster = "0"
        self._build_initial_groups()

        self.dispatcher = Dispatcher()
        self.monitor = GlobalMonitor(
            self.loop,
            self.metrics,
            group_provider=lambda: self.groups,
            callback=self._on_monitor_tick,
        )
        self._submitted = 0
        self._all_requests: List[Request] = []
        #: built by the first :meth:`kill_instance`.
        self.fault_manager = None
        #: optional live-metrics stream (see :meth:`attach_metrics`).
        self.metrics_monitor = None
        self.policy.attach(self)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_instances(self) -> List[ServingInstance]:
        return [
            ServingInstance(index, self.model, gpus)
            for index, gpus in enumerate(self.cluster.gpu_groups(self.config.gpus_per_instance))
        ]

    def _build_initial_groups(self) -> None:
        # The fleet's autoscaler may hold back instances as spare capacity;
        # the policy lays out only the instances serving from the start.
        initial = instances = self.instances
        if self.fleet is not None:
            reserve = self.fleet.reserve_instances(len(instances))
            initial = instances[: len(instances) - reserve]
            self.fleet.autoscaler.adopt_spares(list(instances[len(initial):]))
        layout = self.policy.initial_groups(len(initial))
        for member_indices in layout:
            members = [initial[i] for i in member_indices]
            assignment = self.policy.initial_layer_assignment(
                member_indices, self.model.num_layers
            )
            for instance, layers in zip(members, assignment):
                instance.load_layers(layers)
            self.create_group(members, assignment=assignment)

    def _scheduler_config(self) -> SchedulerConfig:
        return self.policy.scheduler_config(SchedulerConfig(token_budget=self.config.token_budget))

    # ------------------------------------------------------------------
    # Group lifecycle (also used by the KunServe core)
    # ------------------------------------------------------------------
    def create_group(
        self,
        instances: List[ServingInstance],
        assignment: Optional[List[List[int]]] = None,
        microbatch_former: Optional[MicrobatchFormer] = None,
    ) -> ServingGroup:
        group = ServingGroup(
            group_id=next(self._group_counter),
            instances=instances,
            model=self.model,
            loop=self.loop,
            fabric=self.fabric,
            metrics=self.metrics,
            scheduler_config=self._scheduler_config(),
            assignment=assignment,
            microbatch_former=microbatch_former,
        )
        self.groups.append(group)
        group.finish_listeners.append(self._notify_finished)
        if self.tracer is not None:
            self._wire_group_tracer(group)
        if self.fleet is not None:
            self.fleet.on_group_created(group)
        return group

    def retire_group(self, group: ServingGroup) -> None:
        group.deactivate()
        if group in self.groups:
            self.groups.remove(group)

    @property
    def active_groups(self) -> List[ServingGroup]:
        return [g for g in self.groups if g.active]

    # ------------------------------------------------------------------
    # Request submission
    # ------------------------------------------------------------------
    def submit(self, request: Request) -> None:
        """Dispatch a request right now (through the fleet layer if present)."""
        self._submitted += 1
        self._all_requests.append(request)
        if self.tracer is not None:
            self.tracer.on_submit(request)
        if self.fleet is not None:
            self.fleet.submit(request)
        else:
            self.dispatcher.dispatch(request, self.groups)

    def submit_at(self, request: Request, time: float) -> None:
        """Schedule a request arrival at absolute simulation time ``time``."""
        self.loop.schedule_at(time, lambda r=request: self.submit(r), name="arrival")

    def schedule_workload(self, workload: Workload) -> List[Request]:
        """Register every request of a workload as a future arrival."""
        requests = workload.to_engine_requests()
        for request in requests:
            self.submit_at(request, request.arrival_time)
        return requests

    # ------------------------------------------------------------------
    # Completion / shed callbacks (online serving frontend)
    # ------------------------------------------------------------------
    def add_completion_listener(self, listener) -> None:
        """Call ``listener(request)`` whenever any group finishes a request."""
        self.completion_listeners.append(listener)

    def add_shed_listener(self, listener) -> None:
        """Call ``listener(request)`` whenever admission sheds a request.

        Shedding is an admission-layer decision, so a fleet config is
        required — a bare dispatcher accepts everything and would silently
        never fire the callback.
        """
        if self.fleet is None:
            raise ValueError(
                "shed callbacks require an admission layer: set ServingConfig.fleet"
            )
        self.fleet.admission.shed_listeners.append(listener)

    def _notify_finished(self, request: Request) -> None:
        for listener in self.completion_listeners:
            listener(request)

    def forget_request(self, request: Request) -> None:
        """Drop a request from this system's accounting entirely.

        The multicluster tier calls this when a fault displaces a request
        *off* this shard and re-homes it on a sibling — the request is
        then the sibling's to record, and keeping it here would double
        count it as unfinished at finalisation.  The ``_submitted`` intake
        counter is *not* rolled back: the submission event happened, and
        the metrics stream exposes it as a monotone Prometheus counter.
        """
        try:
            self._all_requests.remove(request)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # Chaos and metrics hooks
    # ------------------------------------------------------------------
    def _arm_chaos(self, horizon: float) -> None:
        """Schedule the config's fault events (single-cluster scope).

        Standalone systems support ``instance_kill`` faults only —
        cluster outages and WAN degradation are tier-level concepts the
        multicluster system injects itself (it builds its shards with
        ``chaos=None``, so the two never double-fire).
        """
        schedule = self.config.chaos
        if schedule is None or not schedule:
            return
        unsupported = sorted(
            {e.kind for e in schedule.events if e.kind != "instance_kill"}
        )
        if unsupported:
            raise ValueError(
                f"single-cluster runs support instance_kill faults only, "
                f"got {', '.join(unsupported)} (use a multicluster config)"
            )
        for event in schedule.events:
            if event.at_s >= horizon:
                continue
            if event.instance >= len(self.instances):
                raise ValueError(
                    f"fault targets instance {event.instance}, but the cluster "
                    f"has {len(self.instances)}"
                )
            victim = self.instances[event.instance]
            self.loop.schedule_at(
                event.at_s,
                lambda v=victim: self.kill_instance(v),
                name="chaos-instance-kill",
            )

    def kill_instance(self, instance: ServingInstance, now: Optional[float] = None):
        """Fail ``instance`` and recover the cluster in place.

        The one instance-kill path of single-cluster chaos and of the
        multicluster tier: a spare leaves the autoscaler's pool for good,
        and the fault-tolerance manager (built on first use) restores the
        survivors and re-dispatches the displaced requests.  Returns its
        :class:`~repro.core.fault_tolerance.FailureReport`, or ``None``
        when the instance had already failed.
        """
        if instance.failed:
            return None
        if self.fleet is not None:
            # A failed spare must never be re-activated by the autoscaler.
            spares = self.fleet.autoscaler.spare_instances
            if instance in spares:
                spares.remove(instance)
        if self.fault_manager is None:
            from repro.core.fault_tolerance import FaultToleranceManager

            self.fault_manager = FaultToleranceManager(self)
        return self.fault_manager.fail_instance(instance, now)

    def attach_metrics(self, *, path=None):
        """Install a :class:`repro.metrics.MetricsMonitor` on this system.

        The monitor samples the fleet/dispatcher counters every monitor
        interval into its typed ``series`` and, given a ``path``, streams
        Prometheus text scrapes there; :meth:`run` starts and stops it
        around the replay.
        """
        from repro.metrics import MetricsMonitor, fleet_metrics_source

        monitor = MetricsMonitor(self.loop, interval_s=MONITOR_INTERVAL_S, path=path)
        monitor.add_source(fleet_metrics_source(self))
        self.metrics_monitor = monitor
        return monitor

    def _wire_group_tracer(self, group: ServingGroup) -> None:
        group.tracer = self.tracer
        group.trace_track = f"cluster{self._trace_cluster}/group{group.group_id}"

    def attach_tracer(self, tracer=None, *, details: bool = True):
        """Install a :class:`repro.trace.Tracer` on this system.

        Wires the span-recording hooks through the whole stack: request
        submission, admission (dispatch / shed / route), every serving
        group's iteration loop and migration mechanism, and the
        intra-cluster network fabric.  Tracing is off by default — an
        unattached system pays one ``is not None`` check per hook site.

        ``details=False`` records no detail spans (see
        :class:`repro.trace.Tracer`).  Pass an existing ``tracer`` to share
        one recorder across systems (the multicluster tier shares its
        tracer with every shard).
        """
        from repro.trace import Tracer

        if tracer is None:
            tracer = Tracer(self.loop, details=details)
        self.tracer = tracer
        for group in self.groups:
            self._wire_group_tracer(group)
        self.fabric.tracer = tracer
        if self.fleet is not None:
            self.fleet.admission.tracer = tracer
        self.add_completion_listener(tracer.on_finished)
        return tracer

    # ------------------------------------------------------------------
    # Monitor callback
    # ------------------------------------------------------------------
    def _on_monitor_tick(self, snapshots: List[Dict[str, float]], now: float) -> None:
        self.policy.on_monitor_tick(self, snapshots, now)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(
        self,
        workload: Workload,
        *,
        until: Optional[float] = None,
        drain: bool = True,
    ) -> SimulationResult:
        """Replay ``workload`` and return the collected metrics.

        Args:
            workload: the requests to serve.
            until: optional hard stop (simulation seconds); defaults to the
                workload duration plus the drain timeout.
            drain: when True, keep simulating after the last arrival until
                every request finished or the drain timeout expires.
        """
        requests = self.schedule_workload(workload)
        horizon = until
        if horizon is None:
            horizon = workload.duration + (self.config.drain_timeout_s if drain else 0.0)
        return self._serve(horizon, workload.name, submitted=len(requests))

    def run_online(
        self,
        frontends: List,
        *,
        until: float,
        workload_name: str = "online",
    ) -> SimulationResult:
        """Serve arrivals produced *live* by ``frontends`` until the horizon.

        Unlike :meth:`run`, nothing is pre-scheduled: each frontend's
        ``start()`` begins feeding the event loop (an
        :class:`~repro.serve.gateway.OnlineGateway` keeps exactly one
        arrival of lookahead; a closed-loop client population schedules
        only its next issue), and further submissions happen as simulation
        time advances.  ``submitted_requests`` therefore counts what was
        actually submitted by the horizon, not a pre-materialised trace.
        """
        return self._serve(until, workload_name, frontends=frontends)

    def _serve(
        self,
        horizon: float,
        workload_name: str,
        *,
        frontends=(),
        submitted: Optional[int] = None,
    ) -> SimulationResult:
        """Run the loop to ``horizon`` with every process started, then
        stop them, record the unfinished requests and collect the result.
        ``submitted`` defaults to the requests submitted by the horizon."""
        self.monitor.start()
        if self.fleet is not None:
            self.fleet.start()
        self._arm_chaos(horizon)
        if self.metrics_monitor is not None:
            self.metrics_monitor.start()
        for frontend in frontends:
            frontend.start()
        self.loop.run(until=horizon)
        self.monitor.stop()
        if self.fleet is not None:
            self.fleet.stop()
        if self.metrics_monitor is not None:
            self.metrics_monitor.stop()
        self._finalize_unfinished()
        summary = self.metrics.summary()
        return SimulationResult(
            system_name=self.policy.name,
            workload_name=workload_name,
            metrics=self.metrics,
            records=list(self.metrics.records),
            duration_s=self.loop.now,
            submitted_requests=self._submitted if submitted is None else submitted,
            finished_requests=self.metrics.finished_count(),
            summary=summary,
        )

    def _finalize_unfinished(self) -> None:
        """Record requests that never finished so they count in the metrics."""
        # A decoding request's token counts live in its scheduler's cohort
        # until read; reading the running set writes them onto the request.
        for group in self.groups:
            group.scheduler.running
        recorded_ids = {record.request_id for record in self.metrics.records}
        for request in self._all_requests:
            if request.request_id not in recorded_ids:
                self.metrics.record_request(request)


def run_workload(
    workload: Workload,
    policy: OverloadPolicy,
    config: Optional[ServingConfig] = None,
    **run_kwargs,
) -> SimulationResult:
    """One-call helper: build a system, replay a workload, return results."""
    if config is None:
        config = ServingConfig()
    system = ClusterServingSystem(config, policy)
    return system.run(workload, **run_kwargs)
