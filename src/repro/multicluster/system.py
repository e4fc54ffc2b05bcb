"""Fleet-of-fleets serving system: N clusters behind a global router.

:class:`MultiClusterSystem` instantiates ``num_clusters`` complete
:class:`~repro.serving.system.ClusterServingSystem` shards — each with its
own :class:`~repro.fleet.controller.FleetController` (admission queue,
intra-cluster router, autoscaler) — on **one shared deterministic event
loop**, so all shards and the WAN fabric between them simulate in
lock-step.  Three tier-level mechanisms sit on top:

* a **global router** (:mod:`repro.multicluster.routing`) picks the
  cluster for every arrival.  Each request has a deterministic *home*
  cluster (stable session hash); dispatching anywhere else is *remote*
  and the request's context first crosses the inter-cluster fabric
  (:mod:`repro.multicluster.fabric`), paying WAN latency and sharing WAN
  bandwidth — the modeled cost of ignoring locality;
* a **placement policy** (:mod:`repro.multicluster.placement`) runs on
  the multicluster controller tick: when a cluster's autoscaler is
  triggered but out of local spares, a sibling chosen by the policy
  absorbs the scale-up (counted as ``remote_scale_ups``);
* the **inter-cluster fabric** carries the remote-dispatch KV traffic
  and accounts every byte, so sweeps can compare routing strategies by
  the cross-cluster traffic they generate.

Determinism matches the single-cluster system: all shards share one
event loop, per-shard RNG streams derive from distinct seeds, and the
whole tier is a pure function of ``(config, workload, seed)``.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional

from repro.cluster.network import InterClusterLinkSpec
from repro.engine.metrics import TIMELINE_WINDOW_S, RequestRecord, percentile
from repro.engine.request import Request
from repro.fleet.config import FleetConfig
from repro.fleet.controller import TICK_INTERVAL_S
from repro.fleet.routing import session_key
from repro.models.memory import kv_bytes_per_token
from repro.multicluster.fabric import InterClusterFabric
from repro.multicluster.placement import make_placement
from repro.multicluster.routing import home_cluster_index, make_global_router
from repro.policies.base import OverloadPolicy
from repro.serving.config import ServingConfig
from repro.serving.system import ClusterServingSystem, SimulationResult
from repro.simulation.event_loop import EventLoop
from repro.simulation.process import PeriodicProcess
from repro.workloads.trace import Workload

#: Builds one fresh policy instance per cluster shard (policies attach to
#: exactly one serving system, so shards cannot share an instance).
PolicyFactory = Callable[[], OverloadPolicy]

#: The fleet router and autoscaler preset inside every shard.
CLUSTER_ROUTER = "least_loaded"
CLUSTER_AUTOSCALER = "elastic"
#: Per-cluster unidirectional WAN uplink, bytes/s: 10 Gbps, two orders of
#: magnitude below the intra-cluster RDMA NICs, as in real geo-sharded
#: deployments.
WAN_BANDWIDTH = 10e9 / 8
#: One-way propagation delay of every WAN transfer, seconds.
WAN_LATENCY_S = 0.030


class ClusterHandle:
    """The slice of one cluster shard the tier-level policies read.

    Global routers and placement policies operate on handles, never on
    the serving systems directly — the handle surface (load, topology,
    capacity) is the contract new strategies can rely on.
    """

    def __init__(self, index: int, system: ClusterServingSystem) -> None:
        self.index = index
        self.system = system
        #: cleared by a chaos ``cluster_outage``; dead shards are invisible
        #: to the global router and the placement tick.
        self.alive = True

    # -- load ----------------------------------------------------------
    def routable_groups(self):
        return self.system.fleet.routable_groups()

    def routable_group_count(self) -> int:
        return len(self.routable_groups())

    def backlog(self) -> int:
        """Queued admissions plus every routable group's scheduler backlog.

        Delegates to the shard's fleet controller — the same load view its
        own autoscaler triggers on, so tier and shard never disagree.
        """
        return self.system.fleet.backlog()

    def kv_ratio(self) -> float:
        """Cluster KV demand / capacity over the routable groups."""
        return self.system.fleet.kv_ratio()

    # -- capacity ------------------------------------------------------
    def spare_instance_count(self) -> int:
        return len(self.system.fleet.autoscaler.spare_instances)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClusterHandle(index={self.index}, groups={self.routable_group_count()})"


def summarize_records(
    records: List[RequestRecord], throughput: float
) -> Dict[str, float]:
    """Tier-level summary over combined per-request records.

    Percentiles are computed over the union of every shard's records;
    ``throughput`` is the sum of the shards' bucket-mean token rates (the
    single-cluster definition, summed in shard-index order).
    """
    ttfts = [r.ttft for r in records if r.ttft is not None]
    tpots = [r.mean_tpot for r in records if r.mean_tpot is not None]
    return {
        "requests": float(len(records)),
        "finished": float(sum(1 for r in records if r.finished)),
        "ttft_p50": percentile(ttfts, 50),
        "ttft_p90": percentile(ttfts, 90),
        "ttft_p99": percentile(ttfts, 99),
        "tpot_p50": percentile(tpots, 50),
        "tpot_p90": percentile(tpots, 90),
        "tpot_p99": percentile(tpots, 99),
        "throughput_tokens_per_s": throughput,
    }


class MultiClusterSystem:
    """N cluster shards, a global router, placement, and a WAN fabric."""

    def __init__(self, config: ServingConfig, policy_factory: PolicyFactory) -> None:
        if config.multicluster is None:
            raise ValueError("ServingConfig.multicluster must be set")
        self.config = config
        self.mc = config.multicluster
        self.loop = EventLoop()
        self.fabric = InterClusterFabric(
            self.loop,
            self.mc.num_clusters,
            InterClusterLinkSpec(bandwidth=WAN_BANDWIDTH, latency_s=WAN_LATENCY_S),
        )
        self.router = make_global_router(self.mc.global_router)
        self.placement = make_placement(self.mc.placement)
        self._fleet_config = FleetConfig(
            router=CLUSTER_ROUTER, admission=self.mc.admission, autoscaler=CLUSTER_AUTOSCALER
        )
        self.handles: List[ClusterHandle] = []
        for index in range(self.mc.num_clusters):
            # Every shard is a full serving system on the shared loop, with
            # its own RNG streams (distinct seed offset per shard) and its
            # own fleet controller built from the tier's fleet settings.
            system = ClusterServingSystem(
                self.shard_config(index), policy_factory(), loop=self.loop
            )
            self.handles.append(ClusterHandle(index, system))
        self._kv_token_bytes = kv_bytes_per_token(config.model)
        self._tick_process = PeriodicProcess(
            self.loop, TICK_INTERVAL_S, self._tick, name="multicluster-controller"
        )

        self.local_routed = 0
        self.remote_routed = 0
        self.remote_scale_ups = 0
        self._all_requests: List[Request] = []
        #: requests currently crossing the WAN (stranded ones are recorded
        #: as unfinished when the horizon ends mid-transfer).
        self._in_flight: Dict[int, Request] = {}

        # -- chaos / fault accounting ----------------------------------
        #: arrivals whose home cluster was dead when they arrived.
        self.rerouted = 0
        #: requests dropped because of a fault (sticky displaced requests,
        #: WAN deliveries to a cluster that died mid-flight, arrivals with
        #: no alive cluster left).
        self.lost_to_fault = 0
        #: sessions adopted by a sibling after their home died (migrate).
        self.migrated_sessions = 0
        #: follow-up requests served locally at an adopted cluster.
        self.migration_hits = 0
        #: WAN bytes of one-time session moves (migrate policy).
        self.migration_bytes = 0.0
        #: WAN bytes of per-request context dispatch (healthy remote
        #: dispatch plus sticky repeated hops).
        self.dispatch_bytes = 0.0
        self.instance_kills = 0
        self.cluster_outages = 0
        self.wan_degrades = 0
        #: simulation times at which faults fired (metrics/report).
        self.fault_times: List[float] = []
        #: session key -> adopting cluster index (migrate policy).
        self._session_adoptions: Dict[str, int] = {}
        #: request_id -> time of the fault that displaced it.
        self._displacements: Dict[int, float] = {}
        #: per shard, how many of its (append-only) records
        #: :meth:`displaced_pending` has read, and how many displaced
        #: requests it found finished there.
        self._record_cursors = [0] * self.mc.num_clusters
        self._displaced_finished = 0
        #: fault-lost requests owned by the tier (not by any shard) —
        #: recorded as unfinished when the run ends.
        self._lost_requests: List[Request] = []
        #: armed from ``config.chaos`` by :meth:`run`.
        self.chaos = None
        #: optional live-metrics stream (see :meth:`attach_metrics`).
        self.metrics_monitor = None
        #: per-request span recorder (``repro.trace``); ``None`` when off.
        self.tracer = None

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def shard_config(self, index: int) -> ServingConfig:
        """The ServingConfig one shard is built from."""
        return dataclasses.replace(
            self.config,
            multicluster=None,
            fleet=self._fleet_config,
            seed=self.config.seed + 1 + index,
        )

    @property
    def systems(self) -> List[ClusterServingSystem]:
        return [handle.system for handle in self.handles]

    def initial_group_count(self) -> int:
        return sum(len(system.groups) for system in self.systems)

    def home_cluster(self, request: Request) -> int:
        return home_cluster_index(request, self.mc.num_clusters)

    @property
    def alive_handles(self) -> List[ClusterHandle]:
        return [handle for handle in self.handles if handle.alive]

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def submit(self, request: Request) -> None:
        """Route an arriving request to a cluster (now, or after the WAN)."""
        self._all_requests.append(request)
        if self.tracer is not None:
            self.tracer.on_submit(request)
        self._route(request)

    def _route(self, request: Request) -> None:
        alive = self.alive_handles
        if not alive:
            self._lose(request)
            return
        home = self.home_cluster(request)
        home_alive = self.handles[home].alive
        if not home_alive:
            # The home cluster is down: the request cannot follow the
            # healthy path.  What happens next is the session-migration
            # policy's call (this is the axis chaos sweeps compare).
            self.rerouted += 1
            if self.mc.session_migration == "migrate":
                self._migrate_submit(request)
                return
        target = self.router.route(request, alive)
        if self.tracer is not None:
            self.tracer.on_route(
                request, f"cluster{target.index}", scope=self.router.name
            )
        if target.index == home:
            self.local_routed += 1
            target.system.submit(request)
            return
        # Away from home: the session's context (conservatively, the full
        # prompt's worth of KV — multi-turn prompts carry their history)
        # must cross from the home cluster before serving can start.  A
        # sticky session stays homed on a dead cluster, so every turn pays
        # a fresh transfer (from the home site's durable session store).
        if home_alive:
            self.remote_routed += 1
        size = float(request.prompt_tokens * self._kv_token_bytes)
        self.dispatch_bytes += size
        self._wan_submit(request, home, target, size)

    def _migrate_submit(self, request: Request) -> None:
        """Serve a request whose home cluster is down, migrate-style.

        The first affected request of a session moves the session context
        over the WAN once and the session is *adopted* by the target
        cluster; later requests of the same session are served there
        locally — the move is amortised over the session's lifetime.
        """
        alive = self.alive_handles
        key = session_key(request)
        adopted = self._session_adoptions.get(key)
        if adopted is not None and self.handles[adopted].alive:
            self.migration_hits += 1
            self.handles[adopted].system.submit(request)
            return
        home = self.home_cluster(request)
        if self.handles[home].alive:
            # A displaced request whose session is homed on an *alive*
            # cluster (it had been remote-dispatched to the dead one):
            # the home still holds the session context, go back local.
            self.handles[home].system.submit(request)
            return
        target = self.router.route(request, alive)
        self._session_adoptions[key] = target.index
        self.migrated_sessions += 1
        size = float(request.prompt_tokens * self._kv_token_bytes)
        self.migration_bytes += size
        self._wan_submit(request, home, target, size, tag="migrate")

    def _wan_submit(
        self,
        request: Request,
        source: int,
        target: ClusterHandle,
        size: float,
        tag: str = "kv",
    ) -> None:
        self._in_flight[request.request_id] = request
        if self.tracer is not None:
            self.tracer.on_wan_start(
                request, f"cluster{source}", f"cluster{target.index}"
            )
        self.fabric.transfer(
            source,
            target.index,
            size,
            on_complete=lambda _t, r=request, h=target: self._deliver(r, h),
            tag=f"{tag}-req{request.request_id}",
        )

    def _deliver(self, request: Request, handle: ClusterHandle) -> None:
        self._in_flight.pop(request.request_id, None)
        if self.tracer is not None:
            self.tracer.on_wan_end(request)
        if not handle.alive:
            # The destination died while the context was crossing the WAN.
            if self.mc.session_migration == "migrate" and self.alive_handles:
                self._migrate_submit(request)
            else:
                self._lose(request)
            return
        handle.system.submit(request)

    def _lose(self, request: Request) -> None:
        self.lost_to_fault += 1
        self._lost_requests.append(request)
        if self.tracer is not None:
            self.tracer.on_lost(request)

    def submit_at(self, request: Request, time: float) -> None:
        """Schedule a request arrival at absolute simulation time ``time``."""
        self.loop.schedule_at(time, lambda r=request: self.submit(r), name="mc-arrival")

    # ------------------------------------------------------------------
    # Fault injection (driven by repro.chaos.ChaosInjector)
    # ------------------------------------------------------------------
    def fail_cluster_instance(
        self, cluster: int, instance: int, now: Optional[float] = None
    ) -> None:
        """Kill one instance of one shard; the shard recovers in place.

        Delegates to the shard's
        :meth:`~repro.serving.system.ClusterServingSystem.kill_instance`
        (survivor restore + displaced re-dispatch stay *inside* the
        cluster), and tracks the displaced requests for the
        recovery-transient metric.
        """
        if now is None:
            now = self.loop.now
        handle = self.handles[cluster]
        if not handle.alive:
            return  # the whole cluster is already down
        system = handle.system
        report = system.kill_instance(system.instances[instance], now)
        if report is None:
            return
        self.instance_kills += 1
        self.fault_times.append(now)
        for request_id in report.displaced_request_ids:
            self._displacements.setdefault(request_id, now)

    def fail_cluster(self, index: int, now: Optional[float] = None) -> None:
        """Take a whole cluster shard down, permanently.

        Every queued and running request of the shard is displaced.  Under
        the ``migrate`` session policy the displaced requests are re-homed
        on alive siblings (paying the amortised WAN session move); under
        ``sticky`` they are lost to the fault.  Future arrivals homed on
        the dead shard go through the same policy fork in :meth:`_route`.
        """
        if now is None:
            now = self.loop.now
        handle = self.handles[index]
        if not handle.alive:
            return
        handle.alive = False
        self.cluster_outages += 1
        self.fault_times.append(now)
        system = handle.system

        # Collect every request the shard was holding, deterministically.
        displaced = system.fleet.admission.evict_all()
        for group in list(system.groups):
            running, queued = group.evacuate()
            for request, _ in running:
                request.reset_for_recompute()
                displaced.append(request)
            displaced.extend(queued)
            system.retire_group(group)
        system.fleet.autoscaler.spare_instances.clear()
        for instance in system.instances:
            instance.failed = True
        displaced.sort(key=lambda r: (r.arrival_time, r.request_id))
        for request in displaced:
            self._displacements.setdefault(request.request_id, now)
        system.metrics.mark_event(
            now, "cluster_outage", cluster=index, displaced=len(displaced)
        )

        if self.mc.session_migration == "migrate" and self.alive_handles:
            for request in displaced:
                # The sibling that adopts the request records it from here
                # on; keeping it in the dead shard's books would double
                # count it as unfinished.
                system.forget_request(request)
                self._migrate_submit(request)
        else:
            # Sticky: the displaced requests die with their cluster.  They
            # stay in the dead shard's accounting, so finalisation records
            # them as unfinished.
            self.lost_to_fault += len(displaced)

    def degrade_wan(
        self,
        bandwidth_factor: float,
        latency_factor: float = 1.0,
        now: Optional[float] = None,
    ) -> None:
        """Degrade every WAN uplink (brown-out), relative to spec."""
        if now is None:
            now = self.loop.now
        self.fabric.degrade(bandwidth_factor, latency_factor)
        self.wan_degrades += 1
        self.fault_times.append(now)
        self.handles[0].system.metrics.mark_event(
            now,
            "wan_degrade",
            bandwidth_factor=bandwidth_factor,
            latency_factor=latency_factor,
        )

    def restore_wan(self) -> None:
        """Lift a WAN degradation (factors are absolute, not cumulative)."""
        self.fabric.restore()

    # ------------------------------------------------------------------
    # Fault reporting
    # ------------------------------------------------------------------
    def displaced_pending(self) -> int:
        """Displaced requests that have not finished yet (live metric).

        Reads only the records appended since the previous call.  A
        request is displaced only while queued or running, and finishes
        at most once, so no record read earlier can count later.
        """
        displacements = self._displacements
        if not displacements:
            return 0
        for index, system in enumerate(self.systems):
            records = system.metrics.records
            for position in range(self._record_cursors[index], len(records)):
                record = records[position]
                if record.finished and record.request_id in displacements:
                    self._displaced_finished += 1
            self._record_cursors[index] = len(records)
        return len(displacements) - self._displaced_finished

    def recovery_transient_s(self, records: List[RequestRecord]) -> float:
        """Worst-case time from a fault to its displaced requests finishing.

        For every displaced request: ``finish_time - fault_time`` when it
        finished, ``horizon - fault_time`` when it never did (a lost
        request never recovers — the transient extends to the end of the
        run).  The maximum over all displaced requests is the recovery
        transient; ``0.0`` when no fault displaced anything.
        """
        if not self._displacements:
            return 0.0
        horizon = self.loop.now
        worst = 0.0
        for record in records:
            fault_time = self._displacements.get(record.request_id)
            if fault_time is None:
                continue
            if record.finished and record.finish_time is not None:
                end = record.finish_time
            else:
                end = horizon
            worst = max(worst, end - fault_time)
        return worst

    # ------------------------------------------------------------------
    # Metrics streaming
    # ------------------------------------------------------------------
    def attach_metrics(self, *, path=None):
        """Install a :class:`repro.metrics.MetricsMonitor` over the tier.

        Samples per-cluster queue/instance gauges plus tier-level fault
        counters into the monitor's typed ``series`` every controller tick
        and, given a ``path``, streams them there in Prometheus text
        format; :meth:`run` starts and stops the monitor around the replay.
        """
        from repro.metrics import MetricsMonitor, tier_metrics_source

        monitor = MetricsMonitor(self.loop, interval_s=TICK_INTERVAL_S, path=path)
        monitor.add_source(tier_metrics_source(self))
        self.metrics_monitor = monitor
        return monitor

    def attach_tracer(self, tracer=None, *, details: bool = True):
        """Install one shared per-request :class:`repro.trace.Tracer`.

        The tier and every cluster shard record into the same tracer, so a
        request's WAN hop, admission wait and execution all land in one
        span tree.  Shard tracks are namespaced ``cluster{i}/group{g}``.
        """
        from repro.trace import Tracer

        if tracer is None:
            tracer = Tracer(self.loop, details=details)
        self.tracer = tracer
        self.fabric.network.tracer = tracer
        for handle in self.handles:
            handle.system._trace_cluster = str(handle.index)
            handle.system.attach_tracer(tracer)
        return tracer

    # ------------------------------------------------------------------
    # Placement tick
    # ------------------------------------------------------------------
    def _tick(self, now: float) -> None:
        """Redirect scale-ups from spare-less pressured clusters to donors."""
        for handle in self.handles:
            if not handle.alive:
                continue
            scaler = handle.system.fleet.autoscaler
            if scaler.has_spare:
                continue  # local spares: the shard's own autoscaler acts
            if not scaler.wants_capacity():
                continue
            candidates = [
                c
                for c in self.handles
                if c is not handle and c.alive and c.system.fleet.autoscaler.has_spare
            ]
            donor = self.placement.place(handle, candidates)
            if donor is not None and donor.system.fleet.autoscaler.force_scale_up(now):
                self.remote_scale_ups += 1
                handle.system.metrics.mark_event(
                    now,
                    "multicluster-remote-scale-up",
                    pressured_cluster=handle.index,
                    donor_cluster=donor.index,
                    placement=self.placement.name,
                )

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, workload: Workload) -> SimulationResult:
        """Replay ``workload`` through the tier until the drain timeout past
        its last arrival, and aggregate the metrics.  The result has no
        ``metrics``: every shard keeps its own collector."""
        requests = workload.to_engine_requests()
        for request in requests:
            self.submit_at(request, request.arrival_time)
        for system in self.systems:
            system.monitor.start()
            system.fleet.start()
        self._tick_process.start()
        horizon = workload.duration + self.config.drain_timeout_s
        if self.config.chaos is not None and self.config.chaos:
            # Local import: repro.chaos imports this module's siblings.
            from repro.chaos.injector import ChaosInjector

            self.chaos = ChaosInjector(self, self.config.chaos)
            self.chaos.arm(horizon)
        if self.metrics_monitor is not None:
            self.metrics_monitor.start()
        self.loop.run(until=horizon)
        self._tick_process.stop()
        if self.metrics_monitor is not None:
            self.metrics_monitor.stop()
        records: List[RequestRecord] = []
        for system in self.systems:
            system.monitor.stop()
            system.fleet.stop()
            system._finalize_unfinished()
            records.extend(system.metrics.records)
        # Requests the horizon caught mid-WAN never reached a shard; they
        # still count as submitted-but-unfinished.
        for request in self._in_flight.values():
            records.append(RequestRecord.from_request(request))
        # Requests a fault orphaned entirely (sticky in-fabric losses,
        # arrivals with no alive cluster) are the tier's to record.
        for request in self._lost_requests:
            records.append(RequestRecord.from_request(request))
        finished = sum(1 for record in records if record.finished)
        return SimulationResult(
            system_name=self.systems[0].policy.name,
            workload_name=workload.name,
            metrics=None,
            records=records,
            duration_s=self.loop.now,
            submitted_requests=len(requests),
            finished_requests=finished,
            summary=self._summary(records),
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _summary(self, records: List[RequestRecord]) -> Dict[str, float]:
        """Tier-level summary (see :func:`summarize_records`)."""
        throughput = sum(
            s.metrics.throughput.mean() / TIMELINE_WINDOW_S for s in self.systems
        )
        return summarize_records(records, throughput)

    def stats(self) -> Dict[str, float]:
        """Tier counters plus the shard fleet counters, aggregated."""
        per_cluster = [handle.system.fleet.stats() for handle in self.handles]
        return {
            "admitted": sum(s["admitted"] for s in per_cluster),
            "shed": sum(s["shed"] for s in per_cluster),
            "queue_peak": max(s["queue_peak"] for s in per_cluster),
            "scale_up_events": sum(s["scale_up_events"] for s in per_cluster),
            "scale_down_events": sum(s["scale_down_events"] for s in per_cluster),
            "final_groups": sum(s["final_groups"] for s in per_cluster),
            "local_routed": float(self.local_routed),
            "remote_routed": float(self.remote_routed),
            "remote_scale_ups": float(self.remote_scale_ups),
            "cross_cluster_bytes": float(self.fabric.bytes_sent),
            "cross_cluster_transfers": float(self.fabric.transfers),
            "rerouted": float(self.rerouted),
            "lost_to_fault": float(self.lost_to_fault),
            "migrated_sessions": float(self.migrated_sessions),
            "migration_hits": float(self.migration_hits),
            "migration_bytes": float(self.migration_bytes),
            "dispatch_bytes": float(self.dispatch_bytes),
            "instance_kills": float(self.instance_kills),
            "cluster_outages": float(self.cluster_outages),
            "wan_degrades": float(self.wan_degrades),
            "displaced": float(len(self._displacements)),
        }
