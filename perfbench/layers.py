"""Which simulator module belongs to which layer, and where to trace it.

The benchmark splits host time across the simulator's layers, named after
the ``src/repro`` modules.  Three tables drive that split:

* :data:`MODULE_LAYERS` maps every ``repro`` package (and the few modules
  that belong elsewhere than their package) to a layer, by longest dotted
  prefix.  A package missing from it fails the benchmark's own tests, so a
  new package cannot go unmeasured silently.
* :data:`SPANS` lists the public functions and methods the tracer wraps,
  with :data:`COUNTERS` naming the work counts read at those boundaries.
* :data:`CALLBACK_ARGS` lists the public calls that take a callback; the
  tracer wraps each callback handed to them in a span named by the
  callback's defining module, so work no public call covers (the event
  loop's dispatch, the network fabric's completion path, periodic ticks)
  is still attributed to the layer that defined it.

Only public names appear here.  A target that no longer exists marks its
layer absent for the run instead of failing it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence, Tuple

#: Layers in report order.  ``other`` holds the residual no span covers.
LAYERS: Tuple[str, ...] = (
    "simulation",
    "engine.scheduler",
    "engine.latency_model",
    "engine.group",
    "engine",
    "memory",
    "cluster.network",
    "cluster",
    "core",
    "policies",
    "serving",
    "fleet",
    "multicluster",
    "chaos",
    "serve",
    "trace",
    "metrics",
    "obs",
    "sweeps",
    "workloads",
    "other",
)

#: Module prefix -> layer; the longest matching dotted prefix wins.
MODULE_LAYERS: Dict[str, str] = {
    "repro.simulation": "simulation",
    "repro.engine.scheduler": "engine.scheduler",
    "repro.engine.latency_model": "engine.latency_model",
    "repro.engine.group": "engine.group",
    "repro.engine": "engine",
    # Model shapes feed the engine's per-token arithmetic.
    "repro.models": "engine",
    "repro.memory": "memory",
    "repro.cluster.network": "cluster.network",
    "repro.cluster": "cluster",
    "repro.core": "core",
    "repro.policies": "policies",
    "repro.serving": "serving",
    "repro.fleet": "fleet",
    "repro.multicluster": "multicluster",
    "repro.chaos": "chaos",
    "repro.serve": "serve",
    "repro.trace": "trace",
    "repro.metrics": "metrics",
    "repro.obs": "obs",
    "repro.sweeps": "sweeps",
    # Scenario cells are sweep plumbing; their workload generators are not.
    "repro.scenarios": "sweeps",
    "repro.scenarios.registry": "workloads",
    "repro.scenarios.generators": "workloads",
    "repro.workloads": "workloads",
    # Presets and scales: workload and config construction.
    "repro.experiments": "workloads",
    # Never imported by the benchmark; listed so the table stays complete.
    "repro.bench": "other",
    "repro.parallel": "other",
    "repro.version": "other",
    "repro": "other",
}


def layer_of(module: str) -> Optional[str]:
    """The layer of a dotted module name, or ``None`` outside ``repro``."""
    name = module
    while name:
        layer = MODULE_LAYERS.get(name)
        if layer is not None:
            return layer
        name = name.rpartition(".")[0]
    return None


#: ``(module, class or None, attribute names)``.  A class entry also wraps
#: every subclass that overrides the attribute; a name ending in ``*``
#: selects every public function of the class with that prefix.
SPANS: Tuple[Tuple[str, Optional[str], Tuple[str, ...]], ...] = (
    ("repro.simulation.event_loop", "EventLoop", ("run", "step")),
    ("repro.engine.scheduler", "ContinuousBatchingScheduler", (
        "form_batch", "complete_batch", "total_demand_tokens",
        "queued_demand_tokens", "add_request", "add_running",
        "remove_request", "next_stall_expiry",
    )),
    ("repro.engine.latency_model", "LatencyModel", (
        "batch_time", "batch_time_pair", "prefill_time", "decode_time",
    )),
    ("repro.engine.group", "ServingGroup", (
        "enqueue", "adopt_running", "adopt_waiting", "kick", "deactivate",
        "stall_request", "migrate_request_to", "load_snapshot",
        "sync_kv_capacity", "kv_demand_bytes",
    )),
    ("repro.engine.metrics", "MetricsCollector", (
        "record_request", "record_iteration", "summary",
    )),
    ("repro.engine.chunked_prefill", None, ("split_into_n_microbatches",)),
    ("repro.engine.pipeline", "PipelineExecution", ("makespan",)),
    ("repro.memory.paged_kv", "PagedKVCache", (
        "allocate", "try_allocate", "append_token", "free", "free_partial",
        "grow", "shrink", "can_allocate",
    )),
    ("repro.memory.unified", "UnifiedMemoryManager", (
        "load_layers", "provision_kv_cache", "drop_layers", "restore_layers",
    )),
    ("repro.cluster.network", "NetworkFabric", (
        "submit", "cancel", "estimate_transfer_time", "set_node_bandwidth",
    )),
    ("repro.cluster.network", "CrossClusterLink", ("transfer",)),
    ("repro.core.global_manager", "GlobalMemoryManager", ("handle_overload",)),
    ("repro.core.kv_exchange", "KVExchangeCoordinator", (
        "plan_for_merge", "plan_for_split", "execute",
    )),
    ("repro.core.restore", "RestoreManager", ("maybe_restore", "start_restore")),
    ("repro.core.kunserve", "KunServeController", ("on_monitor_tick",)),
    ("repro.core.local_manager", "LocalMemoryManager", (
        "execute_drop", "execute_restore",
    )),
    ("repro.policies.base", "OverloadPolicy", ("on_monitor_tick",)),
    ("repro.serving.system", "ClusterServingSystem", (
        "submit", "schedule_workload", "create_group", "retire_group",
    )),
    ("repro.serving.dispatcher", "Dispatcher", ("dispatch",)),
    ("repro.serving.monitor", "GlobalMonitor", ("snapshot",)),
    ("repro.fleet.controller", "FleetController", (
        "submit", "routable_groups", "backlog", "kv_ratio",
    )),
    ("repro.fleet.admission", "AdmissionController", (
        "submit", "readmit", "drain", "evict_all",
    )),
    ("repro.fleet.routing", "Router", ("route",)),
    ("repro.fleet.routing", None, ("load_key", "headroom_key")),
    ("repro.fleet.autoscaler", "Autoscaler", ("tick",)),
    ("repro.multicluster.system", "MultiClusterSystem", (
        "submit", "fail_cluster", "fail_cluster_instance", "stats",
        "recovery_transient_s",
    )),
    ("repro.multicluster.routing", "GlobalRouter", ("route",)),
    ("repro.multicluster.fabric", "InterClusterFabric", ("transfer",)),
    ("repro.chaos.injector", "ChaosInjector", ("arm",)),
    ("repro.serve.gateway", "OnlineGateway", ("start",)),
    ("repro.serve.clients", "ClosedLoopPopulation", (
        "start", "stats", "client_latency_pairs",
    )),
    ("repro.trace.tracer", "Tracer", ("on_*",)),
    ("repro.trace.attribution", "LatencyAttribution", (
        "from_tracer", "stage_breakdown",
    )),
    ("repro.metrics.prometheus", "MetricsRegistry", ("expose", "snapshot")),
    ("repro.obs.engine", None, ("evaluate_monitor_chunks", "scrape_stream_text")),
    ("repro.obs.engine", "AlertEngine", ("evaluate", "evaluate_stream_text")),
    ("repro.sweeps.executor", None, ("run_tasks", "execute_task")),
    ("repro.sweeps.cache", "ResultCache", ("load", "store")),
    ("repro.sweeps.task", "SweepTask", ("content_hash",)),
    ("repro.workloads.burstgpt", None, ("burstgpt_arrival_trace",)),
    ("repro.workloads.datasets", None, ("build_workload", "sample_lengths")),
    ("repro.workloads.trace", "Workload", ("to_engine_requests",)),
    ("repro.scenarios.registry", "ScenarioSpec", ("build_workload",)),
)

#: ``(module, class, method, callback position incl. self, keyword, is an
#: event-loop callback)``.
CALLBACK_ARGS: Tuple[Tuple[str, str, str, int, str, bool], ...] = (
    ("repro.simulation.event_loop", "EventLoop", "schedule", 2, "callback", True),
    ("repro.simulation.event_loop", "EventLoop", "schedule_at", 2, "callback", True),
    ("repro.simulation.process", "PeriodicProcess", "__init__", 3, "callback", False),
    ("repro.serving.system", "ClusterServingSystem", "add_completion_listener", 1,
     "listener", False),
    ("repro.serving.system", "ClusterServingSystem", "add_shed_listener", 1,
     "listener", False),
)

#: Factories whose returned callable is traced like a wrapped function.
RETURNED_CALLABLES: Tuple[Tuple[str, str], ...] = (
    ("repro.core.lookahead", "make_lookahead_former"),
)

Count = Callable[[Sequence[Any], Any], float]


def one(args: Sequence[Any], result: Any) -> float:
    return 1


def _first_arg_len(args: Sequence[Any], result: Any) -> float:
    return len(args[1])


def _result_len(args: Sequence[Any], result: Any) -> float:
    return len(result)


#: ``(module, qualified name) -> ((metric, count), ...)``: work counts read
#: at the span boundary from the call's arguments and result.  The
#: qualified name of a class entry is the base class's, and covers the
#: overriding subclasses too.
COUNTERS: Dict[Tuple[str, str], Tuple[Tuple[str, Count], ...]] = {
    ("repro.engine.scheduler", "ContinuousBatchingScheduler.form_batch"): (
        ("engine.scheduler.batches", one),
        ("engine.group.iterations", lambda args, batch: 0 if batch.empty else 1),
    ),
    ("repro.engine.scheduler", "ContinuousBatchingScheduler.total_demand_tokens"): (
        ("engine.scheduler.demand_queries", one),
    ),
    # Every request is recorded exactly once, finished or not.
    ("repro.engine.metrics", "MetricsCollector.record_request"): (
        ("engine.scheduler.preemptions", lambda args, record: record.preemption_count),
    ),
    ("repro.engine.latency_model", "LatencyModel.batch_time"): (
        ("engine.latency_model.chunks", _first_arg_len),
    ),
    ("repro.engine.latency_model", "LatencyModel.batch_time_pair"): (
        ("engine.latency_model.chunks", _first_arg_len),
    ),
    ("repro.engine.chunked_prefill", "split_into_n_microbatches"): (
        ("engine.group.microbatches", _result_len),
    ),
    ("repro.core.lookahead", "make_lookahead_former"): (
        ("engine.group.microbatches", _result_len),
    ),
    ("repro.memory.paged_kv", "PagedKVCache.allocate"): (("memory.allocs", one),),
    ("repro.memory.paged_kv", "PagedKVCache.try_allocate"): (("memory.allocs", one),),
    ("repro.memory.paged_kv", "PagedKVCache.append_token"): (("memory.allocs", one),),
    ("repro.memory.paged_kv", "PagedKVCache.free"): (("memory.frees", one),),
    ("repro.memory.paged_kv", "PagedKVCache.free_partial"): (("memory.frees", one),),
    ("repro.cluster.network", "NetworkFabric.submit"): (
        ("cluster.network.transfers", one),
    ),
    ("repro.core.global_manager", "GlobalMemoryManager.handle_overload"): (
        ("core.drops", lambda args, report: 0 if report is None else 1),
    ),
    ("repro.core.restore", "RestoreManager.maybe_restore"): (
        ("core.restores", _result_len),
    ),
    ("repro.core.kv_exchange", "KVExchangeCoordinator.execute"): (
        ("core.kv_moves", _first_arg_len),
    ),
    ("repro.fleet.routing", "Router.route"): (("fleet.routes", one),),
    ("repro.multicluster.routing", "GlobalRouter.route"): (
        ("multicluster.routes", one),
    ),
    ("repro.trace.tracer", "Tracer.on_*"): (("trace.hook_calls", one),),
    ("repro.metrics.prometheus", "MetricsRegistry.expose"): (
        ("metrics.scrapes", one),
        ("metrics.text_bytes", lambda args, text: len(text)),
    ),
}

#: Callback module -> count of callbacks it defined that ran.
CALLBACK_COUNTERS: Dict[str, str] = {
    "repro.cluster.network": "cluster.network.completions",
    "repro.serving.monitor": "serving.monitor_ticks",
}

#: Count of every event-loop callback run.
EVENTS_COUNTER = "simulation.events"

#: Per-layer metrics the workload's own outcome supplies (not the tracer).
OUTCOME_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("fleet.shed", "count", "lower"),
    ("sweeps.cold_s", "s", "lower"),
    ("sweeps.warm_s", "s", "lower"),
    ("sweeps.cache_hit_ratio", "ratio", "higher"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
)


def counter_units() -> Dict[str, str]:
    """Every tracer counter name with its unit."""
    names = {EVENTS_COUNTER, *CALLBACK_COUNTERS.values()}
    for counts in COUNTERS.values():
        names.update(metric for metric, _ in counts)
    return {name: "bytes" if name.endswith("_bytes") else "count" for name in sorted(names)}


def per_layer_metrics() -> Tuple[Tuple[str, str, str], ...]:
    """``(name, unit, better)`` of every per-layer metric, in report order."""
    metrics = []
    for layer in LAYERS:
        metrics.append((f"{layer}.self_s", "s", "lower"))
        if layer != "other":
            metrics.append((f"{layer}.calls", "count", "lower"))
    metrics.extend((name, unit, "lower") for name, unit in counter_units().items())
    metrics.extend(OUTCOME_METRICS)
    return tuple(metrics)


#: Which end-to-end metric each layer's metrics should move, on which
#: workload; written down before measuring.
PREDICTIONS: Tuple[Dict[str, str], ...] = (
    {"layer": "engine.scheduler", "moves": "sim_requests_per_s",
     "on": "burst-vllm first, then burst-kunserve"},
    {"layer": "engine.latency_model", "moves": "sim_output_tokens_per_s",
     "on": "burst-vllm"},
    {"layer": "cluster.network", "moves": "sim_requests_per_s",
     "on": "burst-kunserve; no change predicted on burst-vllm or tier-telemetry"},
    {"layer": "core", "moves": "sim_requests_per_s",
     "on": "burst-kunserve; no change predicted on burst-vllm or tier-telemetry"},
    {"layer": "trace, metrics, fleet, multicluster, serve", "moves": "scaled_wall_s",
     "on": "tier-telemetry; no change predicted on burst-*"},
    {"layer": "sweeps", "moves": "scaled_wall_s and setup_s", "on": "tier-telemetry"},
    {"layer": "workloads (and import time)", "moves": "setup_s", "on": "all three"},
    {"layer": "memory", "moves": "peak_rss_mb", "on": "burst-*"},
    {"layer": "simulation", "moves": "caps any event-loop gain at its self_s share",
     "on": "all three"},
)
