"""Multicluster sweep (scenario × policy × cluster-count × global-router ×
placement grid), executed by the unified sweep engine.

Replays registered scenarios (:mod:`repro.scenarios.registry`) through
fleet-of-fleets systems (:class:`~repro.multicluster.system.MultiClusterSystem`),
varying the cluster count, the global routing strategy and the placement
policy, and aggregates the results into a stable-schema
``MULTICLUSTER_results.json`` document (:mod:`repro.multicluster.schema`).

Execution mirrors :mod:`repro.fleet.sweep` exactly: every cell is a
:class:`~repro.sweeps.task.SweepTask` (content hash over the scenario
fingerprint, policy, cluster count, router, placement, WAN parameters,
scale, seed and ``repro`` version), cache hits skip recomputation
entirely, and misses fan out over the engine's shared warm worker pool.
Every cell is seeded independently of execution order and results are
JSON-normalised and assembled in grid order — so output is bit-identical
across runs, across parallel vs. sequential execution, and across cold
vs. warm caches, modulo the ``wall_s*`` and cache-accounting fields.

Scaling convention: ``scale.num_instances`` is the size of **one cluster
shard**; the workload is generated at ``num_instances × cluster_count``
so total offered load tracks total capacity and the cluster-count axis
compares shardings of the same deployment, not different deployments.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.experiments.runner import ExperimentScale
from repro.fleet.config import AdmissionConfig
from repro.multicluster.config import make_multicluster_config
from repro.multicluster.placement import list_placements
from repro.multicluster.routing import list_global_routers
from repro.multicluster.schema import SCHEMA_VERSION
from repro.multicluster.system import MultiClusterResult, MultiClusterSystem
from repro.policies import make_policy
from repro.scenarios.registry import ScenarioSpec, get_scenario, list_scenarios
from repro.scenarios.sweep import build_cell_config, spec_fingerprint
from repro.sweeps import ResultCache, SweepTask, run_tasks
from repro.version import __version__
from repro.workloads.slo import LatencyRecord, baseline_p50, slo_violation_ratio

#: Default sweep scale (instances *per cluster*); what the
#: ``python -m repro.multicluster`` acceptance run uses.
QUICK_MULTICLUSTER_SCALE = ExperimentScale(
    name="multicluster-quick",
    num_instances=2,
    trace_duration_s=30.0,
    drain_timeout_s=30.0,
)

FULL_MULTICLUSTER_SCALE = ExperimentScale(
    name="multicluster-full",
    num_instances=4,
    trace_duration_s=90.0,
    drain_timeout_s=90.0,
)

MULTICLUSTER_SCALES: Dict[str, ExperimentScale] = {
    "quick": QUICK_MULTICLUSTER_SCALE,
    "full": FULL_MULTICLUSTER_SCALE,
}

#: Default grid axes: one session-heavy scenario (so locality routing has
#: real conversations to pin), one policy, two shards, every global
#: router, every placement policy.
DEFAULT_SCENARIOS: Tuple[str, ...] = ("steady-poisson",)
DEFAULT_POLICIES: Tuple[str, ...] = ("vllm",)
DEFAULT_CLUSTER_COUNTS: Tuple[int, ...] = (2,)

#: Admission settings used by every sweep cell (per cluster): tight enough
#: that bounded queues and shedding are exercised under bursts, loose
#: enough that steady-state cells behave like the plain dispatcher.
SWEEP_ADMISSION = AdmissionConfig(
    max_queue_depth=512,
    max_group_waiting=64,
    ttft_shed_s=60.0,
)

#: Default output location: the repository root, next to BENCH_results.json.
DEFAULT_OUTPUT = Path(__file__).resolve().parents[3] / "MULTICLUSTER_results.json"


@dataclasses.dataclass(frozen=True)
class MultiClusterCellResult:
    """Raw outcome of one grid cell, before SLO aggregation.

    ``latencies`` holds one ``(ttft, mean_tpot)`` pair per request so the
    aggregator can derive cross-cell SLO baselines without shipping full
    records between processes (same trick as the scenario/fleet sweeps).
    """

    scenario: str
    policy: str
    policy_name: str
    clusters: int
    router: str
    placement: str
    workload: str
    requests: int
    finished: int
    completion_ratio: float
    initial_groups: int
    summary: Dict[str, float]
    tier_stats: Dict[str, float]
    latencies: Tuple[Tuple[Optional[float], Optional[float]], ...]
    wall_s: float


@dataclasses.dataclass(frozen=True)
class TierRun:
    """One timed multicluster run: the system, its result, and context."""

    system: MultiClusterSystem
    result: MultiClusterResult
    workload_name: str
    initial_groups: int
    wall_s: float


def tier_workload_scale(scale: ExperimentScale, num_clusters: int) -> ExperimentScale:
    """The tier's workload sizing convention, in one place.

    ``scale.num_instances`` sizes one shard; the workload is generated
    for ``num_instances × clusters`` so offered load scales with total
    capacity and the cluster-count axis compares shardings of the same
    deployment at equal utilisation.  The scenario sweep's
    ``--multicluster`` axis shares this helper, so the two documents
    stay comparable.
    """
    return dataclasses.replace(
        scale,
        name=f"{scale.name}-x{num_clusters}",
        num_instances=scale.num_instances * num_clusters,
    )


def run_tier(
    spec: ScenarioSpec,
    policy_key: str,
    config,
    scale: ExperimentScale,
    seed: int,
    trace: Union[bool, str] = False,
    on_tracer=None,
    on_system=None,
) -> TierRun:
    """Build the tier's workload, run ``config`` through it, and time it.

    ``config`` must carry a ``multicluster`` section; the workload is
    sized by :func:`tier_workload_scale`.  ``trace=True`` attaches one
    shared :class:`repro.trace.Tracer` across the tier and its shards
    (``trace="disabled"`` attaches it with recording off); ``on_tracer``
    receives the tracer right after it attaches.  ``on_system`` receives
    the constructed :class:`MultiClusterSystem` before the run starts —
    the hook the ``--alerts`` axis uses to attach an in-memory metrics
    monitor.
    """
    workload_scale = tier_workload_scale(scale, config.multicluster.num_clusters)
    workload = spec.build_workload(workload_scale, seed)
    start = time.perf_counter()
    system = MultiClusterSystem(config, lambda: make_policy(policy_key))
    if trace:
        tracer = system.attach_tracer(enabled=(trace != "disabled"))
        if on_tracer is not None:
            on_tracer(tracer)
    if on_system is not None:
        on_system(system)
    initial_groups = system.initial_group_count()
    result = system.run(workload)
    wall_s = time.perf_counter() - start
    return TierRun(
        system=system,
        result=result,
        workload_name=workload.name,
        initial_groups=initial_groups,
        wall_s=wall_s,
    )


def run_multicluster_cell(
    scenario: Union[str, ScenarioSpec],
    policy_key: str,
    cluster_count: int,
    router: str,
    placement: str,
    scale: ExperimentScale,
    seed: int = 42,
) -> MultiClusterCellResult:
    """Run one scenario through one (policy, clusters, router, placement)
    combination; the in-process cell primitive."""
    spec = scenario if isinstance(scenario, ScenarioSpec) else get_scenario(scenario)
    config = build_cell_config(spec, scale, seed=seed)
    config.multicluster = make_multicluster_config(
        num_clusters=cluster_count,
        global_router=router,
        placement=placement,
        admission=SWEEP_ADMISSION,
    )
    run = run_tier(spec, policy_key, config, scale, seed)
    result = run.result
    return MultiClusterCellResult(
        scenario=spec.name,
        policy=policy_key,
        policy_name=result.system_name,
        clusters=cluster_count,
        router=router,
        placement=placement,
        workload=run.workload_name,
        requests=result.submitted_requests,
        finished=result.finished_requests,
        completion_ratio=result.completion_ratio,
        initial_groups=run.initial_groups,
        summary=result.summary,
        tier_stats=run.system.stats(),
        latencies=tuple((r.ttft, r.mean_tpot) for r in result.records),
        wall_s=run.wall_s,
    )


def stream_cell_metrics(
    scenario: Union[str, ScenarioSpec],
    policy_key: str,
    cluster_count: int,
    router: str,
    placement: str,
    scale: ExperimentScale,
    seed: int,
    path,
) -> int:
    """Replay one cell inline with a live Prometheus metrics stream.

    Same construction as :func:`run_multicluster_cell`, but with a
    :class:`repro.metrics.MetricsMonitor` attached, streaming per-shard
    fleet gauges plus the tier-level counters (WAN bytes, faults, alive
    shards) to ``path``; returns the number of scrapes written.  This is
    what ``python -m repro.multicluster --metrics-out`` runs (uncached —
    the stream is the point, not the result document).
    """
    spec = scenario if isinstance(scenario, ScenarioSpec) else get_scenario(scenario)
    config = build_cell_config(spec, scale, seed=seed)
    config.multicluster = make_multicluster_config(
        num_clusters=cluster_count,
        global_router=router,
        placement=placement,
        admission=SWEEP_ADMISSION,
    )
    workload_scale = tier_workload_scale(scale, cluster_count)
    workload = spec.build_workload(workload_scale, seed)
    system = MultiClusterSystem(config, lambda: make_policy(policy_key))
    monitor = system.attach_metrics(path=path)
    system.run(workload)
    return monitor.scrapes


# ----------------------------------------------------------------------
# Sweep-engine adapter
# ----------------------------------------------------------------------
def run_multicluster_cell_payload(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """Sweep-engine runner: one multicluster cell as a JSON-able payload."""
    cell = run_multicluster_cell(
        params["scenario"],
        params["policy"],
        params["clusters"],
        params["router"],
        params["placement"],
        params["scale"],
        seed,
    )
    return dataclasses.asdict(cell)


def multicluster_cell_task(
    spec: ScenarioSpec,
    policy: str,
    cluster_count: int,
    router: str,
    placement: str,
    scale: ExperimentScale,
    seed: int,
) -> SweepTask:
    """Describe one multicluster grid cell as a cacheable sweep task."""
    mc = make_multicluster_config(
        num_clusters=cluster_count,
        global_router=router,
        placement=placement,
        admission=SWEEP_ADMISSION,
    )
    return SweepTask(
        runner="repro.multicluster.sweep:run_multicluster_cell_payload",
        params={
            "scenario": spec,
            "policy": policy,
            "clusters": cluster_count,
            "router": router,
            "placement": placement,
            "scale": scale,
        },
        key={
            "kind": "multicluster-cell",
            "schema_version": SCHEMA_VERSION,
            "scenario": spec_fingerprint(spec),
            "policy": policy,
            # The full tier config, WAN parameters included: a changed
            # link model must invalidate cached cells.
            "multicluster": {
                **{k: v for k, v in dataclasses.asdict(mc).items() if k != "admission"},
                "admission": dataclasses.asdict(mc.admission),
            },
            "scale": dataclasses.asdict(scale),
        },
        seed=seed,
        label=f"{spec.name}/{policy}/x{cluster_count}/{router}/{placement}",
    )


def _scenario_entries(
    spec: ScenarioSpec, cells: Sequence[Dict[str, Any]]
) -> List[Dict]:
    """Turn one scenario's cell payloads into schema entries with derived SLOs.

    The SLO reference point is the best cell's P50 (TTFT and TPOT
    independently) *within this scenario* across the whole multicluster
    grid, scaled by the scenario's ``slo_scale`` — the Figure 13
    convention with tier configurations standing in for policies.
    """
    records_by_cell = {
        index: [LatencyRecord(t, p) for t, p in cell["latencies"]]
        for index, cell in enumerate(cells)
    }
    best_ttft, best_tpot = baseline_p50(records_by_cell)
    ttft_slo_s = spec.slo_scale * best_ttft
    tpot_slo_s = spec.slo_scale * best_tpot
    entries = []
    for index, cell in enumerate(cells):
        violation = slo_violation_ratio(
            records_by_cell[index], ttft_slo_s=ttft_slo_s, tpot_slo_s=tpot_slo_s
        )
        stats = cell["tier_stats"]
        summary = cell["summary"]
        requests = cell["requests"]
        entries.append(
            {
                "scenario": cell["scenario"],
                "policy": cell["policy"],
                "policy_name": cell["policy_name"],
                "clusters": cell["clusters"],
                "router": cell["router"],
                "placement": cell["placement"],
                "workload": cell["workload"],
                "requests": requests,
                "local_routed": int(stats["local_routed"]),
                "remote_routed": int(stats["remote_routed"]),
                "cross_cluster_ratio": (
                    stats["remote_routed"] / requests if requests else 0.0
                ),
                "cross_cluster_bytes": stats["cross_cluster_bytes"],
                "admitted": int(stats["admitted"]),
                "shed": int(stats["shed"]),
                "queue_peak": int(stats["queue_peak"]),
                "scale_up_events": int(stats["scale_up_events"]),
                "remote_scale_ups": int(stats["remote_scale_ups"]),
                "scale_down_events": int(stats["scale_down_events"]),
                "initial_groups": cell["initial_groups"],
                "final_groups": int(stats["final_groups"]),
                "finished": cell["finished"],
                "completion_ratio": cell["completion_ratio"],
                "ttft_p50": summary["ttft_p50"],
                "ttft_p90": summary["ttft_p90"],
                "ttft_p99": summary["ttft_p99"],
                "tpot_p50": summary["tpot_p50"],
                "tpot_p90": summary["tpot_p90"],
                "tpot_p99": summary["tpot_p99"],
                "throughput_tokens_per_s": summary["throughput_tokens_per_s"],
                "slo_scale": spec.slo_scale,
                "ttft_slo_s": ttft_slo_s,
                "tpot_slo_s": tpot_slo_s,
                "slo_violation_ratio": violation,
                "slo_attainment": 1.0 - violation,
                "wall_s": cell["wall_s"],
            }
        )
    return entries


def run_multicluster_sweep(
    *,
    scenarios: Optional[Sequence[str]] = None,
    policies: Optional[Sequence[str]] = None,
    cluster_counts: Optional[Sequence[int]] = None,
    routers: Optional[Sequence[str]] = None,
    placements: Optional[Sequence[str]] = None,
    scale: ExperimentScale = QUICK_MULTICLUSTER_SCALE,
    seed: int = 42,
    max_workers: Optional[int] = None,
    use_cache: bool = False,
    cache_dir: Optional[Path] = None,
) -> Dict:
    """Sweep the scenario × policy × clusters × router × placement grid.

    Args:
        scenarios: scenario names (default: :data:`DEFAULT_SCENARIOS`).
        policies: overload-policy keys (default: :data:`DEFAULT_POLICIES`).
        cluster_counts: cluster shard counts
            (default: :data:`DEFAULT_CLUSTER_COUNTS`).
        routers: global router strategies (default: every registered one).
        placements: placement policies (default: every registered one).
        scale: per-cluster size / trace length of every cell.
        seed: sweep seed; every cell derives its randomness from it.
        max_workers: worker processes; ``1`` runs cells inline (no pool),
            ``None`` sizes the pool to the grid (capped by the CPUs this
            process may use, cgroup limits included).
        use_cache: serve unchanged cells from the on-disk result cache
            and store fresh ones (the CLI enables this by default; the
            Python API defaults to off).
        cache_dir: cache location override (default ``.repro_cache/`` at
            the repository root, or ``$REPRO_CACHE_DIR``).
    """
    names = list(scenarios) if scenarios is not None else list(DEFAULT_SCENARIOS)
    policy_keys = list(policies) if policies is not None else list(DEFAULT_POLICIES)
    counts = (
        [int(c) for c in cluster_counts]
        if cluster_counts is not None
        else list(DEFAULT_CLUSTER_COUNTS)
    )
    router_names = list(routers) if routers is not None else list_global_routers()
    placement_names = list(placements) if placements is not None else list_placements()
    unknown = [n for n in names if n not in list_scenarios()]
    if unknown:
        raise KeyError(f"unknown scenarios {unknown}; known: {', '.join(list_scenarios())}")
    unknown = [r for r in router_names if r not in list_global_routers()]
    if unknown:
        raise KeyError(
            f"unknown global routers {unknown}; known: {', '.join(list_global_routers())}"
        )
    unknown = [p for p in placement_names if p not in list_placements()]
    if unknown:
        raise KeyError(
            f"unknown placement policies {unknown}; known: {', '.join(list_placements())}"
        )
    if any(count < 1 for count in counts):
        raise ValueError("cluster counts must be >= 1")
    if not names or not policy_keys or not counts or not router_names or not placement_names:
        raise ValueError("the multicluster sweep needs at least one value on every axis")
    if max_workers is not None and max_workers < 1:
        raise ValueError("max_workers must be >= 1")
    specs = [get_scenario(name) for name in names]
    tasks = [
        multicluster_cell_task(spec, policy, count, router, placement, scale, seed)
        for spec in specs
        for policy in policy_keys
        for count in counts
        for router in router_names
        for placement in placement_names
    ]

    cache = ResultCache(cache_dir) if use_cache else None
    start = time.perf_counter()
    outcome = run_tasks(tasks, max_workers=max_workers, cache=cache)
    wall_s_total = time.perf_counter() - start

    by_scenario: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    for cell in outcome.results:
        by_scenario[cell["scenario"]].append(cell)
    entries: List[Dict] = []
    for spec in specs:
        entries.extend(_scenario_entries(spec, by_scenario[spec.name]))

    return {
        "schema_version": SCHEMA_VERSION,
        "repro_version": __version__,
        "seed": seed,
        "scale": {
            "name": scale.name,
            "num_instances": scale.num_instances,
            "trace_duration_s": scale.trace_duration_s,
            "drain_timeout_s": scale.drain_timeout_s,
        },
        "scenarios": names,
        "policies": policy_keys,
        "cluster_counts": counts,
        "routers": router_names,
        "placements": placement_names,
        "entries": entries,
        "cache_hits": outcome.cache_hits,
        "cache_misses": outcome.cache_misses,
        "wall_s_total": wall_s_total,
    }


def write_results(document: Dict, path: Optional[Path] = None) -> Path:
    """Write the document to ``MULTICLUSTER_results.json`` (repo root by default)."""
    target = Path(path) if path is not None else DEFAULT_OUTPUT
    target.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n")
    return target


def format_results(document: Dict) -> str:
    """Human-readable table of a multicluster sweep document."""
    scale = document["scale"]
    lines = [
        f"repro {document['repro_version']} · scale {scale['name']} "
        f"({scale['num_instances']} instances/cluster, "
        f"{scale['trace_duration_s']:.0f}s trace) · seed {document['seed']} "
        f"· {len(document['entries'])} cells in {document['wall_s_total']:.1f}s",
        f"{'scenario':<16} {'policy':<8} {'cl':>2} {'router':<21} {'placement':<20} "
        f"{'reqs':>5} {'rem':>5} {'shed':>5} {'up':>3} {'rup':>3} "
        f"{'ttft_p50':>9} {'slo_att':>8}",
    ]
    for entry in document["entries"]:
        lines.append(
            f"{entry['scenario']:<16} {entry['policy']:<8} {entry['clusters']:>2d} "
            f"{entry['router']:<21} {entry['placement']:<20} "
            f"{entry['requests']:>5d} {entry['remote_routed']:>5d} "
            f"{entry['shed']:>5d} {entry['scale_up_events']:>3d} "
            f"{entry['remote_scale_ups']:>3d} {entry['ttft_p50']:>9.3f} "
            f"{entry['slo_attainment']:>8.2f}"
        )
    return "\n".join(lines)
