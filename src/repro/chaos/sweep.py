"""Chaos sweep (scenario × policy × faults × session-migration grid),
executed by the unified sweep engine.

Promotes faults to a first-class sweep axis: every cell replays a
registered scenario (:mod:`repro.scenarios.registry`) through a
two-cluster fleet-of-fleets system
(:class:`~repro.multicluster.system.MultiClusterSystem`) while a
deterministic :class:`~repro.chaos.config.FaultSchedule` injects
failures, and the ``sticky`` vs. ``migrate`` session policies compete on
what the faults cost: requests lost, WAN bytes moved, and the recovery
transient (how long fault-displaced requests take to finish).

Execution mirrors :mod:`repro.multicluster.sweep` exactly: every cell is
a :class:`~repro.sweeps.task.SweepTask` whose content hash covers the
*materialised fault schedule* (:func:`~repro.chaos.config.schedule_fingerprint`)
on top of the scenario fingerprint, tier config, scale, seed and
``repro`` version — so editing a preset's timing invalidates exactly the
cells that replay it.  Cache hits skip recomputation; misses fan out
over the engine's shared warm worker pool.  Output is bit-identical
across runs, worker counts, and cold vs. warm caches, modulo the
``wall_s*`` and cache-accounting fields.

The grid keeps the tier topology fixed (two shards, locality-affinity
routing, spare-capacity-first placement) so the ``faults`` and
``migration`` axes are the only thing changing between cells: with
locality routing the no-fault baseline generates zero WAN traffic, and
every cross-cluster byte in a fault cell is attributable to the fault.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.chaos.config import (
    FaultSchedule,
    fault_schedule_preset,
    list_fault_presets,
    schedule_fingerprint,
)
from repro.chaos.schema import SCHEMA_VERSION
from repro.experiments.runner import ExperimentScale
from repro.multicluster.config import (
    SESSION_MIGRATION_POLICIES,
    make_multicluster_config,
)
from repro.multicluster.sweep import SWEEP_ADMISSION, run_tier, tier_workload_scale
from repro.multicluster.system import MultiClusterSystem
from repro.policies import make_policy
from repro.scenarios.registry import ScenarioSpec, get_scenario, list_scenarios
from repro.scenarios.sweep import build_cell_config, spec_fingerprint
from repro.sweeps import ResultCache, SweepTask, run_tasks
from repro.version import __version__
from repro.workloads.slo import LatencyRecord, baseline_p50, slo_violation_ratio

#: Default sweep scale (instances *per cluster*); what the
#: ``python -m repro.chaos`` acceptance run uses.  The drain timeout is
#: deliberately generous: the recovery-transient comparison needs the
#: surviving cluster to have time to absorb a dead sibling's load.
QUICK_CHAOS_SCALE = ExperimentScale(
    name="chaos-quick",
    num_instances=2,
    trace_duration_s=30.0,
    drain_timeout_s=90.0,
)

FULL_CHAOS_SCALE = ExperimentScale(
    name="chaos-full",
    num_instances=4,
    trace_duration_s=90.0,
    drain_timeout_s=180.0,
)

CHAOS_SCALES: Dict[str, ExperimentScale] = {
    "quick": QUICK_CHAOS_SCALE,
    "full": FULL_CHAOS_SCALE,
}

#: Default grid axes: the no-fault baseline plus the outage that the
#: session-migration axis exists for.
DEFAULT_SCENARIOS: Tuple[str, ...] = ("steady-poisson",)
DEFAULT_POLICIES: Tuple[str, ...] = ("vllm",)
DEFAULT_FAULTS: Tuple[str, ...] = ("none", "cluster-outage")
DEFAULT_MIGRATIONS: Tuple[str, ...] = tuple(SESSION_MIGRATION_POLICIES)

#: Fixed tier topology of every cell (see the module docstring).
CHAOS_CLUSTER_COUNT = 2
CHAOS_ROUTER = "locality_affinity"
CHAOS_PLACEMENT = "spare_capacity_first"

#: Default output location: the repository root, next to BENCH_results.json.
DEFAULT_OUTPUT = Path(__file__).resolve().parents[3] / "CHAOS_results.json"


def cell_schedule(
    faults: str, scale: ExperimentScale, seed: int, num_clusters: int = CHAOS_CLUSTER_COUNT
) -> FaultSchedule:
    """Materialise a cell's fault schedule from its preset name.

    Deterministic in (preset, scale, seed): strike times scale with the
    trace duration and the ``churn`` preset samples its hazard process
    from the cell seed — so the schedule can be rebuilt identically on a
    sweep worker and fingerprinted identically for the cache key.
    """
    return fault_schedule_preset(
        faults,
        duration_s=scale.trace_duration_s,
        num_clusters=num_clusters,
        instances_per_cluster=scale.num_instances,
        seed=seed,
    )


@dataclasses.dataclass(frozen=True)
class ChaosCellResult:
    """Raw outcome of one grid cell, before SLO aggregation."""

    scenario: str
    policy: str
    policy_name: str
    faults: str
    migration: str
    clusters: int
    router: str
    placement: str
    workload: str
    fault_events: int
    requests: int
    finished: int
    completion_ratio: float
    recovery_transient_s: float
    summary: Dict[str, float]
    tier_stats: Dict[str, float]
    latencies: Tuple[Tuple[Optional[float], Optional[float]], ...]
    wall_s: float
    #: per-stage latency attribution (``--trace`` cells only; ``None``
    #: when the cell ran untraced or with a disabled tracer).
    stage_breakdown: Optional[Dict[str, Any]] = None
    #: alert timeline block (``--alerts`` cells only; see
    #: :mod:`repro.obs.schema`).
    alerts: Optional[Dict[str, Any]] = None


def run_chaos_cell(
    scenario: Union[str, ScenarioSpec],
    policy_key: str,
    faults: str,
    migration: str,
    scale: ExperimentScale,
    seed: int = 42,
    trace: Union[bool, str] = False,
    on_tracer=None,
    alerts: bool = False,
) -> ChaosCellResult:
    """Run one scenario through one (policy, faults, migration)
    combination; the in-process cell primitive.

    ``trace=True`` attaches a tier-wide :class:`repro.trace.Tracer` and
    fills the result's ``stage_breakdown``; ``trace="disabled"`` attaches
    it with recording off.  ``on_tracer`` receives the tracer right after
    it attaches, so callers can keep a handle for span export.

    ``alerts=True`` attaches an in-memory metrics monitor, replays the
    :func:`repro.obs.default_rule_pack` over the recorded scrape stream,
    and fills the result's ``alerts`` block.
    """
    spec = scenario if isinstance(scenario, ScenarioSpec) else get_scenario(scenario)
    schedule = cell_schedule(faults, scale, seed)
    config = build_cell_config(spec, scale, seed=seed)
    config.multicluster = make_multicluster_config(
        num_clusters=CHAOS_CLUSTER_COUNT,
        global_router=CHAOS_ROUTER,
        placement=CHAOS_PLACEMENT,
        admission=SWEEP_ADMISSION,
        session_migration=migration,
    )
    config.chaos = schedule if schedule else None
    chunks: List[Tuple[str, float]] = []
    on_system = None
    if alerts:
        def on_system(system):
            system.attach_metrics(callback=lambda text, now: chunks.append((text, now)))

    run = run_tier(
        spec, policy_key, config, scale, seed,
        trace=trace, on_tracer=on_tracer, on_system=on_system,
    )
    result = run.result
    alerts_block = None
    if alerts:
        from repro.obs import evaluate_monitor_chunks

        alerts_block = evaluate_monitor_chunks(chunks)
    stage_breakdown = None
    tracer = run.system.tracer
    if tracer is not None and tracer.enabled:
        from repro.trace import LatencyAttribution

        stage_breakdown = LatencyAttribution.from_tracer(tracer).stage_breakdown()
    return ChaosCellResult(
        scenario=spec.name,
        policy=policy_key,
        policy_name=result.system_name,
        faults=faults,
        migration=migration,
        clusters=CHAOS_CLUSTER_COUNT,
        router=CHAOS_ROUTER,
        placement=CHAOS_PLACEMENT,
        workload=run.workload_name,
        fault_events=len(schedule.events),
        requests=result.submitted_requests,
        finished=result.finished_requests,
        completion_ratio=result.completion_ratio,
        recovery_transient_s=run.system.recovery_transient_s(result.records),
        summary=result.summary,
        tier_stats=run.system.stats(),
        latencies=tuple((r.ttft, r.mean_tpot) for r in result.records),
        wall_s=run.wall_s,
        stage_breakdown=stage_breakdown,
        alerts=alerts_block,
    )


def stream_cell_metrics(
    scenario: Union[str, ScenarioSpec],
    policy_key: str,
    faults: str,
    migration: str,
    scale: ExperimentScale,
    seed: int,
    path: Path,
    trace: bool = False,
) -> int:
    """Replay one cell inline with a live Prometheus metrics stream.

    Same construction as :func:`run_chaos_cell`, but with a
    :class:`repro.metrics.MetricsMonitor` attached and streaming text
    scrapes to ``path``; returns the number of scrapes written.  This is
    what ``python -m repro.chaos --metrics-out`` runs (uncached — the
    stream is the point, not the result document).  With ``trace=True``
    a tier-wide span tracer attaches and the stream additionally carries
    the ``repro_stage_duration_seconds`` histogram.
    """
    spec = scenario if isinstance(scenario, ScenarioSpec) else get_scenario(scenario)
    schedule = cell_schedule(faults, scale, seed)
    config = build_cell_config(spec, scale, seed=seed)
    config.multicluster = make_multicluster_config(
        num_clusters=CHAOS_CLUSTER_COUNT,
        global_router=CHAOS_ROUTER,
        placement=CHAOS_PLACEMENT,
        admission=SWEEP_ADMISSION,
        session_migration=migration,
    )
    config.chaos = schedule if schedule else None
    workload_scale = tier_workload_scale(scale, CHAOS_CLUSTER_COUNT)
    workload = spec.build_workload(workload_scale, seed)
    system = MultiClusterSystem(config, lambda: make_policy(policy_key))
    monitor = system.attach_metrics(path=path)
    if trace:
        from repro.metrics import trace_metrics_source

        monitor.add_source(trace_metrics_source(system.attach_tracer()))
    system.run(workload)
    return monitor.scrapes


# ----------------------------------------------------------------------
# Sweep-engine adapter
# ----------------------------------------------------------------------
def run_chaos_cell_payload(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """Sweep-engine runner: one chaos cell as a JSON-able payload."""
    cell = run_chaos_cell(
        params["scenario"],
        params["policy"],
        params["faults"],
        params["migration"],
        params["scale"],
        seed,
        trace=params.get("trace", False),
        alerts=params.get("alerts", False),
    )
    return dataclasses.asdict(cell)


def chaos_cell_task(
    spec: ScenarioSpec,
    policy: str,
    faults: str,
    migration: str,
    scale: ExperimentScale,
    seed: int,
    trace: bool = False,
    alerts: bool = False,
) -> SweepTask:
    """Describe one chaos grid cell as a cacheable sweep task."""
    mc = make_multicluster_config(
        num_clusters=CHAOS_CLUSTER_COUNT,
        global_router=CHAOS_ROUTER,
        placement=CHAOS_PLACEMENT,
        admission=SWEEP_ADMISSION,
        session_migration=migration,
    )
    schedule = cell_schedule(faults, scale, seed)
    params: Dict[str, Any] = {
        "scenario": spec,
        "policy": policy,
        "faults": faults,
        "migration": migration,
        "scale": scale,
    }
    key: Dict[str, Any] = {
        "kind": "chaos-cell",
        "schema_version": SCHEMA_VERSION,
        "scenario": spec_fingerprint(spec),
        "policy": policy,
        # The materialised schedule, not just the preset name: a
        # retimed or resampled preset must invalidate cached cells.
        "schedule": schedule_fingerprint(schedule),
        "multicluster": {
            **{k: v for k, v in dataclasses.asdict(mc).items() if k != "admission"},
            "admission": dataclasses.asdict(mc.admission),
        },
        "scale": dataclasses.asdict(scale),
    }
    if trace:
        # Only traced cells key on the axis: untraced cache entries stay
        # valid (and bit-identical) whether or not tracing exists.
        params["trace"] = True
        key["trace"] = True
    if alerts:
        # Same opt-in pattern: only alert cells key on the axis.
        params["alerts"] = True
        key["alerts"] = True
    return SweepTask(
        runner="repro.chaos.sweep:run_chaos_cell_payload",
        params=params,
        key=key,
        seed=seed,
        label=f"{spec.name}/{policy}/{faults}/{migration}",
    )


def _scenario_entries(
    spec: ScenarioSpec, cells: Sequence[Dict[str, Any]]
) -> List[Dict]:
    """Turn one scenario's cell payloads into schema entries with derived SLOs.

    The SLO reference point is the best cell's P50 (TTFT and TPOT
    independently) *within this scenario* across the whole chaos grid —
    in practice the no-fault baseline — so attainment under faults is
    measured against healthy-system latency.
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
        lost = int(stats["lost_to_fault"])
        shed = int(stats["shed"])
        entries.append(
            {
                "scenario": cell["scenario"],
                "policy": cell["policy"],
                "policy_name": cell["policy_name"],
                "faults": cell["faults"],
                "migration": cell["migration"],
                "clusters": cell["clusters"],
                "router": cell["router"],
                "placement": cell["placement"],
                "workload": cell["workload"],
                "fault_events": cell["fault_events"],
                "requests": requests,
                "finished": cell["finished"],
                "shed": shed,
                "lost_to_fault": lost,
                "incomplete": requests - cell["finished"] - shed - lost,
                "completion_ratio": cell["completion_ratio"],
                "local_routed": int(stats["local_routed"]),
                "remote_routed": int(stats["remote_routed"]),
                "rerouted": int(stats["rerouted"]),
                "migrated_sessions": int(stats["migrated_sessions"]),
                "migration_hits": int(stats["migration_hits"]),
                "displaced": int(stats["displaced"]),
                "instance_kills": int(stats["instance_kills"]),
                "cluster_outages": int(stats["cluster_outages"]),
                "wan_degrades": int(stats["wan_degrades"]),
                "cross_cluster_bytes": stats["cross_cluster_bytes"],
                "dispatch_bytes": stats["dispatch_bytes"],
                "migration_bytes": stats["migration_bytes"],
                "recovery_transient_s": cell["recovery_transient_s"],
                "admitted": int(stats["admitted"]),
                "queue_peak": int(stats["queue_peak"]),
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
        if cell.get("stage_breakdown"):
            entries[-1]["stage_breakdown"] = cell["stage_breakdown"]
        if cell.get("alerts"):
            entries[-1]["alerts"] = cell["alerts"]
    return entries


def run_chaos_sweep(
    *,
    scenarios: Optional[Sequence[str]] = None,
    policies: Optional[Sequence[str]] = None,
    faults: Optional[Sequence[str]] = None,
    migrations: Optional[Sequence[str]] = None,
    scale: ExperimentScale = QUICK_CHAOS_SCALE,
    seed: int = 42,
    max_workers: Optional[int] = None,
    use_cache: bool = False,
    cache_dir: Optional[Path] = None,
    trace: bool = False,
    alerts: bool = False,
) -> Dict:
    """Sweep the scenario × policy × faults × migration grid.

    Args:
        scenarios: scenario names (default: :data:`DEFAULT_SCENARIOS`).
        policies: overload-policy keys (default: :data:`DEFAULT_POLICIES`).
        faults: fault-schedule preset names
            (default: :data:`DEFAULT_FAULTS`; see
            :func:`repro.chaos.config.list_fault_presets`).
        migrations: session-migration policies
            (default: both of :data:`DEFAULT_MIGRATIONS`).
        scale: per-cluster size / trace length of every cell.
        seed: sweep seed; every cell derives its randomness (workload,
            latency jitter, sampled fault times) from it.
        max_workers: worker processes; ``1`` runs cells inline (no pool),
            ``None`` sizes the pool to the grid (capped by the CPUs this
            process may use, cgroup limits included).
        use_cache: serve unchanged cells from the on-disk result cache
            and store fresh ones (the CLI enables this by default; the
            Python API defaults to off).
        cache_dir: cache location override (default ``.repro_cache/`` at
            the repository root, or ``$REPRO_CACHE_DIR``).
        trace: attach a per-request span tracer to every cell and add a
            ``stage_breakdown`` block (per-stage latency attribution) to
            each entry.  Traced cells cache under a distinct key.
        alerts: attach an in-memory metrics monitor to every cell,
            replay the default alert-rule pack over its scrape stream,
            and add an ``alerts`` block (firing/resolved timeline) to
            each entry.  Alert cells cache under a distinct key; cells
            without the axis stay bit-identical.
    """
    names = list(scenarios) if scenarios is not None else list(DEFAULT_SCENARIOS)
    policy_keys = list(policies) if policies is not None else list(DEFAULT_POLICIES)
    fault_names = list(faults) if faults is not None else list(DEFAULT_FAULTS)
    migration_names = (
        list(migrations) if migrations is not None else list(DEFAULT_MIGRATIONS)
    )
    unknown = [n for n in names if n not in list_scenarios()]
    if unknown:
        raise KeyError(f"unknown scenarios {unknown}; known: {', '.join(list_scenarios())}")
    unknown = [f for f in fault_names if f not in list_fault_presets()]
    if unknown:
        raise KeyError(
            f"unknown fault presets {unknown}; known: {', '.join(list_fault_presets())}"
        )
    unknown = [m for m in migration_names if m not in SESSION_MIGRATION_POLICIES]
    if unknown:
        raise KeyError(
            f"unknown session migrations {unknown}; "
            f"known: {', '.join(SESSION_MIGRATION_POLICIES)}"
        )
    if not names or not policy_keys or not fault_names or not migration_names:
        raise ValueError("the chaos sweep needs at least one value on every axis")
    if max_workers is not None and max_workers < 1:
        raise ValueError("max_workers must be >= 1")
    specs = [get_scenario(name) for name in names]
    tasks = [
        chaos_cell_task(
            spec, policy, fault, migration, scale, seed,
            trace=trace, alerts=alerts,
        )
        for spec in specs
        for policy in policy_keys
        for fault in fault_names
        for migration in migration_names
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
        "faults": fault_names,
        "migrations": migration_names,
        "clusters": CHAOS_CLUSTER_COUNT,
        "router": CHAOS_ROUTER,
        "placement": CHAOS_PLACEMENT,
        "trace": bool(trace),
        # Only present when the opt-in axis was enabled: plain documents
        # keep their pre-alerts byte shape (no schema version bump).
        **({"alerts": True} if alerts else {}),
        "entries": entries,
        "cache_hits": outcome.cache_hits,
        "cache_misses": outcome.cache_misses,
        "wall_s_total": wall_s_total,
    }


def write_results(document: Dict, path: Optional[Path] = None) -> Path:
    """Write the document to ``CHAOS_results.json`` (repo root by default)."""
    target = Path(path) if path is not None else DEFAULT_OUTPUT
    target.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n")
    return target


def format_results(document: Dict) -> str:
    """Human-readable table of a chaos sweep document."""
    scale = document["scale"]
    lines = [
        f"repro {document['repro_version']} · scale {scale['name']} "
        f"({scale['num_instances']} instances/cluster, "
        f"{scale['trace_duration_s']:.0f}s trace) · seed {document['seed']} "
        f"· {len(document['entries'])} cells in {document['wall_s_total']:.1f}s",
        f"{'scenario':<16} {'policy':<8} {'faults':<15} {'migration':<9} "
        f"{'reqs':>5} {'fin':>5} {'lost':>5} {'rert':>5} "
        f"{'recov_s':>8} {'wan_GB':>7} {'slo_att':>8}",
    ]
    for entry in document["entries"]:
        lines.append(
            f"{entry['scenario']:<16} {entry['policy']:<8} {entry['faults']:<15} "
            f"{entry['migration']:<9} {entry['requests']:>5d} {entry['finished']:>5d} "
            f"{entry['lost_to_fault']:>5d} {entry['rerouted']:>5d} "
            f"{entry['recovery_transient_s']:>8.2f} "
            f"{entry['cross_cluster_bytes'] / 1e9:>7.2f} "
            f"{entry['slo_attainment']:>8.2f}"
        )
    return "\n".join(lines)
