"""Benchmark harness: time the simulator itself.

CCBench-style reproducible performance tracking for this repository: every
run replays a *canonical* BurstGPT slice through each overload policy and
executes each paper experiment at a fixed quick scale, measuring host
wall-clock time and simulated events per second, and writes the results to
``BENCH_results.json`` (schema: :mod:`repro.bench.schema`).  Subsequent PRs
re-run the harness to track the simulator's performance trajectory.

The harness itself is a sweep: every benchmark row is a
:class:`~repro.sweeps.task.SweepTask` executed inline
(``max_workers=1``) through the unified engine — inline because the
event-loop meter must observe the simulated events in this process, and
*never cached* because benchmark rows measure host time, which is the one
thing the result cache is explicitly allowed to discard.  The
``sweep_cache`` row, by contrast, exercises the cache on purpose: it runs
a scenario+fleet sweep cold into a throwaway cache directory and then
warm out of it, and reports both wall-clocks so the incremental-sweep win
is tracked across PRs like any other benchmark.

Two knobs matter:

* ``scale`` — the scenario size.  :data:`CANONICAL_SCALE` is the default
  used for trajectory tracking; :data:`TINY_SCALE` exists for smoke tests.
* ``experiments`` / ``policies`` — which benchmarks to run; by default all
  figure/table experiments and all five policies.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.experiments import (
    figure2,
    figure5,
    figure12,
    figure13,
    figure14,
    figure15,
    figure16,
    figure17,
    table1,
)
from repro.experiments.runner import (
    ExperimentScale,
    WORKLOAD_PRESETS,
    build_preset_workload,
    build_system_config,
    make_policies,
)
from repro.chaos.grid import GRID as CHAOS_GRID
from repro.fleet.grid import GRID as FLEET_GRID
from repro.multicluster.grid import GRID as MULTICLUSTER_GRID
from repro.scenarios.grid import GRID as SCENARIO_GRID
from repro.serve.grid import GRID as SERVE_GRID
from repro.serving.system import ClusterServingSystem
from repro.simulation.event_loop import EventLoop
from repro.sweeps import SweepTask, run_tasks
from repro.sweeps.grid import materialise, run_cell, run_grid
from repro.version import __version__

#: Scenario used for trajectory tracking: a 2-instance cluster replaying a
#: 45-second BurstGPT slice — small enough to run in seconds, large enough
#: to exercise overload, preemption and (for KunServe) a parameter drop.
CANONICAL_SCALE = ExperimentScale(
    name="bench-canonical",
    num_instances=2,
    trace_duration_s=45.0,
    drain_timeout_s=45.0,
)

#: Minimal scenario for smoke tests: completes in well under a second.
TINY_SCALE = ExperimentScale(
    name="bench-tiny",
    num_instances=2,
    trace_duration_s=4.0,
    drain_timeout_s=4.0,
)

#: Workload preset every policy benchmark replays.
CANONICAL_WORKLOAD = "burstgpt-14b"

#: Default output location: the repository root.
DEFAULT_OUTPUT = Path(__file__).resolve().parents[3] / "BENCH_results.json"


@dataclass(frozen=True)
class BenchEntry:
    """One benchmark measurement (see :mod:`repro.bench.schema`).

    ``extra`` holds additive per-row fields (e.g. the ``sweep_cache``
    row's cold/warm wall-clocks); it is flattened into the entry dict when
    the document is assembled and stays empty for every other row.
    """

    experiment: str
    kind: str
    policy: Optional[str]
    wall_s: float
    sim_s: float
    events: int
    events_per_s: float
    finished_requests: int
    extra: Dict[str, float] = field(default_factory=dict, compare=False)


def entry_dict(entry: BenchEntry) -> Dict[str, Any]:
    """Entry as a document dict, with any additive fields flattened in."""
    document = asdict(entry)
    document.update(document.pop("extra"))
    return document


def _metered(fn: Callable[[], Dict[str, float]]) -> Dict[str, float]:
    """Run ``fn`` measuring wall time and global event-loop activity.

    ``sim_s`` is the simulated time advanced by every event loop ``fn``
    ran (the :attr:`EventLoop.lifetime_sim_s` delta); a body that knows a
    better figure (e.g. a single run's ``result.duration_s``) may return
    its own ``sim_s`` to override it.
    """
    events_before = EventLoop.lifetime_events
    sim_before = EventLoop.lifetime_sim_s
    start = time.perf_counter()
    extra = fn() or {}
    wall_s = time.perf_counter() - start
    events = EventLoop.lifetime_events - events_before
    return {
        "wall_s": wall_s,
        "events": events,
        "events_per_s": events / wall_s if wall_s > 0 and events else 0.0,
        "sim_s": EventLoop.lifetime_sim_s - sim_before,
        **extra,
    }


# ----------------------------------------------------------------------
# Policy benchmarks: each policy replays the canonical BurstGPT slice
# ----------------------------------------------------------------------
def run_policy_benchmark(
    policy, scale: ExperimentScale, *, seed: int = 42, workload=None
) -> BenchEntry:
    """Replay the canonical workload under one policy; meter the run."""
    preset = WORKLOAD_PRESETS[CANONICAL_WORKLOAD]
    if workload is None:
        workload = build_preset_workload(preset, scale, seed=seed)
    config = build_system_config(preset, scale, seed=seed)
    system = ClusterServingSystem(config, policy)

    def body() -> Dict[str, float]:
        result = system.run(workload)
        return {
            "sim_s": result.duration_s,
            "finished_requests": result.finished_requests,
        }

    measured = _metered(body)
    return BenchEntry(
        experiment=f"policy:{policy.name}",
        kind="policy",
        policy=policy.name,
        wall_s=measured["wall_s"],
        sim_s=measured["sim_s"],
        events=int(measured["events"]),
        events_per_s=measured["events_per_s"],
        finished_requests=int(measured["finished_requests"]),
    )


def run_policy_benchmarks(
    scale: ExperimentScale = CANONICAL_SCALE, *, seed: int = 42
) -> List[BenchEntry]:
    """Benchmark all five systems on the same canonical workload."""
    preset = WORKLOAD_PRESETS[CANONICAL_WORKLOAD]
    workload = build_preset_workload(preset, scale, seed=seed)
    return [
        run_policy_benchmark(policy, scale, seed=seed, workload=workload)
        for policy in make_policies()
    ]


# ----------------------------------------------------------------------
# Experiment benchmarks: each paper figure/table at the requested scale
# ----------------------------------------------------------------------
def _scenario_sweep_benchmark(scale: ExperimentScale, seed: int) -> Dict:
    """A small scenario-grid sweep so its cost is tracked across PRs.

    Runs inline (``max_workers=1``) so the event-loop meter in this process
    sees the simulated events, and uncached so the row keeps measuring real
    execution; the parallel and cached paths are covered by
    ``tests/test_scenarios.py`` and the ``repro.scenarios`` CLI.
    """
    return run_grid(
        SCENARIO_GRID,
        scenarios=("steady-poisson", "spike-train"),
        policies=("vllm", "kunserve"),
        scale=dataclasses.replace(scale, name=f"scenarios-{scale.name}"),
        seed=seed,
        max_workers=1,
    )


def _fleet_sweep_benchmark(scale: ExperimentScale, seed: int) -> Dict:
    """A small fleet-grid sweep so its cost is tracked across PRs.

    Runs inline (``max_workers=1``) so the event-loop meter in this process
    sees the simulated events, and uncached so the row keeps measuring real
    execution; the parallel and cached paths are covered by
    ``tests/test_fleet.py`` and the ``repro.fleet`` CLI.
    """
    return run_grid(
        FLEET_GRID,
        scenarios=("steady-poisson",),
        policies=("vllm",),
        routers=("least_loaded", "power_of_two_choices"),
        autoscalers=("fixed", "elastic"),
        scale=dataclasses.replace(scale, name=f"fleet-{scale.name}"),
        seed=seed,
        max_workers=1,
    )


def _multicluster_sweep_benchmark(scale: ExperimentScale, seed: int) -> Dict:
    """A small fleet-of-fleets sweep so its cost is tracked across PRs.

    Two clusters, the two locality-relevant global routers, one placement
    policy.  Runs inline (``max_workers=1``) so the event-loop meter in
    this process sees the simulated events, and uncached so the row keeps
    measuring real execution; the parallel and cached paths are covered by
    ``tests/test_multicluster.py`` and the ``repro.multicluster`` CLI.
    """
    return run_grid(
        MULTICLUSTER_GRID,
        scenarios=("steady-poisson",),
        policies=("vllm",),
        cluster_counts=(2,),
        routers=("weighted_round_robin", "locality_affinity"),
        placements=("spare_capacity_first",),
        scale=dataclasses.replace(scale, name=f"multicluster-{scale.name}"),
        seed=seed,
        max_workers=1,
    )


def _chaos_sweep_benchmark(scale: ExperimentScale, seed: int) -> Dict:
    """A small chaos sweep so fault-injection cost is tracked across PRs.

    One scenario, the cluster-outage preset, both session-migration
    policies — the cell pair the chaos acceptance test pins.  Runs inline
    (``max_workers=1``) so the event-loop meter in this process sees the
    simulated events, and uncached so the row keeps measuring real
    execution; the parallel and cached paths are covered by
    ``tests/test_chaos.py`` and the ``repro.chaos`` CLI.
    """
    return run_grid(
        CHAOS_GRID,
        scenarios=("steady-poisson",),
        policies=("vllm",),
        faults=("cluster-outage",),
        migrations=("sticky", "migrate"),
        scale=dataclasses.replace(scale, name=f"chaos-{scale.name}"),
        seed=seed,
        max_workers=1,
    )


def _serve_sweep_benchmark(scale: ExperimentScale, seed: int) -> Dict:
    """A small online-serving sweep so its cost is tracked across PRs.

    The open-loop baseline plus one closed-loop retry+backpressure cell —
    the goodput comparison the serve acceptance test pins.  Runs inline
    (``max_workers=1``) so the event-loop meter in this process sees the
    simulated events, and uncached so the row keeps measuring real
    execution; the parallel and cached paths are covered by
    ``tests/test_serve.py`` and the ``repro.serve`` CLI.
    """
    return run_grid(
        SERVE_GRID,
        scenarios=("spike-train",),
        policies=("vllm",),
        clients=("open", "16"),
        retries=("backoff",),
        backpressure=("on",),
        scale=dataclasses.replace(scale, name=f"serve-{scale.name}"),
        seed=seed,
        max_workers=1,
    )


def _sweep_cache_benchmark(scale: ExperimentScale, seed: int) -> Dict[str, float]:
    """Cold vs. warm scenario+fleet sweep through the result cache.

    Runs the same grids as the ``scenarios`` and ``fleet`` rows twice
    against a throwaway cache directory: the first pass computes and
    populates the cache, the second is served entirely from it.  The
    additive ``cold_wall_s`` / ``warm_wall_s`` / ``cache_speedup`` fields
    make the incremental-sweep win visible in ``BENCH_results.json``.
    """
    cache_dir = Path(tempfile.mkdtemp(prefix="repro-sweep-cache-bench-"))

    def sweep_pair() -> int:
        scenario_doc = run_grid(
            SCENARIO_GRID,
            scenarios=("steady-poisson", "spike-train"),
            policies=("vllm", "kunserve"),
            scale=dataclasses.replace(scale, name=f"sweep-cache-{scale.name}"),
            seed=seed,
            max_workers=1,
            use_cache=True,
            cache_dir=cache_dir,
        )
        fleet_doc = run_grid(
            FLEET_GRID,
            scenarios=("steady-poisson",),
            policies=("vllm",),
            routers=("least_loaded", "power_of_two_choices"),
            autoscalers=("fixed", "elastic"),
            scale=dataclasses.replace(scale, name=f"sweep-cache-fleet-{scale.name}"),
            seed=seed,
            max_workers=1,
            use_cache=True,
            cache_dir=cache_dir,
        )
        return scenario_doc["cache_hits"] + fleet_doc["cache_hits"]

    try:
        start = time.perf_counter()
        cold_hits = sweep_pair()
        cold_wall_s = time.perf_counter() - start
        start = time.perf_counter()
        warm_hits = sweep_pair()
        warm_wall_s = time.perf_counter() - start
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "cold_wall_s": cold_wall_s,
        "warm_wall_s": warm_wall_s,
        "cache_speedup": cold_wall_s / warm_wall_s if warm_wall_s > 0 else 0.0,
        "cold_cache_hits": float(cold_hits),
        "warm_cache_hits": float(warm_hits),
    }


def _trace_overhead_benchmark(scale: ExperimentScale, seed: int) -> Dict[str, float]:
    """Disabled-tracer overhead on the canonical serve cell.

    Runs the same closed-loop serve cell with no tracer attached and with
    a tracer attached but recording off (``trace="disabled"``) — the
    configuration a deployment keeps around for opt-in tracing.  Each
    variant is timed five times and the best (minimum) wall is kept —
    the standard defence against scheduler noise on a shared box.  The
    pairs are interleaved with alternating order and a full
    ``gc.collect()`` before every timed run, so load drift and collector
    debt accumulated by earlier bench rows hit both variants equally
    instead of taxing whichever happens to run second.  The
    additive ``untraced_wall_s`` / ``disabled_wall_s`` /
    ``overhead_ratio`` fields record the overhead in
    ``BENCH_results.json`` so it shows in the trajectory; no gate reads
    them.  The check is ``tests/test_trace.py``'s
    ``test_disabled_tracer_fires_only_on_submit``, which counts the hooks
    a disabled tracer still fires instead of timing them.
    """
    import gc

    serve_cell = materialise(
        SERVE_GRID,
        {"scenario": "spike-train", "policy": "vllm", "clients": "16",
         "retry": "backoff", "backpressure": "on"},
        dataclasses.replace(scale, name=f"trace-overhead-{scale.name}"),
        seed,
    )

    def cell(trace) -> float:
        gc.collect()
        start = time.perf_counter()
        run_cell(serve_cell, trace=trace)
        return time.perf_counter() - start

    cell(False)  # warm imports and caches so no timed run pays them
    untraced_walls: List[float] = []
    disabled_walls: List[float] = []
    for round_index in range(5):
        order = (False, "disabled") if round_index % 2 == 0 else ("disabled", False)
        for trace in order:
            (untraced_walls if trace is False else disabled_walls).append(cell(trace))
    untraced_wall_s = min(untraced_walls)
    disabled_wall_s = min(disabled_walls)
    return {
        "untraced_wall_s": untraced_wall_s,
        "disabled_wall_s": disabled_wall_s,
        "overhead_ratio": (
            disabled_wall_s / untraced_wall_s if untraced_wall_s > 0 else 0.0
        ),
    }


def _event_core_benchmark(scale: ExperimentScale, seed: int) -> None:
    """Pure event-loop microbenchmark: dispatch cost with nothing else.

    Sixteen self-rescheduling timer chains, each with a distinct period,
    where every tick also bursts four zero-delay no-ops — the schedule
    shape the serving simulator produces (staggered periodic processes
    plus same-timestamp kick storms), minus all model work.  The row's
    ``events_per_s`` is therefore the raw dispatch throughput of
    :class:`~repro.simulation.event_loop.EventLoop` itself; the
    regression gate in ``scripts/bench_compare.py`` watches it across
    PRs.  Event count scales with the trace length so tiny smoke runs
    stay fast (~5k events/s of trace ≈ 80k tiny / 900k canonical).
    """
    loop = EventLoop()

    def noop() -> None:
        pass

    def make_chain(index: int) -> Callable[[], None]:
        period = 0.001 + 0.0001 * index

        def tick() -> None:
            for _ in range(4):
                loop.schedule(0.0, noop)
            loop.schedule(period, tick)

        return tick

    for index in range(16):
        chain = make_chain(index)
        loop.schedule(0.001 * index, chain)
    loop.run(max_events=int(20_000 * scale.trace_duration_s))


#: id -> runner; every runner accepts the scale unless marked analytic.
EXPERIMENT_RUNNERS: Dict[str, Callable] = {
    "figure2": lambda scale, seed: figure2.run_figure2(scale, seed=seed),
    "figure5": lambda scale, seed: figure5.run_figure5(scale, seed=seed, max_degree=2),
    "figure12": lambda scale, seed: figure12.run_figure12(
        scale, seed=seed, workload_keys=("burstgpt-14b",)
    ),
    "figure13": lambda scale, seed: figure13.run_figure13(
        scale, seed=seed, workload_keys=("burstgpt-14b",)
    ),
    "figure14": lambda scale, seed: figure14.run_figure14(scale, seed=seed),
    "figure15": lambda scale, seed: figure15.run_figure15(),
    "figure16": lambda scale, seed: figure16.run_figure16(
        scale, seed=seed, duration_s=3 * scale.trace_duration_s
    ),
    "figure17": lambda scale, seed: figure17.run_figure17(scale, seed=seed),
    "table1": lambda scale, seed: table1.run_table1(),
    "scenarios": _scenario_sweep_benchmark,
    "fleet": _fleet_sweep_benchmark,
    "multicluster": _multicluster_sweep_benchmark,
    "chaos": _chaos_sweep_benchmark,
    "serve": _serve_sweep_benchmark,
    "sweep_cache": _sweep_cache_benchmark,
    "trace_overhead": _trace_overhead_benchmark,
    "event_core": _event_core_benchmark,
}

#: Experiment ids whose runner's return value is a dict of additive entry
#: fields (everything else returns a document the meter ignores).
EXTRA_FIELD_RUNNERS = frozenset({"sweep_cache", "trace_overhead"})


def run_experiment_benchmark(
    experiment_id: str, scale: ExperimentScale, *, seed: int = 42
) -> BenchEntry:
    """Run one figure/table experiment end-to-end; meter the run."""
    runner = EXPERIMENT_RUNNERS[experiment_id]

    def body() -> Dict[str, float]:
        out = runner(scale, seed)
        return out if experiment_id in EXTRA_FIELD_RUNNERS else {}

    measured = _metered(body)
    extra = {
        key: value
        for key, value in measured.items()
        if key not in ("wall_s", "sim_s", "events", "events_per_s")
    }
    return BenchEntry(
        experiment=experiment_id,
        kind="experiment",
        policy=None,
        wall_s=measured["wall_s"],
        sim_s=measured["sim_s"],
        events=int(measured["events"]),
        events_per_s=measured["events_per_s"],
        finished_requests=0,
        extra=extra,
    )


def resolve_experiment_ids(experiments: Optional[Sequence[str]]) -> List[str]:
    """Validate an experiment-id selection (``None`` means every runner)."""
    ids = list(experiments) if experiments is not None else list(EXPERIMENT_RUNNERS)
    unknown = [i for i in ids if i not in EXPERIMENT_RUNNERS]
    if unknown:
        known = ", ".join(EXPERIMENT_RUNNERS)
        raise KeyError(f"unknown experiments {unknown}; known: {known}")
    return ids


def run_experiment_benchmarks(
    scale: ExperimentScale = CANONICAL_SCALE,
    *,
    seed: int = 42,
    experiments: Optional[Sequence[str]] = None,
) -> List[BenchEntry]:
    """Benchmark the requested (default: all) figure/table experiments."""
    return [
        run_experiment_benchmark(i, scale, seed=seed)
        for i in resolve_experiment_ids(experiments)
    ]


# ----------------------------------------------------------------------
# Sweep-engine adapters (the harness rows as tasks)
# ----------------------------------------------------------------------
def run_policy_suite_payload(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """Sweep-engine runner: the five per-policy benchmarks as one cell.

    One cell for the whole suite so every policy replays the *same*
    workload object instead of rebuilding it per policy.
    """
    scale = ExperimentScale(**params["scale"])
    entries = run_policy_benchmarks(scale, seed=seed)
    return {"entries": [entry_dict(entry) for entry in entries]}


def run_experiment_payload(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """Sweep-engine runner: one figure/table experiment benchmark."""
    scale = ExperimentScale(**params["scale"])
    entry = run_experiment_benchmark(params["experiment"], scale, seed=seed)
    return {"entries": [entry_dict(entry)]}


# ----------------------------------------------------------------------
# Full harness + persistence
# ----------------------------------------------------------------------
def run_benchmarks(
    scale: ExperimentScale = CANONICAL_SCALE,
    *,
    seed: int = 42,
    include_policies: bool = True,
    include_experiments: bool = True,
    experiments: Optional[Sequence[str]] = None,
) -> Dict:
    """Run the harness and return the ``BENCH_results.json`` document."""
    scale_dict = dataclasses.asdict(scale)
    tasks: List[SweepTask] = []
    if include_policies:
        tasks.append(
            SweepTask(
                runner="repro.bench.harness:run_policy_suite_payload",
                params={"scale": scale_dict},
                key={"kind": "bench-policy-suite", "scale": scale_dict},
                seed=seed,
                label="policies",
            )
        )
    if include_experiments:
        for experiment_id in resolve_experiment_ids(experiments):
            tasks.append(
                SweepTask(
                    runner="repro.bench.harness:run_experiment_payload",
                    params={"scale": scale_dict, "experiment": experiment_id},
                    key={
                        "kind": "bench-experiment",
                        "experiment": experiment_id,
                        "scale": scale_dict,
                    },
                    seed=seed,
                    label=experiment_id,
                )
            )
    # Inline, uncached: benchmark rows measure host time on this machine.
    outcome = run_tasks(tasks, max_workers=1, cache=None)
    entries = []
    for payload in outcome.results:
        for entry in payload["entries"]:
            if "profile" in payload:
                # The task-level resource profile (wall/CPU/peak RSS, see
                # repro.obs.profile) recorded by the sweep executor.  A
                # multi-entry task (the policy suite) shares one profile
                # across its entries — it measures the task, not the row.
                entry["profile"] = payload["profile"]
            entries.append(entry)
    return {
        "schema_version": 1,
        "repro_version": __version__,
        "scale": {
            "name": scale.name,
            "num_instances": scale.num_instances,
            "trace_duration_s": scale.trace_duration_s,
            "drain_timeout_s": scale.drain_timeout_s,
        },
        "entries": entries,
    }


def write_results(document: Dict, path: Optional[Path] = None) -> Path:
    """Write the document to ``BENCH_results.json`` (repo root by default)."""
    target = Path(path) if path is not None else DEFAULT_OUTPUT
    target.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n")
    return target


def format_results(document: Dict) -> str:
    """Human-readable table of a results document."""
    lines = [
        f"repro {document['repro_version']} · scale {document['scale']['name']} "
        f"({document['scale']['num_instances']} instances, "
        f"{document['scale']['trace_duration_s']:.0f}s trace)",
        f"{'experiment':<18} {'policy':<12} {'wall_s':>8} {'events':>9} {'events/s':>10} {'finished':>8}",
    ]
    for entry in document["entries"]:
        lines.append(
            f"{entry['experiment']:<18} {entry['policy'] or '-':<12} "
            f"{entry['wall_s']:>8.2f} {entry['events']:>9d} "
            f"{entry['events_per_s']:>10.0f} {entry['finished_requests']:>8d}"
        )
        if entry["experiment"] == "sweep_cache" and "cache_speedup" in entry:
            lines.append(
                f"{'':<18} {'':<12} cold {entry['cold_wall_s']:.2f}s -> warm "
                f"{entry['warm_wall_s']:.2f}s ({entry['cache_speedup']:.0f}x)"
            )
        if entry["experiment"] == "trace_overhead" and "overhead_ratio" in entry:
            lines.append(
                f"{'':<18} {'':<12} untraced {entry['untraced_wall_s']:.2f}s vs "
                f"disabled tracer {entry['disabled_wall_s']:.2f}s "
                f"({entry['overhead_ratio']:.3f}x)"
            )
    return "\n".join(lines)
