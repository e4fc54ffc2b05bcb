"""The figures grid (``python -m repro.experiments``, ``FIGURES_results.json``).

The paper's serving figures as grid cells, each scenario under the systems
its figure compares (the figure modules name both): the four workload
presets under the five systems (Figures 2, 12 and 13), ``drop-degree``
(Figure 5, without pipelines deeper than the scale's instance count),
``ablation`` (Figure 14), ``burst-waves`` (Figure 16) and
``extreme-burst`` (Figure 17).  Figures 5 and 14 have scenarios of their
own, so their extra systems stay out of Figure 13's SLO reference (the
best P50 of the five systems).  The scenarios stay out of the registry.
Each entry flattens every number a figure prints; memory that is never
exhausted reads ``null``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List

from repro.experiments import figure5, figure12, figure13, figure14, figure16, figure17
from repro.experiments.report import FIGURES_DOCUMENT
from repro.experiments.runner import (
    FULL_SCALE,
    QUICK_SCALE,
    WORKLOAD_PRESETS,
    ExperimentScale,
    build_preset_workload,
)
from repro.policies import make_policy
from repro.scenarios.registry import ScenarioSpec
from repro.sweeps.grid import (
    CLUSTER_KEYS,
    POLICIES,
    SCENARIOS,
    SLO_KEYS,
    SUMMARY_KEYS,
    Grid,
    run_grid,
)
from repro.workloads.burstgpt import extreme_burst_trace, long_run_arrival_trace
from repro.workloads.datasets import LONGBENCH_DATASET, build_workload
from repro.workloads.slo import CHAT_SLO_SCALE, SUMMARY_SLO_SCALE
from repro.workloads.trace import Workload


# Workload factories: module-level functions, so cells pickle to pool
# workers and the cache key names each factory by its import path.
def burstgpt_14b(scale: ExperimentScale, seed: int) -> Workload:
    return build_preset_workload(WORKLOAD_PRESETS["burstgpt-14b"], scale, seed=seed)


def sharegpt_14b(scale: ExperimentScale, seed: int) -> Workload:
    return build_preset_workload(WORKLOAD_PRESETS["sharegpt-14b"], scale, seed=seed)


def longbench_14b(scale: ExperimentScale, seed: int) -> Workload:
    return build_preset_workload(WORKLOAD_PRESETS["longbench-14b"], scale, seed=seed)


def longbench_72b(scale: ExperimentScale, seed: int) -> Workload:
    return build_preset_workload(WORKLOAD_PRESETS["longbench-72b"], scale, seed=seed)


def burst_waves(scale: ExperimentScale, seed: int) -> Workload:
    """Two BurstGPT waves over four trace lengths (at least 240 s)."""
    preset = WORKLOAD_PRESETS["burstgpt-14b"]
    trace = long_run_arrival_trace(
        duration_s=max(4 * scale.trace_duration_s, 240.0),
        base_rate=preset.total_rate(scale),
        burst_factor=preset.burst_factor,
        num_waves=2,
        seed=seed,
    )
    return build_workload(trace, preset.dataset, seed=seed, name="BurstGPT long run")


def extreme_burst(scale: ExperimentScale, seed: int) -> Workload:
    """LongBench x 72B arrivals whose burst starts at 35 % of the trace and
    never ends."""
    preset = WORKLOAD_PRESETS["longbench-72b"]
    duration = scale.trace_duration_s * 1.4
    trace = extreme_burst_trace(
        duration_s=duration,
        base_rate=preset.total_rate(scale),
        burst_factor=2.6,
        burst_start_s=0.35 * duration,
        seed=seed,
    )
    return build_workload(trace, preset.dataset, seed=seed, name="extreme burst")


def _scenario(figure, name, preset_key, factory, policies) -> ScenarioSpec:
    """``figure``'s scenario, serving ``preset_key``'s model as the preset does."""
    preset = WORKLOAD_PRESETS[preset_key]
    return ScenarioSpec(
        name=name,
        description=f"{figure}: {preset.label}",
        workload_factory=factory,
        policies=tuple(policies),
        model=preset.model,
        gpus_per_instance=preset.gpus_per_instance,
        token_budget=preset.token_budget,
        slo_scale=SUMMARY_SLO_SCALE if preset.dataset is LONGBENCH_DATASET else CHAT_SLO_SCALE,
    )


FIGURE_SCENARIOS = (
    _scenario("Figures 2, 12, 13", "burstgpt-14b", "burstgpt-14b", burstgpt_14b, figure12.SYSTEMS),
    _scenario("Figures 12, 13", "sharegpt-14b", "sharegpt-14b", sharegpt_14b, figure12.SYSTEMS),
    _scenario("Figures 12, 13", "longbench-14b", "longbench-14b", longbench_14b, figure12.SYSTEMS),
    _scenario("Figures 12, 13", "longbench-72b", "longbench-72b", longbench_72b, figure12.SYSTEMS),
    _scenario("Figure 5", figure5.SCENARIO, "burstgpt-14b", burstgpt_14b,
              [key for key, *_ in figure5.DROP_CONFIGS]),
    _scenario("Figure 14", figure14.SCENARIO, "longbench-14b", longbench_14b, figure14.CONFIGS),
    _scenario("Figure 16", figure16.SCENARIO, "burstgpt-14b", burst_waves, figure16.SYSTEMS),
    _scenario("Figure 17", figure17.SCENARIO, "longbench-72b", extreme_burst, figure17.SYSTEMS),
)

_BY_NAME = {spec.name: spec for spec in FIGURE_SCENARIOS}


def _systems_that_fit(spec: ScenarioSpec, scale: ExperimentScale) -> List[str]:
    """The scenario's systems, without pipelines deeper than the cluster."""
    return [
        key for key in spec.policies
        if getattr(make_policy(key), "pp_degree", 1) <= scale.num_instances
    ]


GRID = Grid(
    name="experiments",
    document=FIGURES_DOCUMENT.name,
    description="Run the paper's serving figures (2, 5, 12, 13, 14, 16, 17) as grid "
    "cells and write FIGURES_results.json.",
    scales={"quick": QUICK_SCALE, "full": FULL_SCALE},
    axes=(
        dataclasses.replace(SCENARIOS, known=lambda: list(_BY_NAME), default=list(_BY_NAME)),
        dataclasses.replace(POLICIES, by_scenario=_systems_that_fit),
    ),
    scenario=_BY_NAME.__getitem__,
    slo_factors=figure13.SLO_FACTORS,
    probes=("trace",),
    entry_fields=(
        "scenario",                 # figure scenario, e.g. "burstgpt-14b"
        "policy",                   # policy key, e.g. "kunserve-no-restore"
        "policy_name",              # display name, e.g. "KunServe w/o restore"
        "workload",                 # materialised workload name
        "requests",                 # requests submitted
        "finished",                 # requests finished before the horizon
        "completion_ratio",         # finished / requests
        *SUMMARY_KEYS,
        *CLUSTER_KEYS,              # figure numbers (sweeps.grid._cluster_measures)
        *SLO_KEYS,
        *(f"slo_violation_x{factor}" for factor in figure13.SLO_FACTORS),
        "wall_s",                   # host wall-clock of this cell
    ),
    columns=(
        ("scenario", "scenario", "<14"), ("policy", "policy", "<22"),
        ("requests", "reqs", ">6d"), ("finished", "fin", ">6d"),
        ("mean_ttft", "ttft_mean", ">9.2f"), ("ttft_p99", "ttft_p99", ">9.2f"),
        ("throughput_tokens_per_s", "tok/s", ">8.0f"), ("drops", "drops", ">5d"),
        ("restores", "rest", ">4d"),
    ),
)


def run_figures(scale: ExperimentScale, *, seed: int = 42, **axes: Any) -> List[Dict[str, Any]]:
    """The entries of the figures grid at ``scale`` (``axes`` narrows it), run inline."""
    return run_grid(GRID, scale=scale, seed=seed, max_workers=1, **axes)["entries"]
