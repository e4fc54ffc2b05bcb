"""Shared experiment machinery: scales, workload presets, serving configs.

The paper's evaluation combines the BurstGPT arrival trace with three
datasets on two clusters.  The presets below pin, per workload, the request
rates at which the simulated cluster sits at a moderate average memory load
(the paper provisions KV memory at ~2x the average demand) and overloads
during the burst — the regime §5 studies.  ``ExperimentScale`` lets every
experiment run either at full scale (paper-like instance counts and trace
lengths) or at a quick scale used by the benchmark suite.  The figures
themselves are cells of the figures grid (:mod:`repro.experiments.grid`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.cluster.specs import cluster_a_spec, cluster_b_spec
from repro.models.catalog import QWEN_2_5_14B, QWEN_2_5_72B
from repro.models.spec import ModelSpec
from repro.policies import OverloadPolicy
from repro.serving.config import ServingConfig
from repro.serving.system import ClusterServingSystem, SimulationResult
from repro.workloads.burstgpt import burstgpt_arrival_trace
from repro.workloads.datasets import (
    BURSTGPT_DATASET,
    DatasetSpec,
    LONGBENCH_DATASET,
    SHAREGPT_DATASET,
    build_workload,
)
from repro.workloads.trace import Workload


@dataclass(frozen=True)
class ExperimentScale:
    """How big an experiment run is.

    Attributes:
        name: "quick" (benchmark suite) or "full" (paper-like).
        num_instances: serving instances in the cluster.
        trace_duration_s: arrival-trace length in seconds.
        drain_timeout_s: extra simulated time to let requests finish.
        rate_fraction: multiplier on the preset per-instance request rates
            (quick runs use a slightly lower load so they stay fast).
    """

    name: str
    num_instances: int
    trace_duration_s: float
    drain_timeout_s: float
    rate_fraction: float = 1.0


QUICK_SCALE = ExperimentScale(
    name="quick",
    num_instances=2,
    trace_duration_s=60.0,
    drain_timeout_s=60.0,
    rate_fraction=1.0,
)

FULL_SCALE = ExperimentScale(
    name="full",
    num_instances=8,
    trace_duration_s=130.0,
    drain_timeout_s=120.0,
    rate_fraction=1.0,
)


@dataclass(frozen=True)
class WorkloadPreset:
    """Per-workload experiment parameters (rates tuned for the overload regime)."""

    dataset: DatasetSpec
    model: ModelSpec
    gpus_per_instance: int
    base_rate_per_instance: float
    burst_factor: float
    token_budget: int

    @property
    def label(self) -> str:
        suffix = "72B" if self.model is QWEN_2_5_72B else "14B"
        return f"{self.dataset.name} x {suffix}"

    def total_rate(self, scale: ExperimentScale) -> float:
        """Cluster-wide base request rate at ``scale``."""
        return self.base_rate_per_instance * scale.num_instances * scale.rate_fraction


WORKLOAD_PRESETS: Dict[str, WorkloadPreset] = {
    "burstgpt-14b": WorkloadPreset(
        dataset=BURSTGPT_DATASET,
        model=QWEN_2_5_14B,
        gpus_per_instance=1,
        base_rate_per_instance=8.0,
        burst_factor=2.4,
        token_budget=2048,
    ),
    "sharegpt-14b": WorkloadPreset(
        dataset=SHAREGPT_DATASET,
        model=QWEN_2_5_14B,
        gpus_per_instance=1,
        base_rate_per_instance=2.2,
        burst_factor=2.4,
        token_budget=2048,
    ),
    "longbench-14b": WorkloadPreset(
        dataset=LONGBENCH_DATASET,
        model=QWEN_2_5_14B,
        gpus_per_instance=1,
        base_rate_per_instance=0.50,
        burst_factor=2.4,
        token_budget=1024,
    ),
    "longbench-72b": WorkloadPreset(
        dataset=LONGBENCH_DATASET,
        model=QWEN_2_5_72B,
        gpus_per_instance=4,
        base_rate_per_instance=0.55,
        burst_factor=2.4,
        token_budget=1024,
    ),
}


def build_serving_config(
    model: ModelSpec,
    gpus_per_instance: int,
    token_budget: int,
    scale: ExperimentScale,
    *,
    seed: int = 42,
) -> ServingConfig:
    """ServingConfig for ``scale.num_instances`` instances of ``model``.

    One-GPU instances run on cluster A (one GPU per server); multi-GPU
    instances on cluster B (8 GPUs per server, so a 4-GPU 72B instance
    takes half a server).
    """
    if gpus_per_instance > 1:
        instances_per_server = max(1, 8 // gpus_per_instance)
        servers = max(1, -(-scale.num_instances // instances_per_server))
        cluster = cluster_b_spec(num_servers=servers)
    else:
        cluster = cluster_a_spec(num_servers=scale.num_instances)
    return ServingConfig(
        model=model,
        cluster=cluster,
        gpus_per_instance=gpus_per_instance,
        token_budget=token_budget,
        drain_timeout_s=scale.drain_timeout_s,
        seed=seed,
    )


def build_system_config(
    preset: WorkloadPreset,
    scale: ExperimentScale,
    *,
    seed: int = 42,
) -> ServingConfig:
    """ServingConfig for one preset at one scale."""
    return build_serving_config(
        preset.model, preset.gpus_per_instance, preset.token_budget, scale, seed=seed
    )


def build_preset_workload(
    preset: WorkloadPreset,
    scale: ExperimentScale,
    *,
    seed: int = 42,
) -> Workload:
    """Generate the preset's workload at the requested scale."""
    trace = burstgpt_arrival_trace(
        duration_s=scale.trace_duration_s,
        base_rate=preset.total_rate(scale),
        burst_factor=preset.burst_factor,
        seed=seed,
    )
    return build_workload(trace, preset.dataset, seed=seed, name=preset.label)


def run_policy_on_workload(
    policy: OverloadPolicy,
    preset: WorkloadPreset,
    scale: ExperimentScale,
    *,
    seed: int = 42,
    workload: Optional[Workload] = None,
) -> SimulationResult:
    """Build a fresh system for ``policy`` and replay the preset workload."""
    config = build_system_config(preset, scale, seed=seed)
    system = ClusterServingSystem(config, policy)
    if workload is None:
        workload = build_preset_workload(preset, scale, seed=seed)
    return system.run(workload)
