"""Named scenario registry.

A :class:`ScenarioSpec` freezes everything one sweep cell needs — a
workload factory (generator + dataset), the cluster shape, the policy set
and the SLO strictness — behind a stable name, so experiments, the sweep
runner and worker processes all resolve the same scenario from the same
registry.  ``get_scenario`` / ``list_scenarios`` are the public API; the
built-ins below cover the load shapes the generators module provides.

Workload factories take ``(scale, seed)`` — an
:class:`~repro.experiments.runner.ExperimentScale` and an integer — and
must be deterministic in both, which keeps every scenario sweepable at any
scale and bit-reproducible per seed (see ``tests/test_scenarios.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.experiments.runner import ExperimentScale
from repro.models.catalog import QWEN_2_5_14B
from repro.models.spec import ModelSpec
from repro.scenarios.generators import (
    LONG_CONTEXT_SKEW_DATASET,
    diurnal_trace,
    markov_modulated_trace,
    multi_tenant_workload,
    poisson_trace,
    spike_train_trace,
    stamp_sessions,
)
from repro.workloads.burstgpt import burstgpt_arrival_trace
from repro.workloads.datasets import (
    BURSTGPT_DATASET,
    LONGBENCH_DATASET,
    SHAREGPT_DATASET,
    build_workload,
)
from repro.workloads.slo import CHAT_SLO_SCALE, SUMMARY_SLO_SCALE
from repro.workloads.trace import Workload
from repro.workloads.upscaler import upscale_trace

#: Policy keys (``repro.policies.make_policy``) every scenario sweeps by default.
DEFAULT_POLICY_SET: Tuple[str, ...] = ("vllm", "infercept", "llumnix", "kunserve")

WorkloadFactory = Callable[[ExperimentScale, int], Workload]


@dataclass(frozen=True)
class ScenarioSpec:
    """One named, fully-specified stress scenario.

    Attributes:
        name: registry key (stable across PRs once published).
        description: one-line summary shown by ``--list``.
        workload_factory: deterministic ``(scale, seed) -> Workload``.
        policies: policy keys swept for this scenario by default.
        model: model served in this scenario.
        gpus_per_instance: GPUs per serving instance.
        token_budget: chunked-prefill token budget per iteration.
        slo_scale: SLO strictness factor (× best-policy P50, Figure 13
            convention): 5 for chat, 10 for summarisation.
    """

    name: str
    description: str
    workload_factory: WorkloadFactory
    policies: Tuple[str, ...] = DEFAULT_POLICY_SET
    model: ModelSpec = field(default=QWEN_2_5_14B)
    gpus_per_instance: int = 1
    token_budget: int = 2048
    slo_scale: float = CHAT_SLO_SCALE

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if not self.policies:
            raise ValueError("scenario must name at least one policy")
        if self.gpus_per_instance <= 0:
            raise ValueError("gpus_per_instance must be positive")
        if self.slo_scale <= 0:
            raise ValueError("slo_scale must be positive")

    def build_workload(self, scale: ExperimentScale, seed: int = 42) -> Workload:
        """Materialise this scenario's workload at ``scale`` with ``seed``."""
        return self.workload_factory(scale, seed)


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a scenario by name."""
    if name not in _REGISTRY:
        known = ", ".join(list_scenarios())
        raise KeyError(f"unknown scenario {name!r}; known scenarios: {known}")
    return _REGISTRY[name]


def list_scenarios() -> List[str]:
    """Registered scenario names in registry order."""
    return list(_REGISTRY)


# ----------------------------------------------------------------------
# Built-in scenarios
# ----------------------------------------------------------------------
def _rate(per_instance: float, scale: ExperimentScale) -> float:
    """Cluster-wide rate for a per-instance rate at the given scale."""
    return per_instance * scale.num_instances * scale.rate_fraction


def _steady_poisson(scale: ExperimentScale, seed: int) -> Workload:
    trace = poisson_trace(
        rate=_rate(8.0, scale),
        duration_s=scale.trace_duration_s,
        seed=seed,
        name="steady-poisson",
    )
    # Chat traffic is multi-turn: stamp session structure so affinity
    # routing sees real conversations (sampling only a dedicated RNG
    # stream — arrivals and lengths are untouched).
    return stamp_sessions(build_workload(trace, BURSTGPT_DATASET, seed=seed), seed=seed)


def _burst_replay(scale: ExperimentScale, seed: int) -> Workload:
    trace = burstgpt_arrival_trace(
        duration_s=scale.trace_duration_s,
        base_rate=_rate(12.0, scale),
        burst_factor=3.0,
        seed=seed,
        name="burst-replay",
    )
    return build_workload(trace, BURSTGPT_DATASET, seed=seed)


def _upscaled_burst(scale: ExperimentScale, seed: int) -> Workload:
    base = burstgpt_arrival_trace(
        duration_s=scale.trace_duration_s,
        base_rate=_rate(8.0, scale),
        burst_factor=2.4,
        seed=seed,
        name="upscaled-burst",
    )
    trace = upscale_trace(base, 1.6, seed=seed)
    return build_workload(trace, BURSTGPT_DATASET, seed=seed)


def _mmpp_bursty(scale: ExperimentScale, seed: int) -> Workload:
    trace = markov_modulated_trace(
        base_rate=_rate(10.0, scale),
        burst_factor=3.5,
        mean_calm_s=scale.trace_duration_s / 4.0,
        mean_burst_s=scale.trace_duration_s / 12.0,
        duration_s=scale.trace_duration_s,
        seed=seed,
        name="mmpp-bursty",
    )
    return build_workload(trace, BURSTGPT_DATASET, seed=seed)


def _diurnal_chat(scale: ExperimentScale, seed: int) -> Workload:
    trace = diurnal_trace(
        mean_rate=_rate(2.2, scale),
        amplitude=0.6,
        period_s=scale.trace_duration_s / 1.5,
        duration_s=scale.trace_duration_s,
        seed=seed,
        name="diurnal-chat",
    )
    return stamp_sessions(build_workload(trace, SHAREGPT_DATASET, seed=seed), seed=seed)


def _spike_train(scale: ExperimentScale, seed: int) -> Workload:
    trace = spike_train_trace(
        base_rate=_rate(6.0, scale),
        spike_factor=6.0,
        spike_duration_s=scale.trace_duration_s / 12.0,
        spike_period_s=scale.trace_duration_s / 3.0,
        duration_s=scale.trace_duration_s,
        seed=seed,
        name="spike-train",
    )
    return build_workload(trace, BURSTGPT_DATASET, seed=seed)


def _multi_tenant_mix(scale: ExperimentScale, seed: int) -> Workload:
    duration = scale.trace_duration_s
    chat = poisson_trace(
        rate=_rate(4.0, scale), duration_s=duration, seed=seed, name="tenant-chat"
    )
    assistant = markov_modulated_trace(
        base_rate=_rate(1.2, scale),
        burst_factor=3.0,
        mean_calm_s=duration / 4.0,
        mean_burst_s=duration / 12.0,
        duration_s=duration,
        seed=seed,
        name="tenant-assistant",
    )
    summariser = poisson_trace(
        rate=_rate(0.25, scale), duration_s=duration, seed=seed, name="tenant-summary"
    )
    return multi_tenant_workload(
        [
            (chat, BURSTGPT_DATASET),
            (assistant, SHAREGPT_DATASET),
            (summariser, LONGBENCH_DATASET),
        ],
        seed=seed,
        name="multi-tenant-mix",
        session_turns=3.0,
    )


def _long_context_skew(scale: ExperimentScale, seed: int) -> Workload:
    trace = poisson_trace(
        rate=_rate(0.4, scale),
        duration_s=scale.trace_duration_s,
        seed=seed,
        name="long-context-skew",
    )
    return build_workload(trace, LONG_CONTEXT_SKEW_DATASET, seed=seed)


BUILTIN_SCENARIOS: Tuple[ScenarioSpec, ...] = (
    ScenarioSpec(
        name="steady-poisson",
        description="Homogeneous Poisson chat load at moderate utilisation (control)",
        workload_factory=_steady_poisson,
    ),
    ScenarioSpec(
        name="burst-replay",
        description="Single BurstGPT-style burst, the paper's §5 regime",
        workload_factory=_burst_replay,
    ),
    ScenarioSpec(
        name="upscaled-burst",
        description="BurstGPT burst rate-upscaled 1.6x via upscale_trace",
        workload_factory=_upscaled_burst,
    ),
    ScenarioSpec(
        name="mmpp-bursty",
        description="Two-state Markov-modulated arrivals: random correlated bursts",
        workload_factory=_mmpp_bursty,
    ),
    ScenarioSpec(
        name="diurnal-chat",
        description="Sinusoidal day/night swing on ShareGPT-length chats",
        workload_factory=_diurnal_chat,
    ),
    ScenarioSpec(
        name="spike-train",
        description="Periodic short spikes (cron/retry storms) on a low base rate",
        workload_factory=_spike_train,
    ),
    ScenarioSpec(
        name="multi-tenant-mix",
        description="Three tenants interleaved: chat + bursty assistant + summariser",
        workload_factory=_multi_tenant_mix,
    ),
    ScenarioSpec(
        name="long-context-skew",
        description="Heavy-tailed long-context prompts near the 32k cap",
        workload_factory=_long_context_skew,
        token_budget=1024,
        slo_scale=SUMMARY_SLO_SCALE,
    ),
)

_REGISTRY: Dict[str, ScenarioSpec] = {spec.name: spec for spec in BUILTIN_SCENARIOS}
