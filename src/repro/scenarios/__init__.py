"""Scenario subsystem (``python -m repro.scenarios``).

Synthetic workload generators (Poisson, Markov-modulated bursts, diurnal
swings, spike trains, multi-tenant mixtures, long-context skew), a named
:class:`ScenarioSpec` registry with built-in stress scenarios, and a
scenario grid (:mod:`repro.scenarios.grid`, ``python -m repro.scenarios``)
that replays every scenario under every overload policy and writes
``SCENARIO_results.json`` at the repository root.
"""

from repro.scenarios.generators import (
    LONG_CONTEXT_SKEW_DATASET,
    diurnal_trace,
    long_context_dataset,
    markov_modulated_trace,
    multi_tenant_trace,
    multi_tenant_workload,
    poisson_trace,
    spike_train_trace,
    stamp_sessions,
)
from repro.scenarios.registry import (
    BUILTIN_SCENARIOS,
    DEFAULT_POLICY_SET,
    ScenarioSpec,
    get_scenario,
    list_scenarios,
)

__all__ = [
    "BUILTIN_SCENARIOS",
    "DEFAULT_POLICY_SET",
    "LONG_CONTEXT_SKEW_DATASET",
    "ScenarioSpec",
    "diurnal_trace",
    "get_scenario",
    "list_scenarios",
    "long_context_dataset",
    "markov_modulated_trace",
    "multi_tenant_trace",
    "multi_tenant_workload",
    "poisson_trace",
    "spike_train_trace",
    "stamp_sessions",
]
