"""The scenario grid (``python -m repro.scenarios``, ``SCENARIO_results.json``).

Every registered scenario under a set of overload policies: by default
each scenario under its own ``ScenarioSpec.policies``.  The document
header's ``"policies"`` is the union of the swept policies, first-seen
order.
"""

from __future__ import annotations

import dataclasses

from repro.scenarios.registry import get_scenario, list_scenarios
from repro.sweeps.grid import (
    POLICIES,
    SCENARIOS,
    SLO_KEYS,
    SUMMARY_KEYS,
    Grid,
    sweep_scales,
)


GRID = Grid(
    name="scenarios",
    document="SCENARIO_results.json",
    description="Sweep synthetic stress scenarios across overload policies "
    "and write SCENARIO_results.json.",
    scales=sweep_scales("scenarios"),
    axes=(
        SCENARIOS,
        dataclasses.replace(POLICIES, by_scenario=lambda spec, scale: spec.policies),
    ),
    entry_fields=(
        "scenario",                 # registry name, e.g. "mmpp-bursty"
        "policy",                   # policy key, e.g. "kunserve"
        "policy_name",              # display name, e.g. "KunServe"
        "workload",                 # materialised workload name
        "requests",                 # requests submitted
        "finished",                 # requests finished before the horizon
        "completion_ratio",         # finished / requests
        *SUMMARY_KEYS,
        *SLO_KEYS,
        "wall_s",                   # host wall-clock of this cell
    ),
    listings=(
        (
            "--list", "registered scenarios",
            lambda: (f"{name:<20} {get_scenario(name).description}" for name in list_scenarios()),
        ),
    ),
    columns=(
        ("scenario", "scenario", "<18"), ("policy", "policy", "<12"),
        ("requests", "reqs", ">6d"), ("finished", "fin", ">6d"),
        ("ttft_p50", "ttft_p50", ">9.3f"), ("tpot_p50", "tpot_p50", ">9.4f"),
        ("throughput_tokens_per_s", "tok/s", ">8.0f"), ("slo_attainment", "slo_att", ">8.2f"),
    ),
)
