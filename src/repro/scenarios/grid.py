"""The scenario grid (``python -m repro.scenarios``, ``SCENARIO_results.json``).

Every registered scenario under a set of overload policies: by default
each scenario under its own ``ScenarioSpec.policies``.  ``--fleet`` runs
every cell behind a fleet preset (:func:`repro.fleet.config.fleet_preset`)
and ``--multicluster`` through the fleet-of-fleets tier
(:func:`repro.multicluster.config.multicluster_preset`, one shard per
``scale.num_instances``); the two are mutually exclusive, since the tier
builds a fleet controller per shard.  The document header's
``"policies"`` is the union of the swept policies, first-seen order;
``"fleet"`` and ``"multicluster"`` are the presets or ``null``.
"""

from __future__ import annotations

import dataclasses

from repro.fleet.config import fleet_preset
from repro.multicluster.config import multicluster_preset
from repro.scenarios.registry import get_scenario, list_scenarios
from repro.sweeps.grid import (
    POLICIES,
    SCENARIOS,
    SLO_KEYS,
    SUMMARY_KEYS,
    Axis,
    Grid,
    sweep_scales,
)


def _preset(resolve):
    def check(name: str) -> str:
        resolve(name)  # raises KeyError for unknown presets
        return name

    return check


def _use_fleet(cell, name: str) -> None:
    cell.config.fleet = fleet_preset(name)


def _use_tier(cell, name: str) -> None:
    if cell.config.fleet is not None:
        raise ValueError(
            "fleet and multicluster are mutually exclusive: the multicluster "
            "tier builds a fleet controller per cluster shard"
        )
    cell.config.multicluster = multicluster_preset(name)


GRID = Grid(
    name="scenarios",
    document="SCENARIO_results.json",
    description="Sweep synthetic stress scenarios across overload policies "
    "and write SCENARIO_results.json.",
    scales=sweep_scales("scenarios"),
    axes=(
        SCENARIOS,
        dataclasses.replace(POLICIES, by_scenario=lambda spec, scale: spec.policies),
        Axis(
            "fleet", "fleet", apply=_use_fleet, parse=_preset(fleet_preset), single=True,
            metavar="PRESET", help="run every cell behind a fleet preset (e.g. 'elastic' "
            "or 'power_of_two_choices/elastic')",
        ),
        Axis(
            "multicluster", "multicluster", apply=_use_tier,
            parse=_preset(multicluster_preset), single=True, metavar="PRESET",
            help="run every cell through the fleet-of-fleets tier (e.g. '2' or "
            "'2/locality_affinity/cost_weighted'); mutually exclusive with --fleet",
        ),
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
