"""The fleet grid (``python -m repro.fleet``, ``FLEET_results.json``).

Scenarios replayed through the elastic-fleet layer, across router
strategies, autoscaler presets and single-cluster fault presets.  Only the
instance-kill shapes apply to one cluster (``none``, ``instance-kill``,
``churn``); cluster outages and WAN degradation are tier faults that belong
to ``python -m repro.chaos``.  The default grid is one bursty scenario under
vLLM, every router and both autoscaler presets, without faults.
"""

from __future__ import annotations

import dataclasses

from repro.fleet.config import AUTOSCALER_PRESETS, list_autoscaler_presets
from repro.fleet.routing import list_routers
from repro.sweeps.grid import (
    POLICIES,
    SCENARIOS,
    SLO_KEYS,
    SUMMARY_KEYS,
    SWEEP_ADMISSION,
    Axis,
    Grid,
    apply_faults,
    fleet_change,
    sweep_scales,
)

#: The fault presets one cluster can inject (instance kills only).
FLEET_FAULT_PRESETS = ("none", "instance-kill", "churn")

GRID = Grid(
    name="fleet",
    document="FLEET_results.json",
    description="Sweep scenarios across router strategies and autoscaler "
    "presets and write FLEET_results.json.",
    scales=sweep_scales("fleet"),
    axes=(
        dataclasses.replace(SCENARIOS, default=("spike-train",)),
        POLICIES,
        Axis(
            "routers", "router", apply=fleet_change("router"), known=list_routers,
            default=list_routers, metavar="ROUTER", help="router strategies",
        ),
        Axis(
            "autoscalers", "autoscaler", apply=fleet_change("autoscaler"),
            known=list_autoscaler_presets, default=list_autoscaler_presets,
            metavar="PRESET", help="autoscaler presets",
        ),
        Axis(
            "faults", "faults", apply=apply_faults, known=lambda: FLEET_FAULT_PRESETS,
            default=("none",), metavar="PRESET", help="single-cluster fault-schedule presets",
        ),
    ),
    base=lambda cell: cell.tune_fleet(admission=SWEEP_ADMISSION),
    probes=("metrics_out", "alerts"),
    entry_fields=(
        "scenario",                 # registry name, e.g. "spike-train"
        "policy",                   # overload-policy key, e.g. "vllm"
        "policy_name",              # display name, e.g. "vLLM (DP)"
        "router",                   # router strategy, e.g. "power_of_two_choices"
        "autoscaler",               # preset name, "fixed" or "elastic"
        "faults",                   # fault preset: "none", "instance-kill", "churn"
        "fault_events",             # materialised fault events in the cell
        "workload",                 # materialised workload name
        "requests",                 # requests submitted
        "admitted",                 # requests dispatched to a serving group
        "shed",                     # requests rejected by admission control
        "queue_peak",               # peak admission-queue occupancy
        "scale_up_events",          # autoscaler scale-up decisions
        "scale_down_events",        # autoscaler drain decisions
        "initial_groups",           # serving groups at t=0
        "final_groups",             # routable groups when the run ended
        "finished",                 # requests finished before the horizon
        "completion_ratio",         # finished / requests (shed count against it)
        *SUMMARY_KEYS,
        *SLO_KEYS,
        "wall_s",                   # host wall-clock of this cell
    ),
    listings=(
        ("--list-routers", "router strategies", list_routers),
        (
            "--list-autoscalers", "autoscaler presets",
            lambda: (
                f"{name:<10} {'elastic' if AUTOSCALER_PRESETS[name] else 'fixed fleet'}"
                for name in list_autoscaler_presets()
            ),
        ),
        ("--list-faults", "single-cluster fault presets", lambda: FLEET_FAULT_PRESETS),
    ),
    columns=(
        ("scenario", "scenario", "<16"), ("policy", "policy", "<9"),
        ("router", "router", "<21"), ("autoscaler", "scaler", "<8"),
        ("faults", "faults", "<13"), ("requests", "reqs", ">5d"),
        ("finished", "fin", ">5d"), ("shed", "shed", ">5d"),
        ("scale_up_events", "up", ">3d"), ("scale_down_events", "dn", ">3d"),
        ("ttft_p50", "ttft_p50", ">9.3f"), ("slo_attainment", "slo_att", ">8.2f"),
    ),
)
