"""The chaos grid (``python -m repro.chaos``, ``CHAOS_results.json``).

Faults are a sweep axis: every cell replays a registered scenario through
a two-cluster fleet-of-fleets tier while a deterministic fault schedule
(:mod:`repro.chaos.config`) strikes, and the ``sticky`` and ``migrate``
session policies compete on what the faults cost: requests lost, WAN bytes
moved, and the recovery transient.  The tier is fixed (two shards,
locality-affinity routing, spare-capacity-first placement), so with no
fault the cells send nothing over the WAN and every cross-cluster byte of
a fault cell is the fault's.  The SLOs come from the best cell's P50, in
practice the no-fault baseline.  A cell's cache key holds its materialised
schedule, so retiming a preset invalidates exactly the cells that run it.
"""

from __future__ import annotations

import dataclasses

from repro.chaos.config import list_fault_presets
from repro.multicluster.config import list_session_migrations
from repro.sweeps.grid import (
    POLICIES,
    SCENARIOS,
    SLO_KEYS,
    SUMMARY_KEYS,
    SWEEP_ADMISSION,
    Axis,
    Grid,
    Setting,
    apply_faults,
    sweep_scales,
    tier_change,
)


GRID = Grid(
    name="chaos",
    document="CHAOS_results.json",
    description="Sweep scenarios across deterministic fault schedules and "
    "session-migration policies and write CHAOS_results.json.",
    # A generous drain: the recovery transient needs time for the
    # surviving cluster to absorb a dead sibling's load.
    scales=sweep_scales("chaos", quick_drain_s=90.0, full_drain_s=180.0),
    axes=(
        dataclasses.replace(SCENARIOS, default=("steady-poisson",)),
        POLICIES,
        Axis(
            "faults", "faults", apply=apply_faults, known=list_fault_presets,
            default=("none", "cluster-outage"), metavar="PRESET",
            help="fault-schedule presets",
        ),
        Axis(
            "migrations", "migration", apply=tier_change("session_migration"),
            known=list_session_migrations, default=("sticky", "migrate"),
            metavar="POLICY", help="session-migration policies",
        ),
    ),
    fixed=(
        Setting("clusters", 2, tier_change("num_clusters")),
        Setting("router", "locality_affinity", tier_change("global_router")),
        Setting("placement", "spare_capacity_first", tier_change("placement")),
    ),
    base=lambda cell: cell.tune_tier(admission=SWEEP_ADMISSION),
    probes=("metrics_out", "trace", "alerts"),
    entry_fields=(
        "scenario",                 # registry name, e.g. "steady-poisson"
        "policy",                   # overload-policy key, e.g. "vllm"
        "policy_name",              # display name, e.g. "vLLM (DP)"
        "faults",                   # fault preset, e.g. "cluster-outage"
        "migration",                # "sticky" | "migrate"
        "clusters",                 # cluster shards in this cell
        "router",                   # global router
        "placement",                # placement policy
        "workload",                 # materialised workload name
        "fault_events",             # events of the schedule (0 for "none")
        "requests",                 # requests submitted to the tier
        "finished",                 # requests finished before the horizon
        "shed",                     # requests rejected by admission (summed)
        "lost_to_fault",            # requests dropped because of a fault
        "incomplete",               # requests - finished - shed - lost
                                    # (in flight when the horizon ended)
        "completion_ratio",         # finished / requests
        "local_routed",             # healthy arrivals routed to their home
        "remote_routed",            # healthy arrivals routed to a sibling
        "rerouted",                 # arrivals whose home cluster was dead
        "migrated_sessions",        # sessions adopted by a sibling (migrate)
        "migration_hits",           # follow-up requests served locally at
                                    # the adopting cluster (amortisation)
        "displaced",                # requests a fault displaced mid-service
        "instance_kills",           # faults fired, by kind
        "cluster_outages",
        "wan_degrades",
        "cross_cluster_bytes",      # all WAN fabric bytes
        "dispatch_bytes",           # ... from per-request context dispatch
                                    #     (healthy remote + sticky re-hops)
        "migration_bytes",          # ... from one-time session moves
                                    # invariant: cross == dispatch + migration
        "recovery_transient_s",     # worst fault -> displaced-finish gap
                                    # (horizon-bounded for never-finished)
        "admitted",                 # requests dispatched to a serving group
        "queue_peak",               # max per-cluster admission-queue peak
        *SUMMARY_KEYS,
        *SLO_KEYS,
        "wall_s",                   # host wall-clock of this cell
    ),
    listings=(
        ("--list-faults", "fault-schedule presets", list_fault_presets),
        ("--list-migrations", "session-migration policies", list_session_migrations),
    ),
    columns=(
        ("scenario", "scenario", "<16"), ("policy", "policy", "<8"),
        ("faults", "faults", "<15"), ("migration", "migration", "<9"),
        ("requests", "reqs", ">5d"), ("finished", "fin", ">5d"),
        ("lost_to_fault", "lost", ">5d"), ("rerouted", "rert", ">5d"),
        ("recovery_transient_s", "recov_s", ">8.2f"),
        ("cross_cluster_bytes", "wan_bytes", ">10.3g"), ("slo_attainment", "slo_att", ">8.2f"),
    ),
)
