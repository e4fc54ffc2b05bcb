"""The multicluster grid (``python -m repro.multicluster``,
``MULTICLUSTER_results.json``).

Scenarios replayed through fleet-of-fleets systems
(:class:`~repro.multicluster.system.MultiClusterSystem`) across cluster
counts, global routers and placement policies.  ``scale.num_instances``
sizes one shard and the workload is generated for all of them, so the
cluster-count axis compares shardings of one deployment at equal load.
The default grid is one session-heavy scenario (so locality routing has
conversations to pin) under vLLM on two shards, every router and every
placement.
"""

from __future__ import annotations

import dataclasses

from repro.multicluster.placement import list_placements
from repro.multicluster.routing import list_global_routers
from repro.sweeps.grid import (
    POLICIES,
    SCENARIOS,
    SLO_KEYS,
    SUMMARY_KEYS,
    SWEEP_ADMISSION,
    Axis,
    Grid,
    sweep_scales,
    tier_change,
)


def _cluster_count(value) -> int:
    count = int(value)
    if count < 1:
        raise ValueError(f"cluster counts must be >= 1, got {count}")
    return count


GRID = Grid(
    name="multicluster",
    document="MULTICLUSTER_results.json",
    description="Sweep scenarios across cluster counts, global routers and "
    "placement policies and write MULTICLUSTER_results.json.",
    scales=sweep_scales("multicluster"),
    axes=(
        dataclasses.replace(SCENARIOS, default=("steady-poisson",)),
        POLICIES,
        Axis(
            "cluster_counts", "clusters", apply=tier_change("num_clusters"),
            parse=_cluster_count, default=(2,), metavar="N", help="cluster shard counts",
        ),
        Axis(
            "routers", "router", apply=tier_change("global_router"),
            known=list_global_routers, default=list_global_routers, metavar="ROUTER",
            help="global router strategies",
        ),
        Axis(
            "placements", "placement", apply=tier_change("placement"),
            known=list_placements, default=list_placements, metavar="POLICY",
            help="placement policies",
        ),
    ),
    base=lambda cell: cell.tune_tier(admission=SWEEP_ADMISSION),
    probes=("metrics_out",),
    entry_fields=(
        "scenario",                 # registry name, e.g. "steady-poisson"
        "policy",                   # overload-policy key, e.g. "vllm"
        "policy_name",              # display name, e.g. "vLLM (DP)"
        "clusters",                 # cluster shards in this cell
        "router",                   # global router, e.g. "locality_affinity"
        "placement",                # placement policy, e.g. "cost_weighted"
        "workload",                 # materialised workload name
        "requests",                 # requests submitted to the tier
        "local_routed",             # requests dispatched to their home cluster
        "remote_routed",            # requests dispatched to a remote cluster
                                    # (these crossed the WAN fabric first)
        "cross_cluster_ratio",      # remote_routed / requests (0 when no
                                    # requests arrived)
        "cross_cluster_bytes",      # KV bytes moved over the WAN fabric
        "admitted",                 # requests dispatched to a serving group
                                    # (summed over clusters)
        "shed",                     # requests rejected by admission (summed)
        "queue_peak",               # max per-cluster admission-queue peak
        "scale_up_events",          # autoscaler scale-ups (summed; includes
                                    # placement-directed ones)
        "remote_scale_ups",         # scale-ups the placement policy directed
                                    # to a sibling of the pressured cluster
        "scale_down_events",        # autoscaler drains (summed)
        "initial_groups",           # serving groups across all clusters at t=0
        "final_groups",             # routable groups when the run ended
        "finished",                 # requests finished before the horizon
        "completion_ratio",         # finished / requests
        *SUMMARY_KEYS,
        *SLO_KEYS,
        "wall_s",                   # host wall-clock of this cell
    ),
    listings=(
        ("--list-routers", "global router strategies", list_global_routers),
        ("--list-placements", "placement policies", list_placements),
    ),
    columns=(
        ("scenario", "scenario", "<16"), ("policy", "policy", "<8"),
        ("clusters", "cl", ">2d"), ("router", "router", "<21"),
        ("placement", "placement", "<20"), ("requests", "reqs", ">5d"),
        ("remote_routed", "rem", ">5d"), ("shed", "shed", ">5d"),
        ("scale_up_events", "up", ">3d"), ("remote_scale_ups", "rup", ">3d"),
        ("ttft_p50", "ttft_p50", ">9.3f"), ("slo_attainment", "slo_att", ">8.2f"),
    ),
)
