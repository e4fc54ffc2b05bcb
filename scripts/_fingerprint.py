"""Fingerprint simulation outputs to gate bit-identical refactors.

Digests every policy at a canonical scale, two of those runs with an
instance killed mid-run, and eight sweep grids (15 digests, a few
seconds).  ``scripts/fingerprints.json`` holds the digests
of the current results; CI checks them.

Usage:
  PYTHONPATH=src python scripts/_fingerprint.py OUT.json       # write them
  PYTHONPATH=src python scripts/_fingerprint.py --check FILE   # compare

``--check`` exits 1 and names each digest that differs from FILE's.
"""
import argparse
import dataclasses
import hashlib
import json
import sys

from repro.chaos.config import FaultEvent, FaultSchedule
from repro.experiments.figure12 import SYSTEMS
from repro.experiments.runner import (
    ExperimentScale,
    WORKLOAD_PRESETS,
    build_preset_workload,
    build_system_config,
    run_policy_on_workload,
)
from repro.policies import make_policy
from repro.serving.system import ClusterServingSystem

#: Every policy replays a 45-second BurstGPT slice on a 2-instance
#: cluster: small enough to run in seconds, large enough to exercise
#: overload, preemption and (for KunServe) a parameter drop.
CANONICAL_SCALE = ExperimentScale("bench-canonical", 2, 45.0, 45.0)

#: Canonical runs with instance 0 killed, at fault paths no grid cell
#: reaches: InferCept's group holds 8 swapped requests at 42 s, and at
#: 40 s KunServe's instance 0 is a stage of merged group [0, 1] (which
#: lives from 30 s to 68 s).  Policy key -> kill time in seconds.
INSTANCE_KILLS = {"infercept": 42.0, "kunserve": 40.0}


def _scrub(obj):
    if isinstance(obj, dict):
        return {
            k: _scrub(v)
            for k, v in obj.items()
            if not (k.startswith("wall_s") or k in ("cache_hits", "cache_misses"))
        }
    if isinstance(obj, list):
        return [_scrub(v) for v in obj]
    return obj


def digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(_scrub(obj), sort_keys=True).encode()
    ).hexdigest()


def run_digest(result, **extra) -> str:
    """Digest of one run: every request's outcome, the summary, the end."""
    rows = [
        (
            r.request_id,
            r.ttft,
            r.mean_tpot,
            r.finish_time,
            r.finished,
            r.output_tokens,
            r.preemption_count,
        )
        for r in result.records
    ]
    return digest(
        {"rows": rows, "summary": result.summary, "dur": result.duration_s, **extra}
    )


def fingerprints() -> dict:
    out = {}

    preset = WORKLOAD_PRESETS["burstgpt-14b"]
    workload = build_preset_workload(preset, CANONICAL_SCALE, seed=42)
    for policy in map(make_policy, SYSTEMS):
        result = run_policy_on_workload(
            policy, preset, CANONICAL_SCALE, seed=42, workload=workload
        )
        out[f"policy:{policy.name}"] = run_digest(result)

    config = build_system_config(preset, CANONICAL_SCALE, seed=42)
    for key, at_s in INSTANCE_KILLS.items():
        kill = FaultSchedule(events=(FaultEvent("instance_kill", at_s=at_s),), name="kill")
        policy = make_policy(key)
        system = ClusterServingSystem(dataclasses.replace(config, chaos=kill), policy)
        result = system.run(workload)
        (report,) = system.fault_manager.reports
        out[f"instance-kill:{policy.name}"] = run_digest(
            result, report=dataclasses.asdict(report)
        )

    from repro.chaos.grid import GRID as CHAOS
    from repro.fleet.grid import GRID as FLEET
    from repro.multicluster.grid import GRID as MULTICLUSTER
    from repro.scenarios.grid import GRID as SCENARIOS
    from repro.serve.grid import GRID as SERVE
    from repro.sweeps.grid import run_grid

    grids = {
        "scenarios": (SCENARIOS, dict(
            scenarios=("steady-poisson", "spike-train"), policies=("vllm", "kunserve"),
        )),
        "fleet": (FLEET, dict(
            scenarios=("steady-poisson",), policies=("vllm",),
            routers=("least_loaded", "power_of_two_choices"), autoscalers=("fixed", "elastic"),
        )),
        "multicluster": (MULTICLUSTER, dict(
            scenarios=("steady-poisson",), policies=("vllm",), cluster_counts=(2,),
        )),
        # Three clusters: the cost_weighted placement and spillover's
        # remote pick choose among more than one candidate.
        "multicluster-3": (MULTICLUSTER, dict(
            scenarios=("steady-poisson",), policies=("vllm",), cluster_counts=(3,),
        )),
        "chaos": (CHAOS, dict(
            scenarios=("steady-poisson",), policies=("vllm",),
            faults=("cluster-outage",), migrations=("sticky", "migrate"),
        )),
        "serve": (SERVE, dict(
            scenarios=("spike-train",), policies=("vllm",), clients=("open", "16"),
            retries=("backoff",), backpressure=("on",),
        )),
        # The fault paths no committed document runs: instance kills on
        # one cluster, and instance kills and WAN degradation on the tier.
        "fleet-faults": (FLEET, dict(
            scenarios=("steady-poisson",), policies=("vllm",), routers=("least_loaded",),
            autoscalers=("fixed", "elastic"), faults=("instance-kill", "churn"),
        )),
        "chaos-faults": (CHAOS, dict(
            scenarios=("steady-poisson",), policies=("vllm",),
            faults=("instance-kill", "wan-degrade"), migrations=("sticky", "migrate"),
        )),
    }
    for name, (grid, axes) in grids.items():
        out[name] = digest(run_grid(grid, seed=42, max_workers=1, **axes))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("output", nargs="?", help="write the digests to this JSON file")
    parser.add_argument("--check", metavar="FILE", help="compare the digests with FILE's")
    args = parser.parse_args()
    if (args.output is None) == (args.check is None):
        parser.error("give either OUT.json or --check FILE")
    out = fingerprints()
    text = json.dumps(out, indent=1) + "\n"
    if args.output is not None:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(text, end="")
        return 0
    with open(args.check) as handle:
        expected = json.load(handle)
    differing = [
        name for name in sorted(expected.keys() | out.keys())
        if expected.get(name) != out.get(name)
    ]
    for name in differing:
        print(f"{name}: expected {expected.get(name)}, got {out.get(name)}")
    if differing:
        return 1
    print(f"all {len(out)} digests match {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
