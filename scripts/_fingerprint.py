"""Dev-only: fingerprint simulation outputs to gate bit-identical refactors.

Usage: PYTHONPATH=src python scripts/_fingerprint.py OUT.json
"""
import hashlib
import json
import sys

from repro.experiments.runner import (
    ExperimentScale,
    WORKLOAD_PRESETS,
    build_preset_workload,
    make_policies,
    run_policy_on_workload,
)

#: Every policy replays a 45-second BurstGPT slice on a 2-instance
#: cluster: small enough to run in seconds, large enough to exercise
#: overload, preemption and (for KunServe) a parameter drop.
CANONICAL_SCALE = ExperimentScale("bench-canonical", 2, 45.0, 45.0)


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


def main() -> None:
    out = {}

    preset = WORKLOAD_PRESETS["burstgpt-14b"]
    workload = build_preset_workload(preset, CANONICAL_SCALE, seed=42)
    for policy in make_policies():
        result = run_policy_on_workload(
            policy, preset, CANONICAL_SCALE, seed=42, workload=workload
        )
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
        out[f"policy:{policy.name}"] = digest(
            {"rows": rows, "summary": result.summary, "dur": result.duration_s}
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
        "chaos": (CHAOS, dict(
            scenarios=("steady-poisson",), policies=("vllm",),
            faults=("cluster-outage",), migrations=("sticky", "migrate"),
        )),
        "serve": (SERVE, dict(
            scenarios=("spike-train",), policies=("vllm",), clients=("open", "16"),
            retries=("backoff",), backpressure=("on",),
        )),
    }
    for name, (grid, axes) in grids.items():
        out[name] = digest(run_grid(grid, seed=42, max_workers=1, **axes))

    json.dump(out, open(sys.argv[1], "w"), indent=1)
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
