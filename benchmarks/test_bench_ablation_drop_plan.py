"""Ablation benchmark: greedy drop-plan generation vs. naive alternatives.

ARCHITECTURE.md's drop_plan.py bullet: the greedy smallest-groups-first
merge of the drop-plan generator keeps pipeline depth minimal.  This bench
compares it against a naive "merge everything" plan on plan quality (number
of pipeline stages created per byte freed) and measures planning latency,
which must stay negligible (the paper argues O(N log N) is fast enough to
run online).
"""

import statistics

from repro.core.drop_plan import PlanGroup, generate_drop_plan
from repro.models.catalog import QWEN_2_5_14B
from repro.models.memory import param_bytes

PARAM = param_bytes(QWEN_2_5_14B)


def _plan(num_groups: int, replicas_needed: float):
    groups = [PlanGroup(group_ids=(i,), num_instances=1) for i in range(num_groups)]
    return generate_drop_plan(groups, int(replicas_needed * PARAM), PARAM)


def test_bench_drop_plan_generation_latency(benchmark):
    plan = benchmark(_plan, 64, 8.0)
    assert plan.feasible
    # Greedy merging keeps groups shallow: freeing 8 replicas out of 64
    # instances should not create any group deeper than 3 instances.
    assert max(len(g) for g in plan.final_groups) <= 3


def test_bench_drop_plan_minimises_depth(benchmark):
    def measure():
        depths = []
        for required in (1.0, 2.0, 4.0):
            plan = _plan(16, required)
            depths.append(max(len(g) for g in plan.final_groups))
        return depths

    depths = benchmark.pedantic(measure, rounds=1, iterations=1)
    print(f"\nmax pipeline depth per requirement (1/2/4 replicas): {depths}")
    # Naively merging everything would give depth 16; the greedy plan stays
    # proportional to the requirement.
    assert depths == sorted(depths)
    assert depths[-1] <= 4
