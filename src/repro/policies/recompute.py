"""vLLM baseline: recompute-on-preemption, optional static pipeline layout.

``VLLMPolicy()`` is the default vLLM deployment the paper calls vLLM (DP):
every instance holds a full replica and preempted requests are recomputed.
``VLLMPolicy(pp_degree=2)`` is vLLM (PP): instances are statically paired
into pipeline groups holding half the layers each, which frees parameter
memory for KV cache up front, at the price of permanent pipeline bubbles
and lower throughput (the trade-off Figure 12 quantifies).
"""

from __future__ import annotations

from typing import List

from repro.engine.pipeline import PipelineExecution
from repro.policies.base import OverloadPolicy


class VLLMPolicy(OverloadPolicy):
    """vLLM with recompute preemption; optionally static pipeline parallel.

    **When selected:** the baseline of every end-to-end comparison (Figures
    2, 12, 13, 16, 17); ``make_policy("vllm")`` / ``make_policy("vllm-pp")``.

    **What it models:** each instance serves independently (data parallel)
    with vLLM's default overload reaction — when the KV cache is full the
    latest-arrived running request is preempted, its KV discarded, and its
    whole context recomputed when memory frees up.  With ``pp_degree > 1``
    instances are statically fused into pipeline groups at deploy time
    (vLLM (PP)): each stage holds ``1/pp_degree`` of the layers, which
    permanently converts parameter memory into KV capacity but pays
    pipeline bubbles even when the cluster is not overloaded — the
    always-on version of the trade KunServe makes only under pressure.
    """

    def __init__(self, pp_degree: int = 1) -> None:
        if pp_degree < 1:
            raise ValueError("pp_degree must be >= 1")
        self.pp_degree = pp_degree
        self.name = "vLLM (DP)" if pp_degree == 1 else f"vLLM (PP{pp_degree})" if pp_degree != 2 else "vLLM (PP)"

    def initial_groups(self, num_instances: int) -> List[List[int]]:
        if self.pp_degree == 1:
            return [[index] for index in range(num_instances)]
        groups = []
        for start in range(0, num_instances, self.pp_degree):
            members = list(range(start, min(start + self.pp_degree, num_instances)))
            groups.append(members)
        return groups

    def initial_layer_assignment(
        self, group_instance_indices: List[int], num_layers: int
    ) -> List[List[int]]:
        if len(group_instance_indices) == 1:
            return [list(range(num_layers))]
        ranges = PipelineExecution.layer_ranges(num_layers, len(group_instance_indices))
        return [list(r) for r in ranges]
