"""Memory-overload handling policies.

Each policy configures how the cluster is laid out (data parallel vs. static
pipeline parallel), how the per-group scheduler reacts to a full KV cache
(recompute vs. swap), and what cluster-level action the monitor triggers
(nothing, migration, or KunServe's parameter drop).

The baselines mirror the systems the paper compares against:

* :class:`VLLMPolicy` — vLLM with recompute-on-preemption, optionally in a
  static pipeline-parallel deployment (``vLLM (PP)``);
* :class:`InferCeptPolicy` — optimised KV swapping to host DRAM;
* :class:`LlumnixPolicy` — load-balanced dispatching plus KV migration;
* :class:`KunServePolicy` — the paper's parameter-centric approach.
"""

from repro.core.kunserve import KunServeConfig
from repro.policies.base import OverloadPolicy
from repro.policies.recompute import VLLMPolicy
from repro.policies.swap import InferCeptPolicy
from repro.policies.migrate import LlumnixPolicy
from repro.policies.kunserve_policy import KunServePolicy

__all__ = [
    "OverloadPolicy",
    "VLLMPolicy",
    "InferCeptPolicy",
    "LlumnixPolicy",
    "KunServePolicy",
]


def make_policy(name: str, **kwargs) -> OverloadPolicy:
    """Construct a policy by name: the five systems, Figure 5's deeper
    static pipelines and the KunServe variants of Figures 14 and 16."""
    registry = {
        "vllm": VLLMPolicy,
        "vllm-dp": VLLMPolicy,
        "vllm-pp": lambda **kw: VLLMPolicy(pp_degree=kw.pop("pp_degree", 2), **kw),
        "vllm-pp4": lambda: VLLMPolicy(pp_degree=4),
        "vllm-pp8": lambda: VLLMPolicy(pp_degree=8),
        "infercept": InferCeptPolicy,
        "llumnix": LlumnixPolicy,
        "kunserve": KunServePolicy,
        "kunserve-drop-only": lambda: _kunserve(
            "KunServe (drop only)", coordinated_exchange=False, use_lookahead=False
        ),
        "kunserve-no-lookahead": lambda: _kunserve("KunServe w/o lookahead", use_lookahead=False),
        # Restoration triggers below a usage ratio; one this low never holds
        # (a threshold of 0 is rejected).
        "kunserve-no-restore": lambda: _kunserve("KunServe w/o restore", restore_threshold=1e-6),
    }
    key = name.lower()
    if key not in registry:
        known = ", ".join(sorted(registry))
        raise KeyError(f"unknown policy {name!r}; known policies: {known}")
    return registry[key](**kwargs)


def _kunserve(label: str, **config) -> KunServePolicy:
    return KunServePolicy(KunServeConfig(**config), label=label)
