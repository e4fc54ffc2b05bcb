"""Figure 12: end-to-end serving results of the five systems.

For each workload (BurstGPT / ShareGPT / LongBench x 14B and LongBench x
72B) and each of the five systems: the mean and P99 TTFT, the token
throughput, and the drop/restore operations KunServe performed.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.report import committed_entries, format_table

#: The figure's scenarios in the figures grid: the four workload presets.
WORKLOADS = ("burstgpt-14b", "sharegpt-14b", "longbench-14b", "longbench-72b")

#: The five systems in the paper's order, by policy key.
SYSTEMS = ("vllm", "vllm-pp", "infercept", "llumnix", "kunserve")


def rows(entries: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """One row per (workload, system), in grid order."""
    return [
        {
            "workload": cell["workload"],
            "system": cell["policy_name"],
            "mean_ttft_s": cell["mean_ttft"],
            "ttft_p99_s": cell["ttft_p99"],
            "throughput_tok_s": cell["throughput_tokens_per_s"],
            "drops": cell["drops"],
            "restores": cell["restores"],
        }
        for cell in entries
        if cell["scenario"] in WORKLOADS
    ]


def format_figure12(entries: Sequence[Dict[str, object]]) -> str:
    return format_table(rows(entries))


if __name__ == "__main__":  # pragma: no cover - manual invocation
    print(format_figure12(committed_entries()))
