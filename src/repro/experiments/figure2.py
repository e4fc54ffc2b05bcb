"""Figure 2: TTFT spikes caused by memory overloading.

On the BurstGPT x 14B workload, the three KV-centric ways to handle
overloading: drop/recompute (vLLM), swap (InferCept) and migrate
(Llumnix).  Each row gives the peak KV demand against the cluster's KV
capacity and the TTFT percentiles.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.experiments.report import committed_entries

#: The figure's scenario in the figures grid.
SCENARIO = "burstgpt-14b"

#: The systems the figure compares: policy key -> label.
SYSTEMS = {
    "vllm": "Drop KVCache (vLLM)",
    "infercept": "Swap KVCache (InferCept)",
    "llumnix": "Migrate KVCache (Llumnix)",
}


def panels(entries: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """The figure's numbers, read from the figures grid's entries."""
    cells = [c for c in entries if c["scenario"] == SCENARIO and c["policy"] in SYSTEMS]
    return {
        "workload": cells[0]["workload"],
        "num_requests": cells[0]["requests"],
        "systems": {
            SYSTEMS[cell["policy"]]: {
                "memory_capacity_gb": cell["kv_capacity_first_gb"],
                "ttft_p50": cell["ttft_p50"],
                "ttft_p99": cell["ttft_p99"],
                "overload_ratio_peak": cell["peak_demand_ratio"],
            }
            for cell in cells
        },
    }


def format_figure2(entries: Sequence[Dict[str, object]]) -> str:
    figure = panels(entries)
    lines = [f"Figure 2 — {figure['workload']} ({figure['num_requests']} requests)"]
    for label, data in figure["systems"].items():
        lines.append(
            f"  {label}: peak demand/capacity = {data['overload_ratio_peak']:.2f}, "
            f"P50 TTFT = {data['ttft_p50']:.2f}s, P99 TTFT = {data['ttft_p99']:.2f}s"
        )
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover - manual invocation
    print(format_figure2(committed_entries()))
