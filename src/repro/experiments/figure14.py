"""Figure 14: ablation study of KunServe's techniques.

Runs the LongBench x 14B workload with the techniques enabled
incrementally: vLLM (DP), vLLM (PP), + dynamic parameter drop,
+ coordinated KV exchange, + lookahead batch formulation.  Reports TTFT /
TPOT percentiles and the mean pipeline bubble time.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.report import committed_entries, format_table

#: The figure's scenario in the figures grid: the LongBench x 14B preset.
SCENARIO = "ablation"

#: The rows, each adding one technique: policy key -> label.
CONFIGS = {
    "vllm": "vLLM (DP)",
    "vllm-pp": "vLLM (PP)",
    "kunserve-drop-only": "+Dynamic drop",
    "kunserve-no-lookahead": "+Coordinated ex.",
    "kunserve": "+Lookahead",
}


def rows(entries: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """One row per ablation step, in the figure's order."""
    return [
        {
            "config": CONFIGS[cell["policy"]],
            "ttft_p50": cell["ttft_p50"],
            "ttft_p90": cell["ttft_p90"],
            "ttft_p99": cell["ttft_p99"],
            "ttft_p999": cell["ttft_p999"],
            "tpot_p50": cell["tpot_p50"],
            "tpot_p99": cell["tpot_p99"],
            "mean_bubble_pct": 100.0 * cell["mean_bubble_fraction"],
            "throughput_tok_s": cell["throughput_tokens_per_s"],
            "drops": cell["drops"],
        }
        for cell in entries
        if cell["scenario"] == SCENARIO and cell["policy"] in CONFIGS
    ]


def format_figure14(entries: Sequence[Dict[str, object]]) -> str:
    return format_table(rows(entries))


if __name__ == "__main__":  # pragma: no cover - manual invocation
    print(format_figure14(committed_entries()))
