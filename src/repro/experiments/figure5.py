"""Figure 5: latency of different degrees of parameter dropping.

Compares full data parallelism against statically dropping 50 % / 75 % /
88 % of each instance's layers (i.e. pipeline groups of 2, 4 and 8 stages)
on the BurstGPT dataset: the more parameters dropped, the more pipeline
stages a request crosses and the higher its TTFT/TPOT — the trade-off the
drop-plan generator minimises by merging as few instances as possible.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.report import committed_entries, format_table

#: The figure's scenario in the figures grid: the BurstGPT x 14B preset.
SCENARIO = "drop-degree"

#: (policy key, label, pipeline degree, fraction of parameters dropped per instance)
DROP_CONFIGS = (
    ("vllm", "DP (full params)", 1, 0.0),
    ("vllm-pp", "Drop 50% layers", 2, 0.50),
    ("vllm-pp4", "Drop 75% layers", 4, 0.75),
    ("vllm-pp8", "Drop 88% layers", 8, 0.875),
)


def rows(entries: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """TTFT / TPOT percentiles for increasing parameter-drop degrees."""
    cells = {cell["policy"]: cell for cell in entries if cell["scenario"] == SCENARIO}
    return [
        {
            "config": label,
            "pipeline_stages": degree,
            "params_dropped_pct": 100 * dropped_fraction,
            "ttft_p50": cells[key]["ttft_p50"],
            "ttft_p99": cells[key]["ttft_p99"],
            "tpot_p50": cells[key]["tpot_p50"],
            "tpot_p99": cells[key]["tpot_p99"],
            "throughput_tokens_per_s": cells[key]["throughput_tokens_per_s"],
        }
        for key, label, degree, dropped_fraction in DROP_CONFIGS
        if key in cells
    ]


def format_figure5(entries: Sequence[Dict[str, object]]) -> str:
    return format_table(rows(entries))


if __name__ == "__main__":  # pragma: no cover - manual invocation
    print(format_figure5(committed_entries()))
