"""Figure 16: effectiveness of dynamic parameter restoration.

Long-run BurstGPT trace with multiple burst waves, comparing vLLM (DP),
KunServe without restoration (parameters stay dropped after the first
overload) and full KunServe (drop + restore).  Restoration matters because
pipelined execution has lower throughput during normal periods, which makes
the *next* wave worse.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.report import committed_entries, format_table

#: The figure's scenario in the figures grid: the wave trace.
SCENARIO = "burst-waves"

#: The systems the figure compares: policy key -> label.
SYSTEMS = {
    "vllm": "vLLM (DP)",
    "kunserve-no-restore": "KunServe w/o restore",
    "kunserve": "KunServe",
}


def rows(entries: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """One row per system: latency, throughput, operations, completions."""
    return [
        {
            "system": SYSTEMS[cell["policy"]],
            "ttft_p50": cell["ttft_p50"],
            "ttft_p99": cell["ttft_p99"],
            "tpot_p50": cell["tpot_p50"],
            "tpot_p99": cell["tpot_p99"],
            "throughput_tok_s": cell["throughput_tokens_per_s"],
            "drops": cell["drops"],
            "restores": cell["restores"],
            "finished": cell["finished"],
            "submitted": cell["requests"],
        }
        for cell in entries
        if cell["scenario"] == SCENARIO and cell["policy"] in SYSTEMS
    ]


def format_figure16(entries: Sequence[Dict[str, object]]) -> str:
    return format_table(rows(entries))


if __name__ == "__main__":  # pragma: no cover - manual invocation
    print(format_figure16(committed_entries()))
