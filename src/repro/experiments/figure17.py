"""Figure 17: behaviour under an extreme, unending burst (Qwen-2.5-72B).

The burst is replayed until every system runs out of memory.  KunServe
stands longer because each drop frees another replica's worth of parameter
memory, and it keeps SLO-compliant TTFT until its (larger) limit is hit.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.report import committed_entries, format_table

#: The figure's scenario in the figures grid: the extreme-burst trace.
SCENARIO = "extreme-burst"

#: The systems the figure compares, by policy key.
SYSTEMS = ("vllm", "kunserve")


def rows(entries: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """One row per system: when memory ran out (NaN: never), and latency."""
    return [
        {
            "system": cell["policy_name"],
            "memory_exhausted_at_s": (
                float("nan") if cell["memory_exhausted_at_s"] is None
                else cell["memory_exhausted_at_s"]
            ),
            "stood_until_end": cell["memory_exhausted_at_s"] is None,
            "capacity_peak_gb": cell["kv_capacity_peak_gb"],
            "ttft_p50": cell["ttft_p50"],
            "ttft_p99": cell["ttft_p99"],
            "drops": cell["drops"],
            "finished": cell["finished"],
            "submitted": cell["requests"],
        }
        for cell in entries
        if cell["scenario"] == SCENARIO and cell["policy"] in SYSTEMS
    ]


def format_figure17(entries: Sequence[Dict[str, object]]) -> str:
    return format_table(rows(entries))


if __name__ == "__main__":  # pragma: no cover - manual invocation
    print(format_figure17(committed_entries()))
