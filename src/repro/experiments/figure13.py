"""Figure 13: end-to-end latency percentiles and SLO violations.

P50/P99 TTFT, P50/P99 TPOT for every workload x system pair of Figure 12,
plus the SLO violation ratio as a function of the SLO scale factor (the
paper marks 5x for chat and 10x for summarisation).  Each workload's SLO
reference is the best P50 among its five systems.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.figure12 import WORKLOADS
from repro.experiments.report import committed_entries, format_table

#: The SLO scale factors of the violation curve.
SLO_FACTORS = (2, 4, 6, 8, 10)


def tables(entries: Sequence[Dict[str, object]]) -> Dict[str, List[Dict[str, object]]]:
    """The latency rows and the SLO-violation rows, in grid order."""
    cells = [cell for cell in entries if cell["scenario"] in WORKLOADS]
    latency = [
        {
            "workload": cell["workload"],
            "system": cell["policy_name"],
            "ttft_p50": cell["ttft_p50"],
            "ttft_p99": cell["ttft_p99"],
            "tpot_p50": cell["tpot_p50"],
            "tpot_p99": cell["tpot_p99"],
        }
        for cell in cells
    ]
    slo = [
        {
            "workload": cell["workload"],
            "system": cell["policy_name"],
            "slo_scale": float(factor),
            "violation_ratio_pct": 100.0 * cell[f"slo_violation_x{factor}"],
        }
        for cell in cells
        for factor in SLO_FACTORS
    ]
    return {"latency": latency, "slo": slo}


def format_figure13(entries: Sequence[Dict[str, object]]) -> str:
    results = tables(entries)
    parts = ["Figure 13 — latency percentiles", format_table(results["latency"])]
    parts.append("")
    parts.append("Figure 13 — SLO violations")
    parts.append(format_table(results["slo"]))
    return "\n".join(parts)


if __name__ == "__main__":  # pragma: no cover - manual invocation
    print(format_figure13(committed_entries()))
