"""Benchmark: Figure 17 — standing time under an extreme burst (72B)."""

from benchmarks.conftest import run_once
from repro.experiments.figure17 import format_figure17, rows
from repro.experiments.grid import run_figures


def test_bench_figure17_extreme_burst(benchmark, bench_scale):
    entries = run_once(benchmark, run_figures, bench_scale, scenarios=("extreme-burst",))
    print("\n" + format_figure17(entries))
    by_system = {r["system"]: r for r in rows(entries)}
    assert set(by_system) == {"vLLM (DP)", "KunServe"}
    kunserve = by_system["KunServe"]
    vllm = by_system["vLLM (DP)"]
    # Dropping parameters buys KunServe extra KV capacity under the burst.
    assert kunserve["capacity_peak_gb"] >= vllm["capacity_peak_gb"]
