"""Benchmark: Figure 13 — latency percentiles and SLO violations."""

from benchmarks.conftest import run_once
from repro.experiments.figure13 import format_figure13, tables
from repro.experiments.grid import run_figures


def test_bench_figure13(benchmark, bench_scale_overload):
    entries = run_once(benchmark, run_figures, bench_scale_overload, scenarios=("longbench-14b",))
    print("\n" + format_figure13(entries))
    results = tables(entries)
    latency = results["latency"]
    assert len(latency) == 5
    # KunServe's P99 TTFT beats the worst baseline (the paper reports up to
    # 12.7-72.2x; the simulated gap is smaller but in the same direction).
    kunserve = next(r["ttft_p99"] for r in latency if r["system"] == "KunServe")
    assert kunserve < max(r["ttft_p99"] for r in latency if r["system"] != "KunServe")
    # SLO violations decrease as the SLO scale grows, for every system.
    slo = results["slo"]
    by_system = {}
    for row in slo:
        by_system.setdefault(row["system"], []).append((row["slo_scale"], row["violation_ratio_pct"]))
    for series in by_system.values():
        ordered = [v for _, v in sorted(series)]
        assert ordered == sorted(ordered, reverse=True)
