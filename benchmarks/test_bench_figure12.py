"""Benchmark: Figure 12 — end-to-end TTFT and throughput of the five systems."""

from benchmarks.conftest import run_once
from repro.experiments.figure12 import format_figure12, rows
from repro.experiments.grid import run_figures


def test_bench_figure12_14b_workloads(benchmark, bench_scale):
    entries = run_once(
        benchmark, run_figures, bench_scale, scenarios=("burstgpt-14b", "longbench-14b")
    )
    print("\n" + format_figure12(entries))
    summary = rows(entries)
    systems = {r["system"] for r in summary}
    assert {"vLLM (DP)", "vLLM (PP)", "InferCept", "Llumnix", "KunServe"} == systems
    for row in summary:
        assert row["throughput_tok_s"] > 0


def test_bench_figure12_72b_longbench(benchmark, bench_scale):
    entries = run_once(
        benchmark, run_figures, bench_scale, scenarios=("longbench-72b",),
        policies=("vllm", "infercept", "llumnix", "kunserve"),
    )
    print("\n" + format_figure12(entries))
    summary = rows(entries)
    assert all(row["workload"] == "LongBench x 72B" for row in summary)
