"""Benchmark: Figure 2 — TTFT spikes of KV-centric overload handling."""

from benchmarks.conftest import run_once
from repro.experiments.figure2 import SCENARIO, SYSTEMS, format_figure2, panels
from repro.experiments.grid import run_figures


def test_bench_figure2(benchmark, bench_scale_overload):
    entries = run_once(
        benchmark, run_figures, bench_scale_overload, scenarios=(SCENARIO,),
        policies=tuple(SYSTEMS),
    )
    print("\n" + format_figure2(entries))
    figure = panels(entries)
    assert len(figure["systems"]) == 3
    for data in figure["systems"].values():
        # Overloading: tail TTFT spikes well above the median (the paper
        # reports two-order-of-magnitude spikes on its testbed).
        assert data["ttft_p99"] >= 2.0 * max(data["ttft_p50"], 1e-3)
