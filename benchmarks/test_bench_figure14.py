"""Benchmark: Figure 14 — ablation of KunServe's techniques."""

from benchmarks.conftest import run_once
from repro.experiments.figure14 import format_figure14, rows
from repro.experiments.grid import run_figures


def test_bench_figure14_ablation(benchmark, bench_scale_overload):
    entries = run_once(benchmark, run_figures, bench_scale_overload, scenarios=("ablation",))
    print("\n" + format_figure14(entries))
    table = rows(entries)
    configs = [r["config"] for r in table]
    assert configs == ["vLLM (DP)", "vLLM (PP)", "+Dynamic drop", "+Coordinated ex.", "+Lookahead"]
    by_config = {r["config"]: r for r in table}
    # Dynamic drop is the big lever: it cuts tail TTFT vs. vLLM (DP).
    assert by_config["+Lookahead"]["ttft_p99"] <= by_config["vLLM (DP)"]["ttft_p99"]
    # The KunServe variants actually exercised the drop path.
    assert any(by_config[c]["drops"] >= 1 for c in ("+Dynamic drop", "+Coordinated ex.", "+Lookahead"))
