"""Benchmark: Figure 16 — dynamic parameter restoration over a long run."""

from benchmarks.conftest import run_once
from repro.experiments.figure16 import format_figure16, rows
from repro.experiments.grid import run_figures
from repro.experiments.runner import ExperimentScale

SCALE = ExperimentScale(
    name="bench-fig16", num_instances=2, trace_duration_s=60.0, drain_timeout_s=90.0
)


def test_bench_figure16_restoration(benchmark):
    entries = run_once(benchmark, run_figures, SCALE, scenarios=("burst-waves",))
    print("\n" + format_figure16(entries))
    by_system = {r["system"]: r for r in rows(entries)}
    assert set(by_system) == {"vLLM (DP)", "KunServe w/o restore", "KunServe"}
    # Restoration actually happens in the full system and never in the
    # no-restore variant.
    assert by_system["KunServe w/o restore"]["restores"] == 0
    assert by_system["KunServe"]["drops"] >= by_system["vLLM (DP)"]["drops"]
