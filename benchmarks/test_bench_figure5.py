"""Benchmark: Figure 5 — latency vs. degree of parameter dropping."""

from benchmarks.conftest import run_once
from repro.experiments.figure5 import SCENARIO, format_figure5, rows as figure5_rows
from repro.experiments.grid import run_figures
from repro.experiments.runner import ExperimentScale

SCALE = ExperimentScale(
    name="bench-fig5", num_instances=4, trace_duration_s=45.0, drain_timeout_s=60.0,
    rate_fraction=0.7,
)


def test_bench_figure5(benchmark):
    entries = run_once(benchmark, run_figures, SCALE, scenarios=(SCENARIO,))
    print("\n" + format_figure5(entries))
    rows = figure5_rows(entries)
    assert [r["pipeline_stages"] for r in rows] == [1, 2, 4]
    # The figure's headline holds strictly: dropping parameters makes
    # requests cross more pipeline stages, so first-token latency rises
    # monotonically with the drop degree.
    assert rows[0]["ttft_p50"] < rows[1]["ttft_p50"] < rows[2]["ttft_p50"]
    # TPOT is noisier at this scaled-down bench size: the 4-stage
    # pipeline's queueing delays prefills so much (TTFT ~9x DP) that the
    # decode phase runs against a thinner resident batch and its *median*
    # per-token latency lands slightly below DP (ratio ~0.82 at seed 42),
    # inverting the paper's full-scale ordering.  The reproducible
    # invariant at this scale is that deep pipelining buys no meaningful
    # TPOT win — pinned here as a 25% tolerance band instead of the old
    # blanket xfail (this run is deterministic, so the band is stable).
    assert rows[2]["tpot_p50"] >= rows[0]["tpot_p50"] * 0.75
    assert rows[2]["tpot_p99"] <= rows[0]["tpot_p99"] * 1.5
    assert all(r["throughput_tokens_per_s"] > 0 for r in rows)
