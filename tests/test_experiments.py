"""Tests for the experiment modules (table/figure reproductions)."""

from __future__ import annotations

import pytest

from repro.experiments import (
    figure2,
    figure5,
    figure12,
    figure13,
    figure14,
    figure15,
    figure16,
    figure17,
    table1,
)
from repro.experiments.report import format_table, format_value
from repro.experiments.runner import (
    ExperimentScale,
    QUICK_SCALE,
    WORKLOAD_PRESETS,
    build_preset_workload,
    build_system_config,
    make_policies,
)
from repro.experiments.table1 import PAPER_RATIOS, format_table1, run_table1
from repro.experiments.figure15 import format_figure15, max_errors, run_figure15

TINY_SCALE = ExperimentScale(
    name="tiny", num_instances=2, trace_duration_s=25.0, drain_timeout_s=30.0, rate_fraction=0.8
)


class TestReport:
    def test_format_value(self):
        assert format_value(0.0) == "0"
        assert format_value(1234.5) == "1,234"
        assert format_value(0.1234) == "0.123"
        assert format_value("x") == "x"

    def test_format_table(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 3, "b": 4.0}]
        table = format_table(rows)
        assert "a" in table and "b" in table
        assert len(table.splitlines()) == 4
        assert format_table([]) == "(no rows)"


class TestRunner:
    def test_presets_cover_paper_workloads(self):
        assert set(WORKLOAD_PRESETS) == {
            "burstgpt-14b", "sharegpt-14b", "longbench-14b", "longbench-72b",
        }

    def test_build_preset_workload_is_deterministic(self):
        preset = WORKLOAD_PRESETS["burstgpt-14b"]
        a = build_preset_workload(preset, TINY_SCALE, seed=1)
        b = build_preset_workload(preset, TINY_SCALE, seed=1)
        assert len(a) == len(b)
        assert [r.prompt_tokens for r in a.requests] == [r.prompt_tokens for r in b.requests]

    def test_build_system_config_cluster_choice(self):
        config_14b = build_system_config(WORKLOAD_PRESETS["burstgpt-14b"], TINY_SCALE)
        assert config_14b.gpus_per_instance == 1
        config_72b = build_system_config(WORKLOAD_PRESETS["longbench-72b"], TINY_SCALE)
        assert config_72b.gpus_per_instance == 4
        assert config_72b.cluster.gpus_per_server == 8

    def test_make_policies_order(self):
        names = [p.name for p in make_policies()]
        assert names == ["vLLM (DP)", "vLLM (PP)", "InferCept", "Llumnix", "KunServe"]
        assert len(make_policies(include_pp=False)) == 4


class TestTable1:
    def test_rows_match_catalog(self):
        rows = run_table1()
        assert {row["model"] for row in rows} == set(PAPER_RATIOS)
        for row in rows:
            assert row["param_ratio_pct"] == pytest.approx(row["paper_ratio_pct"], abs=4.0)

    def test_format(self):
        assert "Qwen-2.5-14B" in format_table1()


class TestFigure15:
    @pytest.fixture(scope="class")
    def results(self):
        return run_figure15(prompt_lengths=(512, 2048, 6144))

    def test_panels_present(self, results):
        assert set(results) == {"prefill_without_prefix", "prefill_with_prefix", "params"}
        assert len(results["prefill_without_prefix"]) == 3

    def test_our_model_beats_no_attention_baseline(self, results):
        errors = max_errors(results)
        assert errors["ours_max_error_pct"] < errors["no_attn_max_error_pct"]
        # The no-attention baseline degrades badly for long prompts/prefixes
        # (the paper reports up to 48-74% deviation; the roofline ground
        # truth is gentler but the gap is still large).
        assert errors["no_attn_max_error_pct"] > 15.0

    def test_prefix_panel_is_slower(self, results):
        without = {r["prompt_tokens"]: r["actual_ms"] for r in results["prefill_without_prefix"]}
        with_prefix = {r["prompt_tokens"]: r["actual_ms"] for r in results["prefill_with_prefix"]}
        assert all(with_prefix[k] > without[k] for k in without)

    def test_format(self, results):
        assert "prefill with prefix" in format_figure15(results)


#: Smallest run that still builds every system a figure compares: CI's
#: fast tier skips ``benchmarks/`` and the slow tests, so this is its only
#: run of most figures.
SMOKE_SCALE = ExperimentScale(
    name="smoke", num_instances=2, trace_duration_s=4.0, drain_timeout_s=4.0
)

#: Each figure/table rendered from a run at ``SMOKE_SCALE``, narrowed to
#: one workload and the shallowest pipeline where the module allows it.
SMOKE_RUNS = {
    "figure2": lambda: figure2.format_figure2(figure2.run_figure2(SMOKE_SCALE, seed=42)),
    "figure5": lambda: figure5.format_figure5(
        figure5.run_figure5(SMOKE_SCALE, seed=42, max_degree=2)
    ),
    "figure12": lambda: figure12.format_figure12(
        figure12.run_figure12(SMOKE_SCALE, seed=42, workload_keys=("burstgpt-14b",))
    ),
    "figure13": lambda: figure13.format_figure13(
        figure13.run_figure13(SMOKE_SCALE, seed=42, workload_keys=("burstgpt-14b",))
    ),
    "figure14": lambda: figure14.format_figure14(figure14.run_figure14(SMOKE_SCALE, seed=42)),
    "figure15": lambda: figure15.format_figure15(figure15.run_figure15()),
    "figure16": lambda: figure16.format_figure16(
        figure16.run_figure16(
            SMOKE_SCALE, seed=42, duration_s=3 * SMOKE_SCALE.trace_duration_s
        )
    ),
    "figure17": lambda: figure17.format_figure17(figure17.run_figure17(SMOKE_SCALE, seed=42)),
    "table1": lambda: table1.format_table1(table1.run_table1()),
}


@pytest.mark.parametrize("experiment", list(SMOKE_RUNS))
def test_every_experiment_runs_at_smoke_scale(experiment):
    assert SMOKE_RUNS[experiment]().strip()


@pytest.mark.slow
class TestEndToEndExperiments:
    def test_figure5_more_drop_more_latency(self):
        from repro.experiments.figure5 import run_figure5

        scale = ExperimentScale(
            name="tiny5", num_instances=4, trace_duration_s=20.0, drain_timeout_s=30.0,
            rate_fraction=0.6,
        )
        rows = run_figure5(scale, max_degree=4)
        assert [r["pipeline_stages"] for r in rows] == [1, 2, 4]
        # Deeper pipelines never beat DP on P99 TPOT.
        assert rows[-1]["tpot_p99"] >= rows[0]["tpot_p99"] * 0.95

    def test_figure2_overload_and_spikes(self):
        from repro.experiments.figure2 import run_figure2

        panels = run_figure2(TINY_SCALE, seed=3)
        assert set(panels["systems"]) == {
            "Drop KVCache (vLLM)", "Swap KVCache (InferCept)", "Migrate KVCache (Llumnix)",
        }
        for data in panels["systems"].values():
            assert data["ttft_p99"] >= data["ttft_p50"]
            assert data["memory_capacity_gb"] > 0

    def test_figure14_ablation_runs_all_configs(self):
        from repro.experiments.figure14 import run_figure14

        scale = ExperimentScale(
            name="ablation", num_instances=4, trace_duration_s=90.0, drain_timeout_s=90.0
        )
        rows = run_figure14(scale, seed=3)
        assert [r["config"] for r in rows] == [
            "vLLM (DP)", "vLLM (PP)", "+Dynamic drop", "+Coordinated ex.", "+Lookahead",
        ]
        kunserve_rows = rows[2:]
        assert any(r["drops"] >= 1 for r in kunserve_rows)
