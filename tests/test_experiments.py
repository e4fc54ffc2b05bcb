"""Tests for the experiment modules and the figures grid they read."""

from __future__ import annotations

import pickle

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
from repro.experiments.grid import FIGURE_SCENARIOS, GRID, run_figures
from repro.experiments.report import format_table, format_value
from repro.experiments.runner import (
    FULL_SCALE,
    ExperimentScale,
    WORKLOAD_PRESETS,
    build_preset_workload,
    build_system_config,
)
from repro.policies import make_policy
from repro.scenarios import list_scenarios
from repro.sweeps.grid import (
    cell_task,
    grid_cells,
    materialise,
    run_cell,
    run_grid,
    strip_wall_clock,
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

    def test_five_systems_in_the_papers_order(self):
        names = [make_policy(key).name for key in figure12.SYSTEMS]
        assert names == ["vLLM (DP)", "vLLM (PP)", "InferCept", "Llumnix", "KunServe"]
        for key in figure12.WORKLOADS:
            assert GRID.scenario(key).policies == figure12.SYSTEMS


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

#: The figures grid at ``SMOKE_SCALE``, narrowed to one workload preset.
#: Two instances leave out the 4- and 8-stage pipelines of Figure 5.
SMOKE_SCENARIOS = ("burstgpt-14b", "drop-degree", "ablation", "burst-waves", "extreme-burst")


@pytest.fixture(scope="module")
def smoke_entries():
    return run_figures(SMOKE_SCALE, scenarios=SMOKE_SCENARIOS)


@pytest.mark.parametrize(
    "module",
    [figure2, figure5, figure12, figure13, figure14, figure15, figure16, figure17, table1],
    ids=lambda module: module.__name__.rpartition(".")[2],
)
def test_every_experiment_runs_at_smoke_scale(module, request):
    name = module.__name__.rpartition(".")[2]
    format_ = getattr(module, f"format_{name}")
    if module in (figure15, table1):  # no serving run
        text = format_(getattr(module, f"run_{name}")())
    else:
        text = format_(request.getfixturevalue("smoke_entries"))
    assert text.strip()


class TestFiguresGrid:
    def test_figure_scenarios_stay_out_of_the_registry(self):
        assert not {spec.name for spec in FIGURE_SCENARIOS} & set(list_scenarios())
        with pytest.raises(KeyError):
            grid_cells(GRID, SMOKE_SCALE, scenarios=("spike-train",))

    def test_cells_pickle_and_name_their_factory_by_import_path(self):
        _, cells = grid_cells(GRID, SMOKE_SCALE)
        for cell in cells:
            factory = cell.spec.workload_factory
            assert factory.__module__ == "repro.experiments.grid"
            assert "<" not in factory.__qualname__  # no lambda or closure
            assert pickle.loads(pickle.dumps(cell)).spec == cell.spec

    @pytest.mark.parametrize("instances, deepest", [(2, "vllm-pp"), (4, "vllm-pp4"), (8, "vllm-pp8")])
    def test_pipelines_deeper_than_the_cluster_are_not_run(self, instances, deepest):
        scale = ExperimentScale("fit", instances, 4.0, 4.0)
        _, cells = grid_cells(GRID, scale, scenarios=(figure5.SCENARIO,))
        assert cells[-1].policy == deepest

    def test_cells_of_one_workload_and_policy_run_once(self):
        # Figures 5 and 14 reuse the burstgpt-14b and longbench-14b
        # workloads: five of the 34 full-scale cells repeat another's key.
        _, cells = grid_cells(GRID, FULL_SCALE)
        hashes = [cell_task(cell).content_hash() for cell in cells]
        assert (len(hashes), len(set(hashes))) == (34, 29)
        pair = [
            materialise(GRID, {"scenario": name, "policy": "kunserve"}, FULL_SCALE)
            for name in ("longbench-14b", "ablation")
        ]
        assert len({cell_task(cell).content_hash() for cell in pair}) == 1

    def test_a_traced_figure13_cell_has_a_stage_breakdown(self):
        cell = materialise(GRID, {"scenario": "longbench-14b", "policy": "kunserve"}, SMOKE_SCALE)
        assert run_cell(cell, trace=True)["stage_breakdown"]

    def test_warm_rerun_is_served_from_cache_and_identical(self, tmp_path):
        run = dict(scale=SMOKE_SCALE, scenarios=("extreme-burst",), max_workers=1,
                   use_cache=True, cache_dir=tmp_path)
        cold, warm = run_grid(GRID, **run), run_grid(GRID, **run)
        assert (cold["cache_misses"], warm["cache_hits"], warm["cache_misses"]) == (2, 2, 0)
        assert strip_wall_clock(warm) == strip_wall_clock(cold)


@pytest.mark.slow
class TestEndToEndExperiments:
    def test_figure5_more_drop_more_latency(self):
        scale = ExperimentScale(
            name="tiny5", num_instances=4, trace_duration_s=20.0, drain_timeout_s=30.0,
            rate_fraction=0.6,
        )
        rows = figure5.rows(run_figures(scale, scenarios=(figure5.SCENARIO,)))
        assert [r["pipeline_stages"] for r in rows] == [1, 2, 4]
        # Deeper pipelines never beat DP on P99 TPOT.
        assert rows[-1]["tpot_p99"] >= rows[0]["tpot_p99"] * 0.95

    def test_figure2_overload_and_spikes(self):
        panels = figure2.panels(run_figures(
            TINY_SCALE, seed=3, scenarios=(figure2.SCENARIO,), policies=tuple(figure2.SYSTEMS)
        ))
        assert set(panels["systems"]) == {
            "Drop KVCache (vLLM)", "Swap KVCache (InferCept)", "Migrate KVCache (Llumnix)",
        }
        for data in panels["systems"].values():
            assert data["ttft_p99"] >= data["ttft_p50"]
            assert data["memory_capacity_gb"] > 0

    def test_figure14_ablation_runs_all_configs(self):
        scale = ExperimentScale(
            name="ablation", num_instances=4, trace_duration_s=90.0, drain_timeout_s=90.0
        )
        rows = figure14.rows(run_figures(scale, seed=3, scenarios=(figure14.SCENARIO,)))
        assert [r["config"] for r in rows] == [
            "vLLM (DP)", "vLLM (PP)", "+Dynamic drop", "+Coordinated ex.", "+Lookahead",
        ]
        kunserve_rows = rows[2:]
        assert any(r["drops"] >= 1 for r in kunserve_rows)
