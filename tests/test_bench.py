"""Tests for the benchmark harness (``repro.bench``).

Two guarantees matter to downstream PRs: the ``BENCH_results.json`` schema
is stable (keys are a compatibility contract), and the harness actually
runs a scenario end-to-end.
"""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    DOCUMENT_KEYS,
    ENTRY_KEYS,
    EXPERIMENT_RUNNERS,
    SCALE_KEYS,
    SCHEMA_VERSION,
    TINY_SCALE,
    format_results,
    run_benchmarks,
    run_experiment_benchmark,
    run_policy_benchmark,
    validate_document,
    write_results,
)
from repro.policies import VLLMPolicy


class TestSchema:
    def test_schema_contract_is_pinned(self):
        # These tuples are the compatibility contract of BENCH_results.json;
        # they may grow in a new schema version but must never lose keys.
        assert SCHEMA_VERSION == 1
        assert set(DOCUMENT_KEYS) >= {"schema_version", "repro_version", "scale", "entries"}
        assert set(ENTRY_KEYS) >= {
            "experiment",
            "kind",
            "policy",
            "wall_s",
            "sim_s",
            "events",
            "events_per_s",
            "finished_requests",
        }
        assert set(SCALE_KEYS) == {"name", "num_instances", "trace_duration_s", "drain_timeout_s"}

    def test_validate_document_flags_missing_keys(self):
        assert validate_document({}) != []
        document = {
            "schema_version": SCHEMA_VERSION,
            "repro_version": "0.0.0",
            "scale": {
                "name": "x",
                "num_instances": 1,
                "trace_duration_s": 1.0,
                "drain_timeout_s": 1.0,
            },
            "entries": [
                {
                    "experiment": "policy:test",
                    "kind": "policy",
                    "policy": "test",
                    "wall_s": 0.1,
                    "sim_s": 1.0,
                    "events": 10,
                    "events_per_s": 100.0,
                    "finished_requests": 1,
                }
            ],
        }
        assert validate_document(document) == []
        bad = json.loads(json.dumps(document))
        del bad["entries"][0]["events_per_s"]
        assert any("events_per_s" in p for p in validate_document(bad))

    def test_experiment_ids_cover_every_figure_module(self):
        assert set(EXPERIMENT_RUNNERS) == {
            "figure2",
            "figure5",
            "figure12",
            "figure13",
            "figure14",
            "figure15",
            "figure16",
            "figure17",
            "table1",
            "scenarios",
            "fleet",
            "multicluster",
            "chaos",
            "serve",
            "sweep_cache",
            "trace_overhead",
            "event_core",
        }


class TestHarnessSmoke:
    def test_policy_benchmark_runs_tiny_scenario(self):
        entry = run_policy_benchmark(VLLMPolicy(), TINY_SCALE, seed=1)
        assert entry.kind == "policy"
        assert entry.experiment == "policy:vLLM (DP)"
        assert entry.wall_s > 0
        assert entry.events > 0
        assert entry.events_per_s > 0
        assert entry.sim_s > 0
        assert entry.finished_requests > 0

    def test_harness_emits_valid_document(self, tmp_path):
        document = run_benchmarks(
            TINY_SCALE,
            seed=1,
            include_policies=True,
            include_experiments=True,
            experiments=["table1"],
        )
        assert validate_document(document) == []
        # Entries: five policies plus the one requested experiment.
        assert len(document["entries"]) == 6
        kinds = {e["kind"] for e in document["entries"]}
        assert kinds == {"policy", "experiment"}

        path = write_results(document, tmp_path / "BENCH_results.json")
        reloaded = json.loads(path.read_text())
        assert validate_document(reloaded) == []
        assert reloaded == document

        text = format_results(document)
        assert "policy:KunServe" in text
        assert "table1" in text

    def test_scenario_sweep_row_runs_tiny_grid(self):
        entry = run_experiment_benchmark("scenarios", TINY_SCALE, seed=1)
        assert entry.kind == "experiment"
        assert entry.experiment == "scenarios"
        assert entry.wall_s > 0
        assert entry.events > 0  # runs inline, so the event meter sees it

    def test_fleet_sweep_row_runs_tiny_grid(self):
        entry = run_experiment_benchmark("fleet", TINY_SCALE, seed=1)
        assert entry.kind == "experiment"
        assert entry.experiment == "fleet"
        assert entry.wall_s > 0
        assert entry.events > 0  # runs inline, so the event meter sees it

    def test_multicluster_sweep_row_runs_tiny_grid(self):
        entry = run_experiment_benchmark("multicluster", TINY_SCALE, seed=1)
        assert entry.kind == "experiment"
        assert entry.experiment == "multicluster"
        assert entry.wall_s > 0
        assert entry.events > 0  # runs inline, so the event meter sees it

    def test_sweep_cache_row_shows_warm_speedup(self):
        entry = run_experiment_benchmark("sweep_cache", TINY_SCALE, seed=1)
        assert entry.kind == "experiment"
        assert entry.experiment == "sweep_cache"
        extra = entry.extra
        assert extra["cold_wall_s"] > 0 and extra["warm_wall_s"] > 0
        # The warm pass is served entirely from the cache...
        assert extra["cold_cache_hits"] == 0
        assert extra["warm_cache_hits"] == 8  # 4 scenario + 4 fleet cells
        # ...and the row reports the cold/warm host-time ratio; its size
        # depends on the host, so only the arithmetic is checked.
        assert extra["cache_speedup"] == pytest.approx(
            extra["cold_wall_s"] / extra["warm_wall_s"]
        )
        # The additive fields are flattened into the document entry.
        document = run_benchmarks(
            TINY_SCALE, seed=1, include_policies=False, experiments=["sweep_cache"]
        )
        (entry_doc,) = document["entries"]
        assert entry_doc["cache_speedup"] == pytest.approx(
            entry_doc["cold_wall_s"] / entry_doc["warm_wall_s"]
        )
        assert entry_doc["warm_cache_hits"] == 8
        assert "extra" not in entry_doc
        assert validate_document(document) == []

    def test_unknown_experiment_is_rejected(self):
        with pytest.raises(KeyError):
            run_benchmarks(TINY_SCALE, include_policies=False, experiments=["figure99"])
