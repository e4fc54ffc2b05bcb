"""Tests for the scenario subsystem (``repro.scenarios``).

Covers the synthetic generators (shape and bit-reproducibility), the
scenario registry, the ``SCENARIO_results.json`` schema contract, the
sweep runner (sequential and process-parallel), and the determinism
guarantee: same spec + seed ⇒ identical traces and identical simulation
metrics across runs.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter

import pytest

from repro.experiments.runner import ExperimentScale
from repro.scenarios import (
    BUILTIN_SCENARIOS,
    ScenarioSpec,
    diurnal_trace,
    get_scenario,
    list_scenarios,
    long_context_dataset,
    markov_modulated_trace,
    multi_tenant_trace,
    multi_tenant_workload,
    poisson_trace,
    spike_train_trace,
    stamp_sessions,
)
from repro.scenarios import registry as registry_module
from repro.scenarios.grid import GRID
from repro.sweeps.grid import (
    SCALE_KEYS,
    SCHEMA_VERSION,
    document_keys,
    format_results,
    materialise,
    run_cell,
    run_grid,
    strip_wall_clock,
    validate_document,
    write_results,
)
from repro.workloads.datasets import BURSTGPT_DATASET, SHAREGPT_DATASET, build_workload
from repro.workloads.upscaler import upscale_trace

#: Scale small enough that a sweep cell completes in well under a second.
TINY_SCALE = ExperimentScale(
    name="scenarios-tiny",
    num_instances=2,
    trace_duration_s=5.0,
    drain_timeout_s=5.0,
)


class TestGenerators:
    def test_poisson_rate_and_bounds(self):
        trace = poisson_trace(rate=10.0, duration_s=100.0, seed=1)
        assert all(0.0 <= t < 100.0 for t in trace.timestamps)
        assert trace.timestamps == sorted(trace.timestamps)
        assert len(trace) == pytest.approx(1000, rel=0.15)

    def test_mmpp_is_burstier_than_poisson(self):
        mmpp = markov_modulated_trace(
            base_rate=5.0, burst_factor=4.0, mean_calm_s=20.0, mean_burst_s=10.0,
            duration_s=200.0, seed=3,
        )
        poisson = poisson_trace(rate=5.0, duration_s=200.0, seed=3)
        def peak_rate(trace):
            # Busiest 5-second window, in requests per second.
            return max(Counter(int(t // 5.0) for t in trace.timestamps).values()) / 5.0
        assert peak_rate(mmpp) > 1.5 * peak_rate(poisson)

    def test_diurnal_rate_swings(self):
        trace = diurnal_trace(
            mean_rate=10.0, amplitude=0.8, period_s=100.0, duration_s=100.0, seed=2
        )
        # Default phase starts at the trough: the middle of the period is the
        # peak, the edges are the valley.
        middle = sum(1 for t in trace.timestamps if 35 <= t < 65)
        edges = sum(1 for t in trace.timestamps if t < 15 or t >= 85)
        assert middle > 2 * edges

    def test_spike_train_concentrates_arrivals_in_spikes(self):
        trace = spike_train_trace(
            base_rate=2.0, spike_factor=10.0, spike_duration_s=5.0,
            spike_period_s=25.0, duration_s=100.0, seed=4,
        )
        def in_spike(t):
            return t >= 12.5 and (t - 12.5) % 25.0 < 5.0
        spike_count = sum(1 for t in trace.timestamps if in_spike(t))
        # Spikes cover 20% of the window but a 10x rate draws most arrivals.
        assert spike_count > 0.5 * len(trace)

    def test_multi_tenant_trace_merges_and_sorts(self):
        a = poisson_trace(rate=5.0, duration_s=20.0, seed=1, name="a")
        b = poisson_trace(rate=5.0, duration_s=20.0, seed=2, name="b")
        merged = multi_tenant_trace([a, b])
        assert len(merged) == len(a) + len(b)
        assert merged.timestamps == sorted(merged.timestamps)
        with pytest.raises(ValueError):
            multi_tenant_trace([])

    def test_multi_tenant_workload_keeps_per_tenant_slo_classes(self):
        chat = poisson_trace(rate=5.0, duration_s=20.0, seed=1, name="chat")
        docs = poisson_trace(rate=1.0, duration_s=20.0, seed=2, name="docs")
        workload = multi_tenant_workload(
            [(chat, BURSTGPT_DATASET), (docs, long_context_dataset())], seed=5
        )
        classes = {r.slo_class for r in workload.requests}
        assert classes == {"chat", "summary"}
        assert len(workload) == len(chat) + len(docs)

    def test_long_context_dataset_is_heavier_than_sharegpt(self):
        spec = long_context_dataset()
        assert spec.mean_input_tokens > SHAREGPT_DATASET.mean_input_tokens
        assert spec.slo_class == "summary"

    def test_generator_validation(self):
        with pytest.raises(ValueError):
            poisson_trace(rate=0.0, duration_s=10.0)
        with pytest.raises(ValueError):
            poisson_trace(rate=1.0, duration_s=0.0)
        with pytest.raises(ValueError):
            diurnal_trace(mean_rate=1.0, amplitude=1.0, duration_s=10.0)
        with pytest.raises(ValueError):
            spike_train_trace(
                base_rate=1.0, spike_duration_s=10.0, spike_period_s=5.0, duration_s=10.0
            )
        with pytest.raises(ValueError):
            markov_modulated_trace(base_rate=1.0, mean_calm_s=0.0, duration_s=10.0)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda seed: poisson_trace(rate=8.0, duration_s=30.0, seed=seed),
            lambda seed: markov_modulated_trace(base_rate=5.0, duration_s=30.0, seed=seed),
            lambda seed: diurnal_trace(mean_rate=8.0, duration_s=30.0, seed=seed),
            lambda seed: spike_train_trace(base_rate=4.0, duration_s=30.0, seed=seed),
        ],
    )
    def test_generators_are_seed_deterministic(self, factory):
        assert factory(7).timestamps == factory(7).timestamps
        assert factory(7).timestamps != factory(8).timestamps


class TestSessions:
    """Satellite: multi-turn-capable generators stamp real session ids."""

    @pytest.mark.parametrize("name", ["steady-poisson", "diurnal-chat", "multi-tenant-mix"])
    def test_chat_scenarios_stamp_sessions(self, name):
        workload = get_scenario(name).build_workload(TINY_SCALE, seed=7)
        ids = [r.session_id for r in workload.requests]
        assert all(ids)  # every request belongs to a session
        # Multi-turn structure: fewer sessions than requests.
        assert 0 < len(set(ids)) < len(ids)

    def test_spike_train_stays_single_shot(self):
        # The committed FLEET grid sweeps spike-train through the
        # session-affinity router; it must keep its pre-session behaviour.
        workload = get_scenario("spike-train").build_workload(TINY_SCALE, seed=7)
        assert all(r.session_id is None for r in workload.requests)

    def test_stamping_is_seed_deterministic_and_non_perturbing(self):
        spec = get_scenario("diurnal-chat")
        a = spec.build_workload(TINY_SCALE, seed=7)
        b = spec.build_workload(TINY_SCALE, seed=7)
        assert [r.session_id for r in a.requests] == [r.session_id for r in b.requests]
        assert [r.session_id for r in a.requests] != [
            r.session_id for r in spec.build_workload(TINY_SCALE, seed=8).requests
        ]
        # Stamping draws only from its own RNG stream: arrivals and
        # lengths match an unstamped build of the same trace/dataset.
        from repro.scenarios.generators import diurnal_trace
        from repro.workloads.datasets import SHAREGPT_DATASET

        trace = diurnal_trace(
            mean_rate=2.2 * TINY_SCALE.num_instances,
            amplitude=0.6,
            period_s=TINY_SCALE.trace_duration_s / 1.5,
            duration_s=TINY_SCALE.trace_duration_s,
            seed=7,
            name="diurnal-chat",
        )
        plain = build_workload(trace, SHAREGPT_DATASET, seed=7)
        assert [r.arrival_time for r in a.requests] == [r.arrival_time for r in plain.requests]
        assert [r.prompt_tokens for r in a.requests] == [r.prompt_tokens for r in plain.requests]

    def test_sessions_carry_through_to_engine_requests(self):
        workload = get_scenario("steady-poisson").build_workload(TINY_SCALE, seed=7)
        engine_requests = workload.to_engine_requests()
        assert [r.session_id for r in engine_requests] == [
            r.session_id for r in workload.requests
        ]

    def test_affinity_router_keeps_sessions_together(self):
        from repro.fleet import make_router
        from tests.test_dispatcher import StubGroup

        workload = get_scenario("steady-poisson").build_workload(TINY_SCALE, seed=7)
        groups = [StubGroup(i) for i in range(4)]
        router = make_router("session_affinity")
        placements = {}
        for request in workload.to_engine_requests():
            group = router.route(request, groups)
            placements.setdefault(request.session_id, set()).add(group.group_id)
        assert all(len(where) == 1 for where in placements.values())
        assert len({tuple(w)[0] for w in placements.values()}) > 1  # spread out

    def test_duplicate_tenant_trace_names_keep_sessions_disjoint(self):
        chat_a = poisson_trace(rate=5.0, duration_s=20.0, seed=1, name="chat")
        chat_b = poisson_trace(rate=5.0, duration_s=20.0, seed=2, name="chat")
        workload = multi_tenant_workload(
            [(chat_a, BURSTGPT_DATASET), (chat_b, SHAREGPT_DATASET)],
            seed=5,
            session_turns=3.0,
        )
        by_tenant = {}
        for request in workload.requests:
            by_tenant.setdefault(request.slo_class, set()).add(request.session_id)
        # BURSTGPT and SHAREGPT are both chat-class here, so split by id
        # prefix instead: tenants must never share a session id.
        prefixes = {sid.rsplit("/s", 1)[0] for sid in by_tenant.get("chat", set())}
        assert len(prefixes) == 2  # two distinct per-tenant streams

    def test_stamp_sessions_validates_mean_turns(self):
        workload = get_scenario("steady-poisson").build_workload(TINY_SCALE, seed=7)
        with pytest.raises(ValueError):
            stamp_sessions(workload, mean_turns=0.5)


class TestRegistry:
    def test_builtins_are_registered(self):
        names = list_scenarios()
        assert len(names) >= 8
        assert {
            "steady-poisson",
            "burst-replay",
            "upscaled-burst",
            "mmpp-bursty",
            "diurnal-chat",
            "spike-train",
            "multi-tenant-mix",
            "long-context-skew",
        } <= set(names)
        assert len(BUILTIN_SCENARIOS) == len(names)

    def test_get_returns_spec_and_rejects_unknown(self):
        spec = get_scenario("steady-poisson")
        assert isinstance(spec, ScenarioSpec)
        assert spec.policies  # every scenario names its policy set
        with pytest.raises(KeyError):
            get_scenario("no-such-scenario")

    def test_spec_validation(self):
        factory = get_scenario("steady-poisson").workload_factory
        with pytest.raises(ValueError):
            ScenarioSpec(name="", description="d", workload_factory=factory)
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", description="d", workload_factory=factory, policies=())
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", description="d", workload_factory=factory, slo_scale=0.0)

    @pytest.mark.parametrize("name", [s.name for s in BUILTIN_SCENARIOS])
    def test_every_builtin_builds_a_nonempty_workload(self, name):
        workload = get_scenario(name).build_workload(TINY_SCALE, seed=11)
        assert len(workload) > 0
        # upscale_trace jitters replicas by up to ±0.25 s past the window.
        assert workload.duration <= TINY_SCALE.trace_duration_s + 0.5


class TestDeterminism:
    """Satellite: same ScenarioSpec + seed ⇒ bit-identical everything."""

    @pytest.mark.parametrize("name", [s.name for s in BUILTIN_SCENARIOS])
    def test_workload_is_bit_reproducible(self, name):
        spec = get_scenario(name)
        a = spec.build_workload(TINY_SCALE, seed=3)
        b = spec.build_workload(TINY_SCALE, seed=3)
        assert [r.arrival_time for r in a.requests] == [r.arrival_time for r in b.requests]
        assert [r.prompt_tokens for r in a.requests] == [r.prompt_tokens for r in b.requests]
        assert [r.output_tokens for r in a.requests] == [r.output_tokens for r in b.requests]
        different_seed = spec.build_workload(TINY_SCALE, seed=4)
        assert [r.arrival_time for r in a.requests] != [
            r.arrival_time for r in different_seed.requests
        ]

    def test_simulation_metrics_are_bit_reproducible(self):
        values = {"scenario": "burst-replay", "policy": "kunserve"}
        first = run_cell(materialise(GRID, values, TINY_SCALE, seed=9))
        second = run_cell(materialise(GRID, values, TINY_SCALE, seed=9))
        first.pop("wall_s"), second.pop("wall_s")
        # The whole run summary, the p999s and bubble fraction included.
        assert first == second
        assert {"ttft_p999", "tpot_p999", "mean_bubble_fraction"} <= set(first["summary"])
        assert first["latencies"] and first["finished"] > 0

    def test_upscale_trace_is_bit_reproducible(self):
        base = poisson_trace(rate=10.0, duration_s=30.0, seed=5)
        assert upscale_trace(base, 1.7, seed=6).timestamps == (
            upscale_trace(base, 1.7, seed=6).timestamps
        )


class TestSchema:
    def test_schema_contract_is_pinned(self):
        # The compatibility contract of SCENARIO_results.json: keys may grow
        # in a new schema version but must never be renamed or removed.
        assert SCHEMA_VERSION == 1
        assert set(document_keys(GRID)) >= {
            "schema_version",
            "repro_version",
            "seed",
            "scale",
            "scenarios",
            "policies",
            "entries",
            "wall_s_total",
        }
        assert set(GRID.entry_fields) >= {
            "scenario",
            "policy",
            "policy_name",
            "workload",
            "requests",
            "finished",
            "completion_ratio",
            "ttft_p50",
            "tpot_p50",
            "throughput_tokens_per_s",
            "slo_scale",
            "slo_violation_ratio",
            "slo_attainment",
            "wall_s",
        }
        assert set(SCALE_KEYS) == {"name", "num_instances", "trace_duration_s", "drain_timeout_s"}

    def test_validate_document_flags_missing_keys(self):
        assert validate_document(GRID, {}) != []

    def test_pre_cache_v1_documents_stay_valid(self):
        # cache_hits/cache_misses are additive: a v1 document written
        # before they existed must still validate.
        document = run_grid(
            GRID, scenarios=["steady-poisson"], policies=["vllm"],
            scale=TINY_SCALE, seed=2, max_workers=1,
        )
        legacy = {
            k: v for k, v in document.items()
            if k not in ("cache_hits", "cache_misses")
        }
        assert validate_document(GRID, legacy) == []

    def test_strip_wall_clock_removes_only_wall_clock(self):
        document = {
            "schema_version": 1,
            "wall_s_total": 3.2,
            "entries": [{"scenario": "x", "wall_s": 1.0, "ttft_p50": 0.5}],
        }
        stripped = strip_wall_clock(document)
        assert "wall_s_total" not in stripped
        assert "wall_s" not in stripped["entries"][0]
        assert stripped["entries"][0]["ttft_p50"] == 0.5
        assert document["wall_s_total"] == 3.2  # original untouched


class TestSweep:
    GRID = dict(scenarios=["steady-poisson", "spike-train"], policies=["vllm", "kunserve"])

    def test_sequential_sweep_emits_valid_document(self, tmp_path):
        document = run_grid(GRID, scale=TINY_SCALE, seed=2, max_workers=1, **self.GRID)
        assert validate_document(GRID, document) == []
        assert len(document["entries"]) == 4
        assert document["scenarios"] == self.GRID["scenarios"]
        for entry in document["entries"]:
            assert entry["requests"] > 0
            assert 0.0 <= entry["slo_violation_ratio"] <= 1.0
            assert entry["slo_attainment"] == pytest.approx(
                1.0 - entry["slo_violation_ratio"]
            )

        path = write_results(GRID, document, tmp_path / "SCENARIO_results.json")
        reloaded = json.loads(path.read_text())
        assert validate_document(GRID, reloaded) == []
        assert reloaded == document

        text = format_results(GRID, document)
        assert "spike-train" in text
        assert "kunserve" in text

    def test_sweep_is_deterministic_modulo_wall_clock(self):
        first = run_grid(GRID, scale=TINY_SCALE, seed=2, max_workers=1, **self.GRID)
        second = run_grid(GRID, scale=TINY_SCALE, seed=2, max_workers=1, **self.GRID)
        assert strip_wall_clock(first) == strip_wall_clock(second)

    def test_parallel_sweep_matches_sequential(self):
        sequential = run_grid(GRID, scale=TINY_SCALE, seed=2, max_workers=1, **self.GRID)
        parallel = run_grid(GRID, scale=TINY_SCALE, seed=2, max_workers=2, **self.GRID)
        assert strip_wall_clock(parallel) == strip_wall_clock(sequential)

    def test_unknown_scenario_or_empty_grid_is_rejected(self):
        with pytest.raises(KeyError):
            run_grid(GRID, scenarios=["nope"], scale=TINY_SCALE)
        with pytest.raises(ValueError):
            run_grid(GRID, scenarios=["steady-poisson"], policies=(), scale=TINY_SCALE)
        with pytest.raises(ValueError):
            run_grid(GRID, scenarios=["steady-poisson"], scale=TINY_SCALE, max_workers=0)

    def test_warm_rerun_is_served_from_cache_and_identical(self, tmp_path):
        cold = run_grid(
            GRID, scale=TINY_SCALE, seed=2, max_workers=1,
            use_cache=True, cache_dir=tmp_path, **self.GRID,
        )
        warm = run_grid(
            GRID, scale=TINY_SCALE, seed=2, max_workers=1,
            use_cache=True, cache_dir=tmp_path, **self.GRID,
        )
        assert cold["cache_hits"] == 0 and cold["cache_misses"] == 4
        assert warm["cache_hits"] == 4 and warm["cache_misses"] == 0
        assert strip_wall_clock(warm) == strip_wall_clock(cold)
        # ...and identical to an uncached sweep of the same grid.
        plain = run_grid(GRID, scale=TINY_SCALE, seed=2, max_workers=1, **self.GRID)
        assert strip_wall_clock(plain) == strip_wall_clock(cold)

    def test_seed_change_invalidates_cache(self, tmp_path):
        run_grid(
            GRID, scale=TINY_SCALE, seed=2, max_workers=1,
            use_cache=True, cache_dir=tmp_path, **self.GRID,
        )
        other_seed = run_grid(
            GRID, scale=TINY_SCALE, seed=3, max_workers=1,
            use_cache=True, cache_dir=tmp_path, **self.GRID,
        )
        assert other_seed["cache_hits"] == 0

    def test_default_policies_honour_per_scenario_sets(self, monkeypatch):
        narrow = dataclasses.replace(
            get_scenario("steady-poisson"),
            name="narrow-policies",
            policies=("vllm",),
        )
        monkeypatch.setitem(registry_module._REGISTRY, narrow.name, narrow)
        document = run_grid(
            GRID, scenarios=["narrow-policies"], scale=TINY_SCALE, seed=2, max_workers=1
        )
        assert [e["policy"] for e in document["entries"]] == ["vllm"]
        assert document["policies"] == ["vllm"]
