"""Integration tests: policies, the serving system, and the KunServe flow."""

from __future__ import annotations

import pytest

from repro.cluster.specs import cluster_a_spec
from repro.core.fault_tolerance import FaultToleranceManager
from repro.core.global_manager import GlobalMemoryManager
from repro.core.kunserve import RESTORE_COOLDOWN_S, KunServeConfig, KunServeController
from repro.core.kv_exchange import KVExchangeCoordinator
from repro.core.local_manager import LocalMemoryManager
from repro.core.restore import RestoreManager
from repro.engine.request import Request, RequestState
from repro.engine.scheduler import PreemptionMode, SchedulerConfig
from repro.models.catalog import QWEN_2_5_14B
from repro.models.memory import kv_bytes_per_token, param_bytes
from repro.policies import (
    POLICIES,
    InferCeptPolicy,
    KunServePolicy,
    LlumnixPolicy,
    VLLMPolicy,
    make_policy,
)
from repro.serving.config import ServingConfig
from repro.serving.system import ClusterServingSystem
from repro.workloads.burstgpt import burstgpt_arrival_trace
from repro.workloads.datasets import LONGBENCH_DATASET, build_workload
from repro.workloads.trace import TracedRequest, Workload


def build_system(num_instances=2, policy=None, **config_kwargs):
    config = ServingConfig(
        model=QWEN_2_5_14B,
        cluster=cluster_a_spec(num_instances),
        drain_timeout_s=config_kwargs.pop("drain_timeout_s", 60.0),
        **config_kwargs,
    )
    return ClusterServingSystem(config, policy if policy is not None else VLLMPolicy())


def small_workload(num_requests=10, prompt=400, output=20):
    return Workload(
        name="unit",
        requests=[
            TracedRequest(arrival_time=0.1 * i, prompt_tokens=prompt, output_tokens=output)
            for i in range(num_requests)
        ],
    )


class TestPolicies:
    def test_policy_registry(self):
        assert isinstance(make_policy("vllm"), VLLMPolicy)
        assert isinstance(make_policy("kunserve"), KunServePolicy)
        assert isinstance(make_policy("infercept"), InferCeptPolicy)
        assert isinstance(make_policy("llumnix"), LlumnixPolicy)
        assert make_policy("vllm-pp").pp_degree == 2
        with pytest.raises(KeyError):
            make_policy("unknown")

    def test_vllm_dp_layout(self):
        policy = VLLMPolicy()
        assert policy.initial_groups(4) == [[0], [1], [2], [3]]
        assert policy.initial_layer_assignment([0], 48) == [list(range(48))]

    def test_vllm_pp_layout(self):
        policy = VLLMPolicy(pp_degree=2)
        assert policy.initial_groups(4) == [[0, 1], [2, 3]]
        assignment = policy.initial_layer_assignment([0, 1], 48)
        assert [len(a) for a in assignment] == [24, 24]

    @pytest.mark.parametrize("key", sorted(POLICIES))
    def test_scheduler_config_follows_the_policy(self, key):
        """InferCept swaps; every other policy, KunServe's last-resort
        fallback included, recomputes.  Budget and cap pass through."""
        base = SchedulerConfig(token_budget=777, max_running_requests=33)
        config = make_policy(key).scheduler_config(base)
        expected = PreemptionMode.SWAP if key == "infercept" else PreemptionMode.RECOMPUTE
        assert config.preemption_mode is expected
        assert (config.token_budget, config.max_running_requests) == (777, 33)

    def test_llumnix_threshold_validation(self):
        with pytest.raises(ValueError):
            LlumnixPolicy(migrate_out_threshold=0.5, migrate_in_threshold=0.9)


class TestServingSystem:
    def test_builds_one_group_per_instance(self):
        system = build_system(num_instances=2)
        assert len(system.groups) == 2
        assert all(len(g.instances) == 1 for g in system.groups)

    def test_pp_policy_builds_pipeline_groups(self):
        system = build_system(num_instances=2, policy=VLLMPolicy(pp_degree=2))
        assert len(system.groups) == 1
        assert system.groups[0].num_stages == 2
        # Each instance only loaded half the layers.
        assert system.instances[0].num_resident_layers == 24

    def test_dispatcher_least_loaded(self):
        system = build_system(num_instances=2)
        requests = [Request(arrival_time=0.0, prompt_tokens=100, max_output_tokens=5) for _ in range(4)]
        for request in requests:
            system.submit(request)
        owners = {r.owner_group for r in requests}
        assert len(owners) == 2  # spread across both groups

    def test_run_workload_end_to_end(self):
        system = build_system(num_instances=2)
        result = system.run(small_workload(12))
        assert result.submitted_requests == 12
        assert result.finished_requests == 12
        assert result.completion_ratio == 1.0
        assert result.summary["ttft_p50"] > 0
        assert len(result.records) == 12

    def test_unfinished_requests_are_recorded(self):
        # The run ends 0.1 s after the last arrival (at 0.4 s).
        system = build_system(num_instances=1, drain_timeout_s=0.1)
        workload = small_workload(5, prompt=4000, output=400)
        result = system.run(workload)
        assert len(result.records) == 5
        assert result.finished_requests < 5

    def test_monitor_samples_memory(self):
        system = build_system(num_instances=1)
        system.run(small_workload(5))
        assert len(system.metrics.memory_capacity.points()) > 0
        assert system.metrics.memory_capacity.max() > 0


class TestKunServeCore:
    def _overloaded_system(self):
        """A system whose groups have queued demand exceeding capacity."""
        system = build_system(num_instances=2, policy=KunServePolicy())
        kv_tokens = kv_bytes_per_token(QWEN_2_5_14B)
        # Saturate each group with running + queued work.
        for group in list(system.groups):
            capacity = group.kv_capacity_tokens()
            running = Request(arrival_time=0.0, prompt_tokens=int(capacity * 0.7), max_output_tokens=50)
            group.adopt_running(running, int(capacity * 0.7))
            queued = Request(arrival_time=0.1, prompt_tokens=int(capacity * 0.6), max_output_tokens=50)
            group.adopt_waiting(queued)
        return system

    def test_local_manager_drop_and_restore(self, two_instances):
        manager = LocalMemoryManager(two_instances[0])
        outcome = manager.execute_drop(keep_layers=range(0, 24))
        assert outcome.dropped_layers == list(range(24, 48))
        assert outcome.freed_bytes > 0
        assert manager.missing_layers(48) == list(range(24, 48))
        assert manager.can_restore(range(24, 48))
        restore = manager.execute_restore(range(24, 48))
        assert restore.restored_layers == list(range(24, 48))
        assert manager.missing_layers(48) == []

    def test_global_manager_required_bytes(self):
        system = self._overloaded_system()
        exchange = KVExchangeCoordinator(
            system.loop, system.fabric, kv_token_bytes=kv_bytes_per_token(QWEN_2_5_14B)
        )
        manager = GlobalMemoryManager(system, exchange)
        assert manager.required_bytes() > 0

    def test_global_manager_executes_merge(self):
        system = self._overloaded_system()
        exchange = KVExchangeCoordinator(
            system.loop, system.fabric, kv_token_bytes=kv_bytes_per_token(QWEN_2_5_14B)
        )
        manager = GlobalMemoryManager(system, exchange)
        groups_before = len(system.groups)
        report = manager.handle_overload(now=0.0)
        assert report is not None
        assert report.freed_bytes > 0
        assert len(system.groups) < groups_before
        merged = system.groups[0]
        assert merged.num_stages == 2
        # All layers are covered exactly once across the merged group.
        covered = sorted(l for layers in merged.assignment for l in layers)
        assert covered == list(range(48))
        # The merged group's KV capacity exceeds one undropped instance's.
        assert merged.kv_capacity_bytes() > 1.5 * param_bytes(QWEN_2_5_14B)
        # Ongoing requests were scheduled for KV exchange.
        assert report.exchanged_requests >= 1

    def test_exchange_coordinated_vs_uncoordinated_interference(self):
        system = self._overloaded_system()
        kv_tokens = kv_bytes_per_token(QWEN_2_5_14B)
        coordinated = KVExchangeCoordinator(system.loop, system.fabric, kv_token_bytes=kv_tokens)
        uncoordinated = KVExchangeCoordinator(
            system.loop, system.fabric, coordinated=False, kv_token_bytes=kv_tokens
        )
        manager = GlobalMemoryManager(system, coordinated)
        manager.handle_overload(now=0.0)
        merged = system.groups[0]
        moved = [
            (r, merged.kv.tokens_of(r.request_id), merged.instances[0])
            for r in merged.scheduler.running
        ]
        plan = coordinated.plan_for_merge(merged, moved)
        assert coordinated._interference(plan) < uncoordinated._interference(plan)

    def test_controller_drop_on_overload_tick(self):
        system = self._overloaded_system()
        controller = system.policy.controller
        snapshots = [g.load_snapshot() for g in system.groups]
        controller.on_monitor_tick(snapshots, now=1.0)
        assert len(controller.drop_reports) == 1
        assert any(e["kind"] == "drop" for e in system.metrics.events)

    def test_controller_restore_after_load_falls(self):
        system = self._overloaded_system()
        controller = system.policy.controller
        controller.on_monitor_tick([g.load_snapshot() for g in system.groups], now=1.0)
        merged = system.groups[0]
        # Let the post-drop KV exchange finish, then drain the load so usage
        # falls below the restore threshold.
        system.loop.run(until=system.loop.now + 10.0)
        for request in list(merged.scheduler.running) + list(merged.scheduler.waiting):
            merged.scheduler.remove_request(request)
        controller.on_monitor_tick(
            [g.load_snapshot() for g in system.groups],
            now=max(system.loop.now, 1.0 + RESTORE_COOLDOWN_S + 1.0),
        )
        assert controller.restore_manager.restoring_group_ids == [merged.group_id]
        system.loop.run(until=system.loop.now + 120)
        # After the parameter pulls complete the group splits back into two.
        assert len(system.groups) == 2
        assert all(g.num_stages == 1 for g in system.groups)
        assert all(inst.num_resident_layers == 48 for inst in system.instances)

    def test_restore_manager_threshold_validation(self):
        system = build_system(num_instances=2)
        exchange = KVExchangeCoordinator(
            system.loop, system.fabric, kv_token_bytes=kv_bytes_per_token(QWEN_2_5_14B)
        )
        with pytest.raises(ValueError):
            RestoreManager(system, exchange, usage_threshold=0.0)

    def test_kunserve_config_validation(self):
        with pytest.raises(ValueError):
            KunServeConfig(restore_threshold=1.5)

    def test_controller_requires_attach(self):
        controller = KunServeController()
        with pytest.raises(RuntimeError):
            controller.on_monitor_tick([], now=0.0)

    def test_fault_tolerance_recovers_pipeline_group(self):
        system = self._overloaded_system()
        controller = system.policy.controller
        controller.on_monitor_tick([g.load_snapshot() for g in system.groups], now=1.0)
        merged = system.groups[0]
        running_before = len(merged.scheduler.running)
        manager = FaultToleranceManager(system)
        failed = merged.instances[0]
        report = manager.fail_instance(failed)
        assert report.affected_group_id == merged.group_id
        assert not merged.active
        assert report.recomputed_requests == running_before
        # The survivor serves again with a full replica.
        survivors = [g for g in system.groups if g.active]
        assert len(survivors) == 1
        assert survivors[0].instances[0].num_resident_layers == 48

    def test_fault_tolerance_single_instance_group(self):
        system = build_system(num_instances=2)
        manager = FaultToleranceManager(system)
        victim = system.instances[0]
        request = Request(arrival_time=0.0, prompt_tokens=100, max_output_tokens=10)
        system.groups[0].enqueue(request)
        report = manager.fail_instance(victim)
        assert report.requeued_requests + report.recomputed_requests == 1
        assert len([g for g in system.groups if g.active]) == 1

    def test_fault_re_homes_a_swapped_request(self):
        """A kill displaces the dead group's swapped requests with the rest:
        each is re-dispatched, recomputed and finishes on a live group."""
        system = build_system(num_instances=2, policy=InferCeptPolicy())
        group, survivor = system.groups
        capacity = group.kv_capacity_tokens()
        # Two prompts that nearly fill the cache: decoding soon swaps the
        # later one out.
        first = Request(arrival_time=0.0, prompt_tokens=capacity // 2, max_output_tokens=2000)
        second = Request(arrival_time=0.0, prompt_tokens=capacity // 2 - 256, max_output_tokens=2000)
        group.enqueue(first)
        group.enqueue(second)
        horizon = 0.0
        while second not in group.scheduler.swapped:
            horizon += 0.5
            assert horizon < 200.0, "the second request was never swapped out"
            system.loop.run(until=horizon)
        report = FaultToleranceManager(system).fail_instance(group.instances[0])
        assert report.displaced_request_ids == [first.request_id, second.request_id]
        assert report.requeued_requests == 1
        system.loop.run(until=system.loop.now + 300.0)
        assert second.finished
        assert second.owner_group == survivor.group_id


class TestEndToEndOverload:
    @pytest.mark.slow
    def test_kunserve_reduces_tail_ttft_under_burst(self):
        """The headline claim, at miniature scale: under a memory-overloading
        burst KunServe's P99 TTFT is well below vLLM's, at a modest TPOT cost."""
        trace = burstgpt_arrival_trace(duration_s=110, base_rate=2.0, burst_factor=2.4, seed=11)
        workload = build_workload(trace, LONGBENCH_DATASET, seed=11)
        results = {}
        for policy in (VLLMPolicy(), KunServePolicy()):
            config = ServingConfig(
                model=QWEN_2_5_14B,
                cluster=cluster_a_spec(4),
                token_budget=1024,
                drain_timeout_s=110.0,
            )
            system = ClusterServingSystem(config, policy)
            results[policy.name] = system.run(workload)
        vllm = results["vLLM (DP)"]
        kunserve = results["KunServe"]
        assert kunserve.finished_requests == kunserve.submitted_requests
        assert len(kunserve.metrics.events) >= 1  # at least one drop happened
        assert kunserve.summary["ttft_p99"] < vllm.summary["ttft_p99"]
