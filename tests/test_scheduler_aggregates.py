"""Differential tests for the scheduler's incremental demand aggregates.

``ContinuousBatchingScheduler`` answers demand queries from aggregates it
updates on state transitions (queued demand, the FCFS list of running
requests still prefilling) instead of rescanning its queues.  These tests
compare every answer against the full rescan in
:func:`tests.invariants.assert_scheduler_aggregates`: once over random
operation sequences on bare schedulers, and once on every query of whole
simulations whose runs fire each mechanism that moves requests between
queues — recompute preemption, swap, migration, KunServe drop / KV
exchange / restore, autoscaler drains, instance failures and cluster
outages.  Every batch formed along the way also has its decode summary
checked against its chunks (:func:`tests.invariants.assert_decode_summary`).
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos.sweep import run_chaos_cell
from repro.engine.request import Request
from repro.engine.scheduler import (
    ContinuousBatchingScheduler,
    PreemptionMode,
    SchedulerConfig,
)
from repro.experiments.runner import (
    WORKLOAD_PRESETS,
    ExperimentScale,
    run_policy_on_workload,
)
from repro.fleet.config import AutoscalerConfig
from repro.fleet.sweep import run_fleet_cell
from repro.memory.paged_kv import PagedKVCache
from repro.policies import LlumnixPolicy, make_policy

from tests.invariants import assert_decode_summary, assert_scheduler_aggregates
from tests.test_chaos import TINY_SCALE
from tests.test_fleet import build_system

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"

#: The smallest BurstGPT replay found on which every policy's mechanism
#: fires: vLLM preempts, InferCept swaps, an eager Llumnix migrates and
#: KunServe drops parameters, exchanges KV and restores.  The tests
#: assert each mechanism, so a scale that stops firing one fails loudly.
BURST_SCALE = ExperimentScale(
    name="aggregates", num_instances=2, trace_duration_s=15.0,
    drain_timeout_s=45.0, rate_fraction=2.5,
)


@pytest.fixture
def checked_queries(monkeypatch):
    """Check every ``total_demand_tokens`` query against the rescan, and
    every formed batch's decode summary against its chunks."""
    seen = {"queries": 0, "with_swapped": 0, "decode_batches": 0}
    original = ContinuousBatchingScheduler.total_demand_tokens
    original_form = ContinuousBatchingScheduler.form_batch

    def checked(self):
        total = original(self)
        assert_scheduler_aggregates(self, total)
        seen["queries"] += 1
        seen["with_swapped"] += bool(self.swapped)
        return total

    def checked_form(self, now):
        batch = original_form(self, now)
        assert_decode_summary(batch)
        seen["decode_batches"] += batch.decode_count > 0
        return batch

    monkeypatch.setattr(ContinuousBatchingScheduler, "total_demand_tokens", checked)
    monkeypatch.setattr(ContinuousBatchingScheduler, "form_batch", checked_form)
    return seen


def run_burst(policy):
    return run_policy_on_workload(
        policy, WORKLOAD_PRESETS["burstgpt-14b"], BURST_SCALE, seed=1
    )


class TestSystemRuns:
    def test_vllm_recompute_preemption(self, checked_queries):
        result = run_burst(make_policy("vllm"))
        assert sum(r.preemption_count for r in result.records) > 0
        assert checked_queries["queries"] > 1000
        assert checked_queries["decode_batches"] > 1000

    def test_infercept_swap(self, checked_queries):
        run_burst(make_policy("infercept"))
        assert checked_queries["with_swapped"] > 0

    def test_llumnix_migration(self, checked_queries):
        policy = LlumnixPolicy(migrate_out_threshold=0.6, migrate_in_threshold=0.6)
        run_burst(policy)
        assert policy.migrations_performed > 0
        assert checked_queries["queries"] > 1000

    def test_kunserve_drop_exchange_and_restore(self, checked_queries):
        result = run_burst(make_policy("kunserve"))
        kinds = {event["kind"] for event in result.metrics.events}
        assert {"drop", "restore_end"} <= kinds
        assert checked_queries["queries"] > 1000

    def test_fleet_elastic_instance_kill(self, checked_queries):
        cell = run_fleet_cell(
            "spike-train", "vllm", "least_loaded", "elastic", TINY_SCALE,
            seed=2, faults="instance-kill",
        )
        assert cell.fault_events == 1
        assert checked_queries["queries"] > 0

    @pytest.mark.parametrize("migration", ["sticky", "migrate"])
    def test_chaos_cluster_outage(self, checked_queries, migration):
        cell = run_chaos_cell(
            "steady-poisson", "vllm", "cluster-outage", migration, TINY_SCALE, seed=1
        )
        assert cell.requests > 0
        assert checked_queries["queries"] > 0

    def test_fault_tolerance_demo(self, checked_queries, capsys):
        runpy.run_path(str(EXAMPLES / "fault_tolerance_demo.py"), run_name="__main__")
        assert "despite the failure" in capsys.readouterr().out
        assert checked_queries["queries"] > 0

    def test_autoscaler_rehomes_a_draining_queue(self, checked_queries):
        system = build_system(
            num_servers=2, autoscaler=AutoscalerConfig(enabled=True, min_groups=1)
        )
        draining, other = system.groups
        for index in range(5):
            draining.enqueue(Request(arrival_time=0.0, prompt_tokens=100 + index,
                                     max_output_tokens=4))
        assert draining.scheduler.queued_demand_tokens() == 510
        autoscaler = system.fleet.autoscaler
        autoscaler.draining.append(draining)
        autoscaler._rehome_waiting(draining)
        assert draining.scheduler.num_waiting == 0
        assert draining.scheduler.queued_demand_tokens() == 0
        assert other.scheduler.queued_demand_tokens() == 510
        for group in system.groups:
            group.scheduler.total_demand_tokens()
        assert checked_queries["queries"] >= 2


# ----------------------------------------------------------------------
# Random operation sequences on a pair of bare schedulers
# ----------------------------------------------------------------------
OPS = st.lists(
    st.tuples(
        st.sampled_from(["arrive", "arrive_front", "step", "step_migrating",
                         "pop", "remove", "swap_in"]),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=10**6),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(ops=OPS, swap=st.booleans(), budget=st.sampled_from([16, 48, 256]))
def test_random_transitions_keep_aggregates(ops, swap, budget):
    """Every transition, including a request migrating away while an
    iteration that scheduled it is in flight, keeps both schedulers'
    aggregates equal to the rescan."""
    mode = PreemptionMode.SWAP if swap else PreemptionMode.RECOMPUTE
    schedulers = [
        ContinuousBatchingScheduler(
            PagedKVCache(num_blocks=12, block_size=8),
            SchedulerConfig(token_budget=budget, preemption_mode=mode),
        )
        for _ in range(2)
    ]
    now = 0.0
    for op, index, pick in ops:
        scheduler, other = schedulers[index], schedulers[1 - index]
        if op in ("arrive", "arrive_front"):
            request = Request(arrival_time=now, prompt_tokens=1 + pick % 60,
                              max_output_tokens=1 + pick % 7)
            scheduler.add_request(request, front=op == "arrive_front")
        elif op in ("step", "step_migrating"):
            batch = scheduler.form_batch(now)
            assert_decode_summary(batch)
            now += 0.1
            if op == "step_migrating" and scheduler.running:
                mover = scheduler.running[pick % len(scheduler.running)]
                tokens = scheduler.kv.tokens_of(mover.request_id)
                if other.kv.can_allocate(mover.request_id, tokens):
                    scheduler.remove_request(mover)
                    other.add_running(mover, tokens)
            scheduler.complete_batch(batch, now)
        elif op == "pop" and scheduler.waiting:
            other.add_request(scheduler.pop_waiting())
        elif op == "remove":
            queued = list(scheduler.waiting) + scheduler.swapped + scheduler.running
            if queued:
                scheduler.remove_request(queued[pick % len(queued)])
        elif op == "swap_in":
            scheduler._try_swap_in(now)
        for each in schedulers:
            assert_scheduler_aggregates(each)
