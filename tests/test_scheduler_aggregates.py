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
and counts checked against its chunks
(:func:`tests.invariants.assert_decode_summary`), and every parameter
drop, restore and group KV resize has the instances' chunk accounting
and the group's KV block count checked
(:func:`tests.invariants.assert_memory_conservation`,
:func:`tests.invariants.assert_group_kv_capacity`).  The same replay also
checks that per-request results do not depend on how the interpreter's
builtin ``sum`` adds floats.
"""

from __future__ import annotations

import builtins
import functools
import math
import operator
import runpy
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos.sweep import run_chaos_cell
from repro.engine.group import ServingGroup
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
from repro.memory.unified import UnifiedMemoryManager
from repro.policies import LlumnixPolicy, make_policy

from tests.invariants import (
    assert_decode_summary,
    assert_group_kv_capacity,
    assert_memory_conservation,
    assert_scheduler_aggregates,
)
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
    """Check every ``total_demand_tokens`` query against the rescan, every
    formed batch's decode summary, token count and request count against
    its chunks, and the memory oracles after every parameter drop, restore
    and group KV resize."""
    seen = {"queries": 0, "with_swapped": 0, "decode_batches": 0,
            "memory_checks": 0, "kv_syncs": 0}
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

    def checked_memory(method):
        @functools.wraps(method)
        def run(self, layers):
            result = method(self, layers)
            assert_memory_conservation(self)
            seen["memory_checks"] += 1
            return result
        return run

    original_sync = ServingGroup.sync_kv_capacity

    def checked_sync(self):
        original_sync(self)
        for instance in self.instances:
            assert_memory_conservation(instance.memory)
        assert_group_kv_capacity(self)
        seen["kv_syncs"] += 1

    monkeypatch.setattr(ContinuousBatchingScheduler, "total_demand_tokens", checked)
    monkeypatch.setattr(ContinuousBatchingScheduler, "form_batch", checked_form)
    for name in ("drop_layers", "restore_layers"):
        method = getattr(UnifiedMemoryManager, name)
        monkeypatch.setattr(UnifiedMemoryManager, name, checked_memory(method))
    monkeypatch.setattr(ServingGroup, "sync_kv_capacity", checked_sync)
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
        assert checked_queries["memory_checks"] > 0
        assert checked_queries["kv_syncs"] > 0

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


def adds_floats(items, start):
    """Is this ``sum`` call the case Python 3.12 changed: floats after an
    int start?"""
    return bool(items) and type(start) is int and all(type(x) is float for x in items)


def left_to_right_sum(iterable, start=0):
    """Python 3.11's builtin ``sum`` for floats: plain additions in order."""
    items = list(iterable)
    if not adds_floats(items, start):
        return builtin_sum(items, start)
    return functools.reduce(operator.add, items, start)


def compensated_sum(iterable, start=0):
    """Python 3.12's builtin ``sum`` for floats: the first float is added
    to the int start plainly, the rest with Neumaier compensation."""
    items = list(iterable)
    if not adds_floats(items, start):
        return builtin_sum(items, start)
    total = start + items[0]
    compensation = 0.0
    for x in items[1:]:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


builtin_sum = builtins.sum


def test_results_do_not_depend_on_the_interpreter_sum(monkeypatch):
    """The vLLM replay gives the same TTFT, mean TPOT and finish time per
    request whether ``sum`` adds floats left to right (Python 3.11 and
    earlier) or with compensation (3.12 on)."""
    assert left_to_right_sum([1.0, 1e100, 1.0, -1e100]) == 0.0
    assert compensated_sum([1.0, 1e100, 1.0, -1e100]) == 2.0

    def outcomes(sum_port):
        monkeypatch.setattr(builtins, "sum", sum_port)
        return [(r.arrival_time, r.ttft, r.mean_tpot, r.finish_time)
                for r in run_burst(make_policy("vllm")).records]

    plain = outcomes(left_to_right_sum)
    assert len(plain) > 800
    assert len([r for r in plain if r[2] is not None]) > 800
    assert outcomes(compensated_sum) == plain


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


def step(scheduler, now):
    """Form, check and complete one iteration of ``scheduler``."""
    batch = scheduler.form_batch(now)
    assert_decode_summary(batch)
    scheduler.complete_batch(batch, now + 0.1)
    return batch


@settings(max_examples=60, deadline=None)
@given(ops=OPS, swap=st.booleans(), budget=st.sampled_from([16, 48, 256]))
def test_random_transitions_keep_aggregates(ops, swap, budget):
    """Every transition, including a request migrating away while an
    iteration that scheduled it is in flight, keeps both schedulers'
    aggregates equal to the rescan; stepping both schedulers until idle
    then finishes every request that arrived and was not removed, except
    those held by a scheduler that one of the two known gaps pinned below
    wedges."""
    mode = PreemptionMode.SWAP if swap else PreemptionMode.RECOMPUTE
    schedulers = [
        ContinuousBatchingScheduler(
            PagedKVCache(num_blocks=12, block_size=8),
            SchedulerConfig(token_budget=budget, preemption_mode=mode),
        )
        for _ in range(2)
    ]
    admitted = []
    removed = set()
    # Requests ``step_migrating`` moved while their old owner's batch was
    # in flight, and those of them that batch then finished.
    adopted = set()
    finished_by_old_owner = set()
    now = 0.0
    for op, index, pick in ops:
        scheduler, other = schedulers[index], schedulers[1 - index]
        if op in ("arrive", "arrive_front"):
            request = Request(arrival_time=now, prompt_tokens=1 + pick % 60,
                              max_output_tokens=1 + pick % 7)
            scheduler.add_request(request, front=op == "arrive_front")
            admitted.append(request)
        elif op in ("step", "step_migrating"):
            batch = scheduler.form_batch(now)
            assert_decode_summary(batch)
            now += 0.1
            moved = None
            if op == "step_migrating" and scheduler.running:
                mover = scheduler.running[pick % len(scheduler.running)]
                tokens = scheduler.kv.tokens_of(mover.request_id)
                if other.kv.can_allocate(mover.request_id, tokens):
                    scheduler.remove_request(mover)
                    other.add_running(mover, tokens)
                    adopted.add(mover.request_id)
                    moved = mover
            scheduler.complete_batch(batch, now)
            if moved is not None and moved.finished:
                finished_by_old_owner.add(moved.request_id)
        elif op == "pop" and scheduler.waiting:
            other.add_request(scheduler.pop_waiting())
        elif op == "remove":
            queued = list(scheduler.waiting) + scheduler.swapped + scheduler.running
            if queued:
                victim = queued[pick % len(queued)]
                scheduler.remove_request(victim)
                removed.add(victim.request_id)
        elif op == "swap_in":
            scheduler._try_swap_in(now)
        for each in schedulers:
            assert_scheduler_aggregates(each)
    # Drain: step both schedulers until neither forms a batch.
    busy = True
    while busy:
        busy = False
        for scheduler in schedulers:
            busy |= not step(scheduler, now).empty
            now += 0.1
            assert_scheduler_aggregates(scheduler)
    # An idle scheduler has decoded every running request whose prefill is
    # done (or preempted it); one stranded in a list the decode pass never
    # walks would be left here.
    for scheduler in schedulers:
        for request in scheduler.running:
            assert request.finished or not request.prefill_done, (
                f"request {request.request_id} finished its prefill but was never decoded"
            )
    # What the drain leaves is explained by the two known gaps pinned
    # below.  (1) A request its previous owner's in-flight iteration
    # finished stays in the new owner's running set, holding its KV; any
    # other finished request still running was never released.  (2)
    # Running prefills never preempt, so an adopted mid-prefill request
    # (its KV arrives without admission's memory check) and another
    # prefill can fill the cache and stall each other.  Only a scheduler
    # holding one of the two may keep unfinished requests.
    excused = set()
    for scheduler in schedulers:
        held_finished = {r.request_id for r in scheduler.running if r.finished}
        assert held_finished <= finished_by_old_owner, (
            f"finished requests {sorted(held_finished - finished_by_old_owner)} "
            "were never released"
        )
        stalled = {r.request_id for r in scheduler.running if not r.finished}
        if held_finished or (len(stalled) >= 2 and stalled & adopted):
            excused |= stalled | {r.request_id for r in scheduler.waiting}
            excused |= {r.request_id for r in scheduler.swapped}
    unfinished = [
        (r.request_id, r.state.value, r.output_tokens, r.max_output_tokens)
        for r in admitted
        if not r.finished and r.request_id not in removed | excused
    ]
    assert not unfinished, f"requests left unfinished after the drain: {unfinished}"


def two_schedulers():
    return [
        ContinuousBatchingScheduler(
            PagedKVCache(num_blocks=12, block_size=8), SchedulerConfig(token_budget=48)
        )
        for _ in range(2)
    ]


def test_prefill_finished_by_the_previous_owner_still_decodes():
    """A request adopted mid-prefill whose prefill the previous owner's
    in-flight iteration then finishes must join the new owner's decoding
    list, or it stops after its first token."""
    a, b = two_schedulers()
    request = Request(arrival_time=0.0, prompt_tokens=10, max_output_tokens=4)
    a.add_request(request)
    batch = a.form_batch(0.0)
    assert [(c.request, c.new_tokens) for c in batch.chunks] == [(request, 10)]
    tokens = a.kv.tokens_of(request.request_id)
    a.remove_request(request)
    b.add_running(request, tokens)
    a.complete_batch(batch, 0.1)
    assert request.prefill_done and request.output_tokens == 1
    assert_scheduler_aggregates(b)
    now = 0.1
    for _ in range(5):
        step(b, now)
        assert_scheduler_aggregates(b)
        now += 0.1
    assert request.finished and request.output_tokens == 4
    assert b.num_running == 0 and b.kv.used_tokens == 0


@pytest.mark.xfail(strict=True, reason="known gap: the new owner never releases "
                   "a request its previous owner's in-flight iteration finished")
def test_request_finished_by_the_previous_owner_is_released():
    a, b = two_schedulers()
    request = Request(arrival_time=0.0, prompt_tokens=10, max_output_tokens=1)
    a.add_request(request)
    batch = a.form_batch(0.0)
    tokens = a.kv.tokens_of(request.request_id)
    a.remove_request(request)
    b.add_running(request, tokens)
    assert a.complete_batch(batch, 0.1) == [request]
    step(b, 0.1)
    assert b.num_running == 0 and b.kv.used_tokens == 0


@pytest.mark.xfail(strict=True, reason="known gap: running prefills never preempt, "
                   "so two adopted mid-prefill requests that fill the cache stall")
def test_adopted_prefills_that_fill_the_cache_finish():
    a, b = two_schedulers()
    requests = [Request(arrival_time=0.0, prompt_tokens=49, max_output_tokens=1)
                for _ in range(2)]
    for request in requests:
        a.add_request(request)
        batch = a.form_batch(0.0)
        assert batch.chunks[0].new_tokens == 48
        b.add_running(request, a.remove_request(request))
        a.complete_batch(batch, 0.1)
    assert b.kv.free_blocks == 0
    now = 0.1
    for _ in range(10):
        step(b, now)
        now += 0.1
    assert all(request.finished for request in requests)
