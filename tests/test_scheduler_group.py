"""Tests for the continuous-batching scheduler and serving groups."""

from __future__ import annotations

import pytest

from repro.engine.group import ServingGroup
from repro.engine.instance import ServingInstance
from repro.engine.metrics import MetricsCollector
from repro.engine.pipeline import PipelineExecution
from repro.engine.request import Request, RequestState
from repro.engine.scheduler import (
    ContinuousBatchingScheduler,
    PreemptionMode,
    SchedulerConfig,
)
from repro.memory.paged_kv import KV_BLOCK_SIZE, PagedKVCache
from repro.models.catalog import QWEN_2_5_14B


def make_scheduler(num_blocks=100, block_size=16, **config_kwargs):
    cache = PagedKVCache(num_blocks=num_blocks, block_size=block_size)
    return ContinuousBatchingScheduler(cache, SchedulerConfig(**config_kwargs))


def make_request(prompt=64, output=8, arrival=0.0):
    return Request(arrival_time=arrival, prompt_tokens=prompt, max_output_tokens=output)


class TestSchedulerBasics:
    def test_admission_and_prefill_chunking(self):
        scheduler = make_scheduler(token_budget=128)
        request = make_request(prompt=300)
        scheduler.add_request(request)
        batch = scheduler.form_batch(0.0)
        assert batch.total_new_tokens == 128
        assert request.state is RequestState.RUNNING
        scheduler.complete_batch(batch, 0.1)
        assert request.prefill_progress == 128

    def test_prefill_completion_emits_first_token(self):
        scheduler = make_scheduler(token_budget=512)
        request = make_request(prompt=100, output=2)
        scheduler.add_request(request)
        batch = scheduler.form_batch(0.0)
        scheduler.complete_batch(batch, 0.2)
        assert request.output_tokens == 1
        assert request.ttft == pytest.approx(0.2)

    def test_decode_progresses_one_token_per_iteration(self):
        scheduler = make_scheduler(token_budget=512)
        request = make_request(prompt=32, output=3)
        scheduler.add_request(request)
        scheduler.complete_batch(scheduler.form_batch(0.0), 0.1)
        scheduler.complete_batch(scheduler.form_batch(0.1), 0.2)
        scheduler.complete_batch(scheduler.form_batch(0.2), 0.3)
        assert request.finished
        assert request.output_tokens == 3
        # Finished requests release their KV blocks.
        assert scheduler.kv.used_blocks == 0
        assert scheduler.num_running == 0

    def test_fcfs_admission_order(self):
        scheduler = make_scheduler(token_budget=64)
        first = make_request(prompt=64, arrival=0.0)
        second = make_request(prompt=64, arrival=1.0)
        scheduler.add_request(first)
        scheduler.add_request(second)
        batch = scheduler.form_batch(2.0)
        assert [c.request for c in batch.chunks] == [first]

    def test_head_of_line_blocking_sets_memory_blocked(self):
        scheduler = make_scheduler(num_blocks=4, block_size=16, token_budget=512)
        big = make_request(prompt=200)
        scheduler.add_request(big)
        scheduler.form_batch(0.0)
        waiting = make_request(prompt=200, arrival=1.0)
        scheduler.add_request(waiting)
        batch = scheduler.form_batch(1.0)
        assert scheduler.memory_blocked
        assert waiting.state is RequestState.QUEUED

    def test_stalled_requests_skipped(self):
        scheduler = make_scheduler()
        request = make_request(prompt=32)
        request.stall_until = 5.0
        scheduler.add_request(request)
        assert scheduler.form_batch(0.0).empty
        assert scheduler.next_stall_expiry(0.0) == 5.0
        assert not scheduler.form_batch(5.0).empty

    def test_max_running_limit(self):
        scheduler = make_scheduler(token_budget=512, max_running_requests=1)
        scheduler.add_request(make_request(prompt=32))
        scheduler.add_request(make_request(prompt=32, arrival=0.1))
        batch = scheduler.form_batch(1.0)
        assert batch.num_requests == 1
        assert scheduler.num_running == 1

    def test_demand_accounting(self):
        scheduler = make_scheduler(token_budget=64)
        scheduler.add_request(make_request(prompt=100))
        assert scheduler.queued_demand_tokens() == 100
        scheduler.form_batch(0.0)
        assert scheduler.used_kv_tokens() == 64
        assert scheduler.total_demand_tokens() == 100  # 64 used + 36 still queued

    def test_front_enqueue_and_pop_waiting(self):
        scheduler = make_scheduler()
        first, second, urgent = make_request(prompt=10), make_request(prompt=20), make_request(prompt=30)
        scheduler.add_request(first)
        scheduler.add_request(second)
        scheduler.add_request(urgent, front=True)
        assert list(scheduler.waiting) == [urgent, first, second]
        assert scheduler.queued_demand_tokens() == 60
        assert scheduler.pop_waiting() is urgent
        assert scheduler.queued_demand_tokens() == 30

    def test_remove_request(self):
        scheduler = make_scheduler()
        request = make_request(prompt=32)
        scheduler.add_request(request)
        scheduler.form_batch(0.0)
        freed = scheduler.remove_request(request)
        assert freed == 32
        assert scheduler.num_running == 0


class TestPreemption:
    def test_recompute_preempts_latest_request(self):
        scheduler = make_scheduler(num_blocks=6, block_size=16, token_budget=512)
        early = make_request(prompt=60, output=20, arrival=0.0)
        late = make_request(prompt=30, output=20, arrival=1.0)
        scheduler.add_request(early)
        scheduler.add_request(late)
        scheduler.complete_batch(scheduler.form_batch(1.0), 1.1)
        # Fill remaining blocks so decode growth forces a preemption.
        now = 1.1
        for _ in range(40):
            batch = scheduler.form_batch(now)
            if scheduler.preemption_count >= 1:
                break
            if batch.empty:
                break
            now += 0.1
            scheduler.complete_batch(batch, now)
        assert scheduler.preemption_count >= 1
        # The later-arrived request is the victim, never the earlier one.
        assert late.preemption_count >= 1
        assert early.preemption_count == 0
        assert late.prefill_target >= late.prompt_tokens

    def test_swap_mode_moves_victim_to_swapped(self):
        scheduler = make_scheduler(
            num_blocks=6, block_size=16, token_budget=512, preemption_mode=PreemptionMode.SWAP
        )
        early = make_request(prompt=60, output=30, arrival=0.0)
        late = make_request(prompt=30, output=30, arrival=1.0)
        scheduler.add_request(early)
        scheduler.add_request(late)
        now = 1.0
        for _ in range(40):
            batch = scheduler.form_batch(now)
            if scheduler.swap_out_count >= 1:
                break
            if batch.empty:
                break
            now += 0.1
            scheduler.complete_batch(batch, now)
        assert scheduler.swap_out_count >= 1

    def test_swap_in_when_memory_frees(self):
        scheduler = make_scheduler(
            num_blocks=10, block_size=16, token_budget=512, preemption_mode=PreemptionMode.SWAP
        )
        victim = make_request(prompt=60, output=5)
        scheduler.add_request(victim)
        scheduler.complete_batch(scheduler.form_batch(0.0), 0.1)
        scheduler._preempt(victim, 0.2)
        assert victim in scheduler.swapped
        scheduler._try_swap_in(1.0)
        assert victim in scheduler.running
        assert scheduler.kv.tokens_of(victim.request_id) >= victim.context_tokens


def build_group(instances, loop, fabric, metrics, assignment=None, **sched_kwargs):
    return ServingGroup(
        group_id=0,
        instances=instances,
        model=QWEN_2_5_14B,
        loop=loop,
        fabric=fabric,
        metrics=metrics,
        scheduler_config=SchedulerConfig(**sched_kwargs) if sched_kwargs else None,
        assignment=assignment,
    )


class TestServingGroup:
    def test_single_instance_serves_requests(self, loop, small_cluster, metrics, two_instances):
        group = build_group([two_instances[0]], loop, small_cluster.fabric, metrics)
        for _ in range(5):
            group.enqueue(Request(arrival_time=0.0, prompt_tokens=200, max_output_tokens=10))
        loop.run(until=60)
        assert metrics.finished_count() == 5
        assert metrics.ttft_percentile(99) > 0
        assert group.kv_used_tokens() == 0

    def test_group_kv_capacity_matches_instances(self, loop, small_cluster, metrics, two_instances):
        group = build_group([two_instances[0]], loop, small_cluster.fabric, metrics)
        expected = two_instances[0].kv_capacity_bytes // (KV_BLOCK_SIZE * group._kv_token_bytes)
        assert group.kv.num_blocks == expected

    def test_pipelined_group_serves_requests(self, loop, small_cluster, metrics):
        instances = []
        ranges = PipelineExecution.layer_ranges(48, 2)
        for index, gpus in enumerate(small_cluster.gpu_groups(1)):
            instance = ServingInstance(index, QWEN_2_5_14B, gpus)
            instance.load_layers(list(ranges[index]))
            instances.append(instance)
        group = build_group(
            instances, loop, small_cluster.fabric, metrics, assignment=[list(r) for r in ranges]
        )
        assert group.num_stages == 2
        passes = []
        group.iteration_listeners.append(lambda g, batch, end: passes.append(end))
        for _ in range(6):
            group.enqueue(Request(arrival_time=0.0, prompt_tokens=500, max_output_tokens=10))
        loop.run(until=60)
        assert metrics.finished_count() == 6
        # Every pipelined pass records its bubble fraction.
        assert len(metrics.bubble_fractions) == len(passes) > 0
        assert all(0.0 <= bubble < 1.0 for bubble in metrics.bubble_fractions)
        assert metrics.mean_bubble_fraction() > 0.0

    def test_assignment_must_cover_model(self, loop, small_cluster, metrics, two_instances):
        with pytest.raises(ValueError):
            build_group(
                two_instances, loop, small_cluster.fabric, metrics, assignment=[[0, 1], [2, 3]]
            )

    def test_deactivate_stops_serving(self, loop, small_cluster, metrics, two_instances):
        group = build_group([two_instances[0]], loop, small_cluster.fabric, metrics)
        completed = []
        group.iteration_listeners.append(lambda g, batch, end: completed.append(end))
        request = Request(arrival_time=0.0, prompt_tokens=100, max_output_tokens=50)
        group.enqueue(request)
        loop.run(max_events=3)
        assert completed and not request.finished
        passes = len(completed)
        group.deactivate()
        assert not group.active
        loop.run(until=loop.now + 10)
        # No pass of a retired group completes, the one in flight included.
        assert len(completed) == passes
        assert not request.finished

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: kick() returns while a stall-expiry wake-up is pending, "
        "so work enqueued on an idle group waits for that wake-up",
    )
    def test_enqueue_on_a_stalled_idle_group_runs_at_once(
        self, loop, small_cluster, metrics, two_instances
    ):
        group = build_group([two_instances[0]], loop, small_cluster.fabric, metrics)
        stalled = Request(arrival_time=0.0, prompt_tokens=64, max_output_tokens=1000)
        group.enqueue(stalled)
        # The group's only request stalls until t = 5 s, so the group idles
        # with a wake-up at 5 s; a fresh request arrives at t = 1 s.
        loop.schedule_at(0.1, lambda: group.stall_request(stalled, 5.0))
        fresh = Request(arrival_time=1.0, prompt_tokens=64, max_output_tokens=4)
        loop.schedule_at(1.0, lambda: group.enqueue(fresh))
        loop.run(until=6.0)
        assert fresh.ttft is not None
        # Its prefill alone takes about 20 ms; it waits for the 5 s wake-up.
        assert fresh.ttft < 0.5

    def test_migration_between_groups(self, loop, small_cluster, metrics, two_instances):
        source = build_group([two_instances[0]], loop, small_cluster.fabric, metrics)
        destination = ServingGroup(
            group_id=1,
            instances=[two_instances[1]],
            model=QWEN_2_5_14B,
            loop=loop,
            fabric=small_cluster.fabric,
            metrics=metrics,
        )
        request = Request(arrival_time=0.0, prompt_tokens=200, max_output_tokens=100)
        source.enqueue(request)
        loop.run(max_events=4)
        assert request in source.scheduler.running
        assert source.migrate_request_to(request, destination)
        assert request in destination.scheduler.running
        assert request not in source.scheduler.running
        assert request.migration_count == 1
        loop.run(until=loop.now + 120)
        assert request.finished

    def test_load_snapshot_fields(self, loop, small_cluster, metrics, two_instances):
        group = build_group([two_instances[0]], loop, small_cluster.fabric, metrics)
        snapshot = group.load_snapshot()
        for key in ("kv_capacity_bytes", "kv_used_bytes", "kv_demand_bytes", "num_running"):
            assert key in snapshot

    def test_sync_kv_capacity_grows_after_drop(self, loop, small_cluster, metrics, two_instances):
        group = build_group([two_instances[0]], loop, small_cluster.fabric, metrics)
        before = group.kv.num_blocks
        two_instances[0].memory.drop_layers(range(24, 48))
        group.sync_kv_capacity()
        assert group.kv.num_blocks > before
