"""Tests for requests, batches, the latency model, pipeline and metrics."""

from __future__ import annotations

import functools
import math
import operator
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.cluster.specs import A800_80GB, H800_80GB
from repro.engine.batch import IterationBatch, MicroBatch, ScheduledChunk
from repro.core.cost_model import fit_from_latency_model
from repro.core.lookahead import make_lookahead_former
from repro.engine.chunked_prefill import split_into_n_microbatches, token_count_microbatches
from repro.engine.latency_model import LatencyModel
from repro.engine.metrics import (
    MetricsCollector,
    TimelineSeries,
    nearest_rank,
    percentile,
    sorted_percentile,
)
from repro.engine.pipeline import PipelineExecution
from repro.engine.request import Request, RequestState
from repro.engine.scheduler import ContinuousBatchingScheduler
from repro.engine.tensor_parallel import allreduce_time, tp_layer_comm_time
from repro.memory.paged_kv import PagedKVCache
from repro.models.catalog import MODEL_CATALOG, QWEN_2_5_14B, QWEN_2_5_72B
from repro.models.memory import kv_bytes_per_token_per_layer


def make_chunk(prefix=0, tokens=10, prompt=None):
    request = Request(
        arrival_time=0.0,
        prompt_tokens=prompt if prompt is not None else max(1, prefix + tokens),
        max_output_tokens=8,
    )
    return ScheduledChunk(request=request, prefix_tokens=prefix, new_tokens=tokens)


def batch_with_decodes(chunks=(), decode_prefixes=(), offset=0):
    """An iteration batch of prefill ``chunks`` plus decodes whose FCFS
    prefixes are ``decode_prefixes``, given as bases ``prefix - offset``."""
    batch = IterationBatch(
        decode_count=len(decode_prefixes),
        decode_prefix_sum=sum(decode_prefixes),
        decode_bases=[p - offset for p in decode_prefixes],
        decode_offset=offset,
        total_new_tokens=len(decode_prefixes),
        num_requests=len(decode_prefixes),
    )
    for chunk in chunks:
        batch.add(chunk)
    return batch


#: Emission times spread over twelve decades: their gaps round differently
#: at every magnitude, so a sum of them depends on the order of additions.
SPREAD_TIMES = st.floats(min_value=-6.0, max_value=6.0).map(lambda exponent: 10.0 ** exponent)


class TestRequest:
    def test_lifecycle_prefill_then_decode(self):
        request = Request(arrival_time=1.0, prompt_tokens=100, max_output_tokens=3)
        assert request.state is RequestState.QUEUED
        request.record_prefill(60, now=2.0)
        assert not request.prefill_done
        request.record_prefill(40, now=2.5)
        assert request.prefill_done
        request.record_output_token(2.5)
        assert request.ttft == pytest.approx(1.5)
        request.record_output_token(3.0)
        request.record_output_token(3.4)
        assert request.finished
        assert request.finish_time == 3.4
        assert request.last_token_time == 3.4
        assert request.mean_tpot == (3.4 - 2.5) / 2
        assert request.mean_tpot == pytest.approx(0.45)
        assert request.e2e_latency == pytest.approx(2.4)

    def test_recompute_grows_prefill_target(self):
        request = Request(arrival_time=0.0, prompt_tokens=100, max_output_tokens=10)
        request.record_prefill(100, 1.0)
        request.record_output_token(1.0)
        request.record_output_token(1.2)
        request.reset_for_recompute()
        assert request.prefill_target == 102
        assert request.prefill_progress == 0
        assert request.preemption_count == 1
        assert not request.prefill_done

    def test_first_token_not_double_counted_after_recompute(self):
        request = Request(arrival_time=0.0, prompt_tokens=10, max_output_tokens=5)
        request.record_prefill(10, 1.0)
        request.record_output_token(1.0)
        first_ttft = request.ttft
        request.reset_for_recompute()
        request.record_prefill(11, 2.0)
        assert request.ttft == first_ttft

    def test_stall(self):
        request = Request(arrival_time=0.0, prompt_tokens=10, max_output_tokens=5)
        request.stall_until = 3.0
        assert request.is_stalled(2.9)
        assert not request.is_stalled(3.0)

    def test_invalid_requests_rejected(self):
        with pytest.raises(ValueError):
            Request(arrival_time=0.0, prompt_tokens=0, max_output_tokens=5)
        with pytest.raises(ValueError):
            Request(arrival_time=0.0, prompt_tokens=5, max_output_tokens=0)

    @settings(max_examples=200, deadline=None)
    @given(times=st.one_of(
        st.lists(SPREAD_TIMES, min_size=1, max_size=20),
        st.lists(SPREAD_TIMES, min_size=100, max_size=400),
        st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.30000000000000004, 7.5]),
                 min_size=1, max_size=60),
    ).map(sorted))
    def test_mean_tpot_is_the_span_over_the_gap_count(self, times):
        """Mean TPOT is ``(last - first) / gaps`` exactly, on the request's
        own path and on the scheduler's completion path, and agrees with
        the left-to-right mean of the gap list to within the rounding of
        that sum: each of the ``gaps`` non-negative gaps and each addition
        rounds once (relative error at most half an epsilon each), and the
        two divisions and the span once more."""
        direct = Request(arrival_time=0.0, prompt_tokens=4, max_output_tokens=len(times))
        for t in times:
            direct.record_output_token(t)
        scheduled = Request(arrival_time=0.0, prompt_tokens=4, max_output_tokens=len(times))
        scheduler = ContinuousBatchingScheduler(PagedKVCache(num_blocks=64, block_size=8))
        scheduler.add_request(scheduled)
        for t in times:
            scheduler.complete_batch(scheduler.form_batch(t), t)
        gaps = len(times) - 1
        expected = (times[-1] - times[0]) / gaps if gaps else None
        for request in (direct, scheduled):
            assert request.output_tokens == len(times) and request.finished
            assert request.mean_tpot == expected
            assert request.first_token_time == times[0]
            assert request.last_token_time == times[-1]
        if gaps:
            diffs = [later - earlier for earlier, later in zip(times, times[1:])]
            left_to_right = functools.reduce(operator.add, diffs) / gaps
            tolerance = (gaps + 2) * sys.float_info.epsilon
            assert math.isclose(expected, left_to_right, rel_tol=tolerance, abs_tol=0.0)


class TestBatch:
    def test_chunk_validation(self):
        with pytest.raises(ValueError):
            make_chunk(tokens=0)
        with pytest.raises(ValueError):
            make_chunk(prefix=-1)

    def test_chunk_split_prefixes(self):
        chunk = make_chunk(prefix=100, tokens=50)
        head, tail = chunk.split(20)
        assert head.new_tokens == 20 and tail.new_tokens == 30
        assert head.prefix_tokens == 100
        assert tail.prefix_tokens == 120
        with pytest.raises(ValueError):
            chunk.split(50)

    def test_one_token_chunk_cannot_split(self):
        chunk = make_chunk(prefix=10, tokens=1)
        with pytest.raises(ValueError):
            chunk.split(1)

    def test_iteration_batch_accounting(self):
        assert IterationBatch().empty
        decodes_only = batch_with_decodes(decode_prefixes=[50])
        assert not decodes_only.empty and not decodes_only.chunks
        batch = batch_with_decodes([make_chunk(tokens=100)], [50])
        assert batch.total_new_tokens == 101
        assert batch.num_requests == 2
        assert (batch.decode_count, batch.decode_prefix_sum) == (1, 50)
        assert len(batch.chunks) == 1
        assert not batch.empty

    def test_microbatch_counts(self):
        microbatch = MicroBatch(chunks=[make_chunk(tokens=5)], decode_count=1, decode_prefix_sum=3)
        assert microbatch.total_new_tokens == 6
        assert microbatch.num_chunks == 2


class TestLatencyModel:
    def test_prefill_scales_superlinearly_with_length(self):
        model = LatencyModel(A800_80GB, QWEN_2_5_14B)
        t1 = model.prefill_time(1024)
        t8 = model.prefill_time(8192)
        assert t8 > 6 * t1

    def test_prefill_magnitude_is_plausible(self):
        model = LatencyModel(A800_80GB, QWEN_2_5_14B)
        t = model.prefill_time(2048)
        assert 0.1 < t < 0.6  # hundreds of milliseconds on an A800

    def test_decode_batch_amortizes_weights(self):
        model = LatencyModel(A800_80GB, QWEN_2_5_14B)
        single = model.decode_time(1024, batch_size=1)
        batch64 = model.decode_time(1024, batch_size=64)
        assert batch64 < 64 * single
        assert batch64 > single

    def test_fewer_layers_faster(self):
        model = LatencyModel(A800_80GB, QWEN_2_5_14B)
        chunk = [make_chunk(tokens=512)]
        assert model.batch_time(chunk, num_layers=24) < model.batch_time(chunk, num_layers=48)

    def test_prefix_increases_cost(self):
        model = LatencyModel(A800_80GB, QWEN_2_5_14B)
        assert model.prefill_time(1024, prefix_tokens=4096) > model.prefill_time(1024)

    def test_tp_pays_communication(self):
        tp1 = LatencyModel(H800_80GB, QWEN_2_5_72B, tp_degree=1)
        tp4 = LatencyModel(H800_80GB, QWEN_2_5_72B, tp_degree=4)
        chunk = [make_chunk(tokens=1024)]
        # TP4 has 4x the compute, but the speedup is < 4x due to all-reduce.
        assert tp4.batch_time(chunk) < tp1.batch_time(chunk)
        assert tp4.batch_time(chunk) > tp1.batch_time(chunk) / 4.5

    def test_empty_batch_is_free(self):
        model = LatencyModel(A800_80GB, QWEN_2_5_14B)
        assert model.batch_time([]) == 0.0

    def test_invalid_layer_count(self):
        model = LatencyModel(A800_80GB, QWEN_2_5_14B)
        with pytest.raises(ValueError):
            model.batch_time([make_chunk()], num_layers=0)

    def test_config_validation_via_tp(self):
        with pytest.raises(ValueError):
            LatencyModel(A800_80GB, QWEN_2_5_14B, tp_degree=0)


class ChunkLoopLatencyModel(LatencyModel):
    """The roofline summed chunk by chunk in float: the reference the
    closed form must reproduce."""

    def _chunk_totals(self, chunk_list, num_layers, decodes):
        total_flops = 0.0
        total_bytes = 0.0
        total_tokens = 0
        for chunk in chunk_list:
            total_flops += self.chunk_compute_flops(chunk, num_layers)
            total_bytes += self.chunk_kv_read_bytes(chunk, num_layers)
            total_bytes += self.chunk_kv_write_bytes(chunk, num_layers)
            total_tokens += chunk.new_tokens
        return total_flops, total_bytes, total_tokens


def decode_chunks(prefixes):
    """Decode steps as one-token chunks: what the chunk loop prices."""
    return [make_chunk(prefix=p, tokens=1, prompt=1) for p in prefixes]


def exact_totals(model, chunks, num_layers):
    """The roofline's chunk FLOPs and KV bytes in integer arithmetic."""
    tokens = sum(c.new_tokens for c in chunks)
    attention = sum(2 * c.new_tokens * (2 * c.prefix_tokens + c.new_tokens + 1) for c in chunks)
    kv_units = sum(c.prefix_tokens + 2 * c.new_tokens for c in chunks)
    flops = (tokens * model.flops_per_token_per_layer() + attention * model.q_dim) * num_layers
    kv_bytes = kv_units * kv_bytes_per_token_per_layer(model) * num_layers
    return flops, kv_bytes


#: Decode prefixes and prefill ``(prefix, tokens)`` pairs of a batch.
DECODE_PREFIXES = st.lists(st.integers(0, 300_000), max_size=40)
PREFILLS = st.lists(st.tuples(st.integers(0, 200_000), st.integers(1, 4096)), max_size=6)


def deal_round_robin(chunks, decodes, k):
    """Microbatch chunk lists as the lookahead former dealt decode chunks:
    the prefill pieces of each, then decode ``i`` into list ``i % k``."""
    lists = [list(c) for c in chunks] + [[] for _ in range(k - len(chunks))]
    for index, chunk in enumerate(decodes):
        lists[index % k].append(chunk)
    return lists


class TestClosedFormRoofline:
    """Prefill chunks plus a decode summary are priced bit-identically to
    the chunk loop over the same decodes as one-token chunks."""

    @settings(max_examples=80, deadline=None)
    @given(
        model=st.sampled_from(sorted(MODEL_CATALOG.values(), key=lambda m: m.name)),
        layer_fraction=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
        decode_prefixes=DECODE_PREFIXES,
        prefills=PREFILLS,
    )
    def test_matches_the_chunk_loop(self, model, layer_fraction, decode_prefixes, prefills):
        decodes = decode_chunks(decode_prefixes)
        prefill_chunks = [make_chunk(prefix=p, tokens=n, prompt=1) for p, n in prefills]
        chunks = decodes + prefill_chunks
        if not chunks:
            return
        num_layers = max(1, int(model.num_layers * layer_fraction))
        # The exactness rule covers totals below 2**53, where every
        # simulated batch lies.
        assume(max(exact_totals(model, chunks, num_layers)) < 2**53)
        summary = (len(decodes), sum(decode_prefixes))
        fast = LatencyModel(A800_80GB, model)
        # Decodes passed as one-token chunks with no summary, as the
        # profiling samples price them.
        unsummarised = LatencyModel(A800_80GB, model)
        reference = ChunkLoopLatencyModel(A800_80GB, model)
        for head in (True, False):
            expected = reference.batch_time(chunks, num_layers, include_lm_head=head)
            assert fast.batch_time(
                prefill_chunks, num_layers, include_lm_head=head, decodes=summary
            ) == expected
            assert unsummarised.batch_time(chunks, num_layers, include_lm_head=head) == expected
        assert fast.batch_time_pair(prefill_chunks, num_layers, decodes=summary) == (
            reference.batch_time_pair(chunks, num_layers)
        )

    @settings(max_examples=120, deadline=None)
    @given(
        model=st.sampled_from(sorted(MODEL_CATALOG.values(), key=lambda m: m.name)),
        # Tensor parallelism needs NVLink, which only the H800 has.
        gpu_tp=st.sampled_from([(A800_80GB, 1)] + [(H800_80GB, tp) for tp in (1, 2, 4, 8)]),
        layer_fraction=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
        count=st.integers(1, 4096),
        prefix_sum=st.integers(0, 4096 * 300_000),
        head=st.booleans(),
    )
    def test_decode_only_price_matches_batch_time(
        self, model, gpu_tp, layer_fraction, count, prefix_sum, head
    ):
        """A quiet pass's price is ``batch_time([], ...)`` bit for bit."""
        gpu, tp_degree = gpu_tp
        latency = LatencyModel(gpu, model, tp_degree=tp_degree)
        num_layers = max(1, int(model.num_layers * layer_fraction))
        assert latency.decode_batch_time(
            count, prefix_sum, num_layers, include_lm_head=head
        ) == latency.batch_time([], num_layers, include_lm_head=head, decodes=(count, prefix_sum))

    @pytest.mark.parametrize("batch_size", [0, 1, 7, 64])
    def test_decode_time_matches_the_chunk_loop(self, batch_size):
        fast = LatencyModel(A800_80GB, QWEN_2_5_14B)
        reference = ChunkLoopLatencyModel(A800_80GB, QWEN_2_5_14B)
        chunks = decode_chunks([1024] * batch_size)
        assert fast.decode_time(1024, batch_size) == reference.batch_time(chunks)

    @settings(max_examples=60, deadline=None)
    @given(
        decode_prefixes=DECODE_PREFIXES,
        prefills=PREFILLS,
        offset=st.integers(0, 1000),
        stages=st.integers(1, 4),
    )
    def test_former_summaries_match_dealt_chunks(self, decode_prefixes, prefills, offset, stages):
        """Both formers' microbatch summaries price exactly as dealing real
        decode chunks: token-count packing puts the decodes, in FCFS order,
        ahead of the prefill chunks; lookahead deals them round-robin after
        its cost-balanced prefill split."""
        decode_prefixes = [p + offset for p in decode_prefixes]
        decodes = decode_chunks(decode_prefixes)
        prefill_chunks = [make_chunk(prefix=p, tokens=n, prompt=1) for p, n in prefills]
        batch = batch_with_decodes(prefill_chunks, decode_prefixes, offset)
        fast = LatencyModel(A800_80GB, QWEN_2_5_14B)
        reference = ChunkLoopLatencyModel(A800_80GB, QWEN_2_5_14B)

        def prices(microbatches):
            return [
                fast.batch_time_pair(
                    mb.chunks, 24, decodes=(mb.decode_count, mb.decode_prefix_sum)
                )
                for mb in microbatches
            ]

        token_count = split_into_n_microbatches(batch, stages)
        packed = token_count_microbatches(decodes + prefill_chunks, max(1, -(
            -(len(decodes) + sum(n for _, n in prefills)) // stages)))
        assert prices(token_count) == [reference.batch_time_pair(mb.chunks, 24) for mb in packed]

        cost_model = fit_from_latency_model(fast)
        lookahead = make_lookahead_former(cost_model, min_tokens_floor=64)(batch, stages)
        prefill_only = make_lookahead_former(cost_model, min_tokens_floor=64)(
            batch_with_decodes(prefill_chunks), stages
        )
        if not decodes and not prefill_chunks:
            assert lookahead == []
            return
        k = len(prefill_only) or min(max(2, stages), max(1, len(decodes)))
        dealt = [
            chunks
            for chunks in deal_round_robin([mb.chunks for mb in prefill_only], decodes, k)
            if chunks
        ]
        assert prices(lookahead) == [reference.batch_time_pair(c, 24) for c in dealt]


class TestTensorParallel:
    def test_allreduce_zero_for_single_rank(self):
        assert allreduce_time(1e6, 100e9, 1) == 0.0

    def test_allreduce_scales_with_size(self):
        assert allreduce_time(2e6, 100e9, 4) > allreduce_time(1e6, 100e9, 4)

    def test_layer_comm_zero_for_tp1(self):
        assert tp_layer_comm_time(100, 4096, 2, 100e9, 1) == 0.0

    def test_bandwidth_required_for_multi_rank(self):
        with pytest.raises(ValueError):
            allreduce_time(1e6, 0.0, 4)


class TestPipeline:
    def test_balanced_partition(self):
        assert PipelineExecution.balanced_layer_partition(48, 2) == [24, 24]
        assert PipelineExecution.balanced_layer_partition(7, 2) == [4, 3]
        with pytest.raises(ValueError):
            PipelineExecution.balanced_layer_partition(3, 4)

    def test_layer_ranges_cover_all_layers(self):
        ranges = PipelineExecution.layer_ranges(48, 4)
        layers = [layer for r in ranges for layer in r]
        assert layers == list(range(48))

    def test_makespan_single_stage(self):
        stats = PipelineExecution.makespan([[1.0], [2.0]])
        assert stats.makespan == 3.0
        assert stats.bubble_fraction == 0.0

    def test_makespan_balanced_two_stage(self):
        stats = PipelineExecution.makespan([[1.0, 1.0], [1.0, 1.0]])
        assert stats.makespan == 3.0
        assert stats.num_stages == 2
        assert 0 < stats.bubble_fraction < 0.5

    def test_imbalanced_microbatches_increase_makespan(self):
        balanced = PipelineExecution.makespan([[1.0, 1.0], [1.0, 1.0]])
        imbalanced = PipelineExecution.makespan([[0.5, 0.5], [1.5, 1.5]])
        assert imbalanced.makespan > balanced.makespan
        assert imbalanced.bubble_fraction > balanced.bubble_fraction

    def test_comm_time_adds_latency(self):
        with_comm = PipelineExecution.makespan([[1.0, 1.0]], comm_time=0.5)
        without = PipelineExecution.makespan([[1.0, 1.0]])
        assert with_comm.makespan == pytest.approx(without.makespan + 0.5)

    def test_empty_schedule(self):
        stats = PipelineExecution.makespan([])
        assert stats.makespan == 0.0

    def test_ragged_schedule_rejected(self):
        with pytest.raises(ValueError):
            PipelineExecution.makespan([[1.0, 1.0], [1.0]])

    @given(
        st.lists(
            st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=2, max_size=2),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_property_makespan_bounds(self, stage_times):
        stats = PipelineExecution.makespan(stage_times)
        total = sum(sum(row) for row in stage_times)
        max_stage_busy = max(stats.stage_busy)
        assert stats.makespan >= max_stage_busy - 1e-9
        assert stats.makespan <= total + 1e-9
        assert 0.0 <= stats.bubble_fraction <= 1.0


class TestChunkedPrefill:
    def test_token_budget_respected(self):
        chunks = [make_chunk(tokens=300), make_chunk(tokens=300), make_chunk(tokens=300)]
        microbatches = token_count_microbatches(chunks, 512)
        assert all(mb.total_new_tokens <= 512 for mb in microbatches)
        assert sum(mb.total_new_tokens for mb in microbatches) == 900

    def test_large_prefill_gets_chunked(self):
        microbatches = token_count_microbatches([make_chunk(tokens=1200)], 512)
        assert len(microbatches) == 3
        assert [mb.total_new_tokens for mb in microbatches] == [512, 512, 176]
        # Later chunks carry the earlier chunks as prefix.
        assert microbatches[1].chunks[0].prefix_tokens == 512

    def test_decode_chunks_not_split(self):
        """Decodes lead, each microbatch taking a contiguous FCFS range of
        whole decodes; prefill fills the rest of the budget."""
        batch = batch_with_decodes([make_chunk(tokens=4)], [10, 11, 12, 13, 14], offset=10)
        microbatches = split_into_n_microbatches(batch, 3)
        assert [(mb.decode_count, mb.decode_prefix_sum) for mb in microbatches] == [
            (3, 33), (2, 27), (0, 0)
        ]
        assert [sum(c.new_tokens for c in mb.chunks) for mb in microbatches] == [0, 1, 3]
        assert sum(mb.num_chunks for mb in microbatches) == 7

    def test_split_into_n(self):
        chunks = [make_chunk(tokens=500), make_chunk(tokens=500)]
        microbatches = split_into_n_microbatches(batch_with_decodes(chunks), 2)
        assert len(microbatches) == 2
        assert split_into_n_microbatches(IterationBatch(), 2) == []

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            token_count_microbatches([make_chunk()], 0)


class TestMetrics:
    def test_percentile_empty(self):
        assert percentile([], 99) == 0.0

    def test_timeline_series_modes(self):
        sums = TimelineSeries(window_s=1.0, mode="sum")
        means = TimelineSeries(window_s=1.0, mode="mean")
        for t, v in [(0.1, 1.0), (0.2, 3.0), (1.5, 10.0)]:
            sums.add(t, v)
            means.add(t, v)
        assert [p.value for p in sums.points()] == [4.0, 10.0]
        assert [p.value for p in means.points()] == [2.0, 10.0]
        with pytest.raises(ValueError):
            TimelineSeries(window_s=0)
        with pytest.raises(ValueError):
            TimelineSeries(mode="median")

    def test_collector_request_records(self):
        collector = MetricsCollector()
        request = Request(arrival_time=0.0, prompt_tokens=10, max_output_tokens=2)
        request.record_prefill(10, 1.0)
        request.record_output_token(1.0)
        request.record_output_token(1.5)
        record = collector.record_request(request)
        assert record.finished
        assert collector.ttft_percentile(50) == pytest.approx(1.0)
        assert collector.tpot_percentile(50) == pytest.approx(0.5)
        assert collector.finished_count() == 1
        assert collector.total_output_tokens() == 2

    def test_collector_iteration_and_memory(self):
        collector = MetricsCollector()
        collector.record_iteration(0.1, 100, 0.25)
        collector.sample_memory(0.5, used_bytes=10.0, capacity_bytes=100.0, demand_bytes=20.0)
        collector.mark_event(0.7, "drop", freed_bytes=5)
        summary = collector.summary()
        assert summary["mean_bubble_fraction"] == pytest.approx(0.25)
        assert summary["throughput_tokens_per_s"] == 100.0
        assert collector.memory_capacity.max() == 100.0
        assert collector.events[0]["kind"] == "drop"

    def test_mean_ttft_timeline_buckets_by_arrival(self):
        collector = MetricsCollector()
        for arrival, ttft in [(0.0, 1.0), (1.0, 2.0), (12.0, 4.0)]:
            request = Request(arrival_time=arrival, prompt_tokens=10, max_output_tokens=1)
            request.record_prefill(10, arrival + ttft)
            request.record_output_token(arrival + ttft)
            collector.record_request(request)
        points = collector.mean_ttft_timeline(window_s=10.0)
        assert len(points) == 2
        assert points[0].value == pytest.approx(1.5)
        assert points[1].value == pytest.approx(4.0)

    #: A few values drawn again and again make ties; the rest spread over
    #: twelve decades.
    TTFTS = st.one_of(st.sampled_from([0.0, 0.25, 1.0, 3.0]), SPREAD_TIMES)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(st.one_of(st.none(), TTFTS), st.booleans()), max_size=60
        )
    )
    def test_running_ttft_tail_and_finished_count_equal_a_rescan(self, requests):
        collector = MetricsCollector()
        for p in (0, 50, 99.9, 100):
            assert collector.ttft_percentile(p) == 0.0
        assert collector.finished_count() == 0
        for ttft, finishes in requests:
            # Arrival at 0 makes the recorded TTFT the token time exactly.
            request = Request(
                arrival_time=0.0, prompt_tokens=1, max_output_tokens=1 if finishes else 2
            )
            if ttft is not None:
                request.record_output_token(ttft)
            collector.record_request(request)
            values = collector.ttft_values()
            for p in (0, 50, 90, 99, 99.9, 100):
                expected = float(np.percentile(values, p)) if values else 0.0
                assert collector.ttft_percentile(p) == expected
            assert collector.finished_count() == sum(1 for r in collector.records if r.finished)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.one_of(TTFTS, SPREAD_TIMES.map(lambda t: -t)), min_size=1, max_size=40),
        st.floats(min_value=0.0, max_value=100.0),
    )
    def test_sorted_percentile_is_numpys_linear_method(self, values, p):
        assert sorted_percentile(sorted(values), p) == float(np.percentile(values, p))

    def test_nearest_rank_reads_the_ceil_rank(self):
        # The k-th smallest of n values, k = ceil(q n / 100) and at least 1:
        # the p50 of five values is the third.
        assert nearest_rank([], 50) is None
        assert nearest_rank([5.0, 1.0, 4.0, 2.0, 3.0], 50) == 3.0
        for n in range(1, 200):
            descending = [float(v) for v in range(n, 0, -1)]
            for q in (0, 50, 90, 99, 100):
                assert nearest_rank(descending, q) == max(1, -(-q * n // 100))
