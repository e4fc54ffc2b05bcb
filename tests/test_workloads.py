"""Tests for workload generation, upscaling and SLO accounting."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.burstgpt import (
    BurstSpec,
    burstgpt_arrival_trace,
    extreme_burst_trace,
    long_run_arrival_trace,
)
from repro.workloads.datasets import (
    BURSTGPT_DATASET,
    DATASETS,
    LONGBENCH_DATASET,
    SHAREGPT_DATASET,
    build_workload,
    sample_lengths,
)
from repro.workloads.slo import baseline_p50, slo_violation_ratio
from repro.workloads.trace import ArrivalTrace, TracedRequest, Workload, merge_workloads
from repro.workloads.upscaler import scale_to_average_rate, upscale_trace


class TestArrivalTrace:
    def test_sorted_and_validated(self):
        trace = ArrivalTrace(timestamps=[3.0, 1.0, 2.0])
        assert trace.timestamps == [1.0, 2.0, 3.0]
        with pytest.raises(ValueError):
            ArrivalTrace(timestamps=[-1.0])

    def test_average_rate(self):
        trace = ArrivalTrace(timestamps=[i * 0.5 for i in range(1, 21)])
        assert trace.average_rate == pytest.approx(2.0)

    def test_average_rate_degenerate_traces(self):
        # Empty trace: no arrivals, rate 0.
        assert ArrivalTrace(timestamps=[]).average_rate == 0.0
        # All arrivals at t=0 (zero duration): treated as a one-second
        # burst, so the rate is the arrival count, never a 0/0.
        assert ArrivalTrace(timestamps=[0.0]).average_rate == 1.0
        assert ArrivalTrace(timestamps=[0.0, 0.0, 0.0]).average_rate == 3.0
        # A single late arrival keeps the duration-from-zero convention.
        assert ArrivalTrace(timestamps=[2.0]).average_rate == pytest.approx(0.5)

    def test_zero_duration_trace_can_be_rescaled(self):
        trace = ArrivalTrace(timestamps=[0.0] * 10)
        scaled = scale_to_average_rate(trace, 5.0, seed=1)
        # Downscaled by 0.5 in expectation; only emptiness raises.
        assert 0 <= len(scaled) <= 10
        with pytest.raises(ValueError):
            scale_to_average_rate(ArrivalTrace(timestamps=[]), 5.0)


class TestBurstTraces:
    def test_burst_roughly_doubles_rate(self):
        trace = burstgpt_arrival_trace(
            duration_s=200, base_rate=5.0, burst_factor=2.0,
            burst_start_s=100, burst_duration_s=100, seed=3,
        )
        before = sum(1 for t in trace.timestamps if t < 100) / 100
        during = sum(1 for t in trace.timestamps if t >= 100) / 100
        assert during / before == pytest.approx(2.0, rel=0.25)

    def test_deterministic_for_seed(self):
        a = burstgpt_arrival_trace(seed=5)
        b = burstgpt_arrival_trace(seed=5)
        assert a.timestamps == b.timestamps
        assert burstgpt_arrival_trace(seed=6).timestamps != a.timestamps

    def test_long_run_has_multiple_waves(self):
        trace = long_run_arrival_trace(duration_s=640, base_rate=2.0, num_waves=2, seed=3)
        assert trace.duration <= 640
        assert len(trace) > 640  # above base-rate-only count

    def test_extreme_burst_never_ends(self):
        trace = extreme_burst_trace(duration_s=150, base_rate=2.0, burst_start_s=50, seed=3)
        late_rate = sum(1 for t in trace.timestamps if t > 120) / 30
        early_rate = sum(1 for t in trace.timestamps if t < 50) / 50
        assert late_rate > 1.5 * early_rate

    def test_burst_spec_validation(self):
        with pytest.raises(ValueError):
            BurstSpec(start_s=0, duration_s=0, factor=2)
        with pytest.raises(ValueError):
            long_run_arrival_trace(num_waves=0)


class TestDatasets:
    @pytest.mark.parametrize("dataset", [BURSTGPT_DATASET, SHAREGPT_DATASET, LONGBENCH_DATASET])
    def test_sampled_means_match_paper(self, dataset):
        lengths = sample_lengths(dataset, 4000, seed=1)
        mean_in = sum(p for p, _ in lengths) / len(lengths)
        mean_out = sum(o for _, o in lengths) / len(lengths)
        assert mean_in == pytest.approx(dataset.mean_input_tokens, rel=0.15)
        assert mean_out == pytest.approx(dataset.mean_output_tokens, rel=0.15)

    def test_lengths_respect_caps(self):
        lengths = sample_lengths(SHAREGPT_DATASET, 2000, seed=2)
        assert max(p for p, _ in lengths) <= SHAREGPT_DATASET.max_input_tokens
        assert min(p for p, _ in lengths) >= 16

    def test_longbench_is_longest(self):
        assert LONGBENCH_DATASET.mean_input_tokens > SHAREGPT_DATASET.mean_input_tokens > BURSTGPT_DATASET.mean_input_tokens

    def test_sample_zero(self):
        assert sample_lengths(BURSTGPT_DATASET, 0) == []
        with pytest.raises(ValueError):
            sample_lengths(BURSTGPT_DATASET, -1)

    def test_build_workload(self):
        trace = burstgpt_arrival_trace(duration_s=30, base_rate=2.0, seed=1)
        workload = build_workload(trace, BURSTGPT_DATASET, seed=1)
        assert len(workload) == len(trace)
        assert workload.requests[0].slo_class == "chat"
        engine_requests = workload.to_engine_requests()
        assert len(engine_requests) == len(workload)
        assert all(r.prompt_tokens > 0 for r in engine_requests)

    def test_dataset_registry(self):
        assert set(DATASETS) == {"BurstGPT", "ShareGPT", "LongBench"}


class TestUpscaler:
    def test_integer_factor_multiplies_count(self):
        trace = ArrivalTrace(timestamps=[float(i) for i in range(100)])
        scaled = upscale_trace(trace, 3.0, seed=1)
        assert len(scaled) == pytest.approx(300, abs=20)

    def test_preserves_burst_shape(self):
        base = burstgpt_arrival_trace(duration_s=100, base_rate=4.0, burst_factor=2.5, seed=2)
        scaled = upscale_trace(base, 2.0, seed=2)
        def burst_ratio(trace):
            early = sum(1 for t in trace.timestamps if t < 35)
            late = sum(1 for t in trace.timestamps if 35 <= t < 70)
            return late / max(early, 1)
        assert burst_ratio(scaled) == pytest.approx(burst_ratio(base), rel=0.3)

    def test_downscaling(self):
        trace = ArrivalTrace(timestamps=[float(i) for i in range(1000)])
        scaled = upscale_trace(trace, 0.5, seed=1)
        assert 380 <= len(scaled) <= 620

    def test_scale_to_average_rate(self):
        trace = ArrivalTrace(timestamps=[float(i) for i in range(100)])
        scaled = scale_to_average_rate(trace, 3.0, seed=1)
        assert scaled.average_rate == pytest.approx(3.0, rel=0.2)

    def test_invalid_factor(self):
        trace = ArrivalTrace(timestamps=[1.0])
        with pytest.raises(ValueError):
            upscale_trace(trace, 0.0)

    @given(factor=st.floats(min_value=0.5, max_value=4.0))
    @settings(max_examples=20, deadline=None)
    def test_property_scaling_changes_rate_proportionally(self, factor):
        trace = ArrivalTrace(timestamps=[i * 0.25 for i in range(400)])
        scaled = upscale_trace(trace, factor, seed=3)
        assert len(scaled) == pytest.approx(len(trace) * factor, rel=0.2)


class TestSLO:
    def test_violation_ratio(self):
        pairs = [(0.1, 0.05), (2.0, 0.05), (0.1, 0.5)]
        assert slo_violation_ratio(pairs, ttft_slo_s=1.0, tpot_slo_s=0.1) == pytest.approx(2 / 3)
        assert slo_violation_ratio([], ttft_slo_s=1.0, tpot_slo_s=1.0) == 0.0

    def test_unfinished_requests_count_as_violations(self):
        assert slo_violation_ratio([(None, None)], ttft_slo_s=10.0, tpot_slo_s=10.0) == 1.0
        # No TPOT (a single output token) violates nothing.
        assert slo_violation_ratio([(0.1, None)], ttft_slo_s=10.0, tpot_slo_s=10.0) == 0.0

    def test_curve_uses_best_system_p50(self):
        fast = [(0.1, 0.02)] * 10
        slow = [(1.0, 0.02)] * 10
        best_ttft, best_tpot = baseline_p50([fast, slow])
        assert (best_ttft, best_tpot) == (0.1, 0.02)
        # SLO = 2 x P50 of the fast cell = 0.2 s, so the slow cell violates.
        slo = dict(ttft_slo_s=2 * best_ttft, tpot_slo_s=2 * best_tpot)
        assert slo_violation_ratio(fast, **slo) == 0.0
        assert slo_violation_ratio(slow, **slo) == 1.0

    def test_violations_monotonically_decrease_with_scale(self):
        import numpy as np
        rng = np.random.default_rng(0)
        pairs = [(float(rng.uniform(0.05, 2.0)), 0.05) for _ in range(100)]
        best_ttft, best_tpot = baseline_p50([pairs])
        ratios = [
            slo_violation_ratio(pairs, ttft_slo_s=f * best_ttft, tpot_slo_s=f * best_tpot)
            for f in (1, 2, 4, 8)
        ]
        assert ratios == sorted(ratios, reverse=True)

    def test_zero_baseline(self):
        # No cell has a TPOT: the TPOT baseline is 0 and violates nothing.
        assert baseline_p50([[(None, None)], [(0.5, None)]]) == (0.5, 0.0)
        assert baseline_p50([]) == (0.0, 0.0)
        # Against a zero SLO every positive latency violates, at any factor.
        pairs = [(0.1, 0.02), (0.2, None), (None, None)]
        assert slo_violation_ratio(pairs, ttft_slo_s=0.0, tpot_slo_s=0.0) == 1.0
        assert slo_violation_ratio([(0.1, None)], ttft_slo_s=1.0, tpot_slo_s=0.0) == 0.0


class TestWorkloadContainer:
    def test_workload_statistics(self):
        workload = Workload(
            name="w",
            requests=[
                TracedRequest(arrival_time=1.0, prompt_tokens=100, output_tokens=10),
                TracedRequest(arrival_time=0.5, prompt_tokens=300, output_tokens=30),
            ],
        )
        assert workload.requests[0].arrival_time == 0.5  # sorted
        assert workload.mean_prompt_tokens == 200
        assert workload.total_output_tokens == 40
        assert workload.duration == 1.0

    def test_merge_workloads(self):
        a = Workload(name="a", requests=[TracedRequest(arrival_time=0.0, prompt_tokens=10, output_tokens=1)])
        b = Workload(name="b", requests=[TracedRequest(arrival_time=1.0, prompt_tokens=10, output_tokens=1)])
        merged = merge_workloads([a, b])
        assert len(merged) == 2

    def test_invalid_traced_request(self):
        with pytest.raises(ValueError):
            TracedRequest(arrival_time=0.0, prompt_tokens=0, output_tokens=1)
