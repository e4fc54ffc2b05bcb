"""Ablation benchmark: lookahead vs. token-count microbatch formation.

Compares the pipeline-stage time imbalance produced by the two formulations
on batches with heterogeneous prefixes (the case Figure 9 illustrates), and
times the lookahead algorithm itself (it must be cheap enough to run every
iteration).
"""

from benchmarks.conftest import run_once
from repro.cluster.specs import A800_80GB
from repro.core.cost_model import fit_from_latency_model
from repro.core.lookahead import make_lookahead_former
from repro.engine.batch import IterationBatch, ScheduledChunk
from repro.engine.chunked_prefill import split_into_n_microbatches
from repro.engine.latency_model import LatencyModel
from repro.engine.request import Request
from repro.models.catalog import QWEN_2_5_14B


def _heterogeneous_batch():
    """Prefill chunks with very different prefix lengths plus 48 decodes."""
    batch = IterationBatch(
        decode_count=48, decode_prefix_sum=48 * 2000, decode_bases=[2000] * 48,
        total_new_tokens=48, num_requests=48,
    )
    for prefix, tokens in ((0, 900), (4096, 900), (0, 300), (6144, 300)):
        request = Request(arrival_time=0.0, prompt_tokens=prefix + tokens, max_output_tokens=4)
        batch.add(ScheduledChunk(request=request, prefix_tokens=prefix, new_tokens=tokens))
    return batch


def _imbalance(latency, microbatches, num_layers=24):
    times = [
        latency.batch_time(
            mb.chunks, num_layers=num_layers, decodes=(mb.decode_count, mb.decode_prefix_sum)
        )
        for mb in microbatches
    ]
    return max(times) / max(min(times), 1e-9), sum(times)


def test_bench_lookahead_balances_better_than_token_count(benchmark):
    latency = LatencyModel(A800_80GB, QWEN_2_5_14B)
    cost_model = fit_from_latency_model(latency)
    former = make_lookahead_former(cost_model)
    batch = _heterogeneous_batch()

    microbatches = run_once(benchmark, former, batch, 2)
    lookahead_imbalance, _ = _imbalance(latency, microbatches)
    token_count = split_into_n_microbatches(batch, 2)
    token_imbalance, _ = _imbalance(latency, token_count)
    print(
        f"\nstage-time imbalance (max/min): lookahead={lookahead_imbalance:.2f}, "
        f"token-count={token_imbalance:.2f}"
    )
    assert lookahead_imbalance <= token_imbalance * 1.05


def test_bench_lookahead_formation_latency(benchmark):
    latency = LatencyModel(A800_80GB, QWEN_2_5_14B)
    cost_model = fit_from_latency_model(latency)
    former = make_lookahead_former(cost_model)
    batch = _heterogeneous_batch()
    microbatches = benchmark(former, batch, 4)
    assert sum(mb.total_new_tokens for mb in microbatches) == batch.total_new_tokens
