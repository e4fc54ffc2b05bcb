"""Offline profiling and fitting of the microbatch cost model (§4.3).

Shows the workflow a deployment would run before serving: sweep the
(simulated) GPU with profiling batches, fit the Eq. 1-3 cost model by least
squares, and check its accuracy against the ground truth for prompts with
and without prefix attention — the content of Figure 15.

Run with:  python examples/cost_model_profiling.py
"""

from __future__ import annotations

from repro.cluster.specs import A800_80GB
from repro.core.cost_model import (
    BatchCostModel,
    NoAttentionCostModel,
    fit_cost_model,
    generate_profiling_samples,
)
from repro.core.lookahead import make_lookahead_former
from repro.engine.batch import IterationBatch, ScheduledChunk
from repro.engine.latency_model import LatencyModel
from repro.engine.request import Request
from repro.models import QWEN_2_5_14B


def chunk(prefix: int, tokens: int) -> ScheduledChunk:
    request = Request(arrival_time=0.0, prompt_tokens=prefix + tokens, max_output_tokens=1)
    return ScheduledChunk(request=request, prefix_tokens=prefix, new_tokens=tokens)


def main() -> None:
    latency = LatencyModel(A800_80GB, QWEN_2_5_14B)

    print("1. offline profiling sweep ...")
    samples = generate_profiling_samples(latency)
    print(f"   collected {len(samples)} profiling samples")

    print("2. least-squares fit of (alpha, beta, gamma, lambda) ...")
    params = fit_cost_model(samples)
    print(f"   alpha={params.alpha:.3e}  beta={params.beta:.3e}  "
          f"gamma={params.gamma:.3e}  lambda={params.lam:.3e}")

    ours = BatchCostModel(params)
    baseline = NoAttentionCostModel(params)
    print("3. accuracy check (estimated vs actual, ms):")
    print(f"   {'prompt':>8} {'prefix':>8} {'actual':>8} {'ours':>8} {'no-attn':>8}")
    for prefix, prompt in [(0, 1024), (0, 4096), (0, 8192), (2048, 2048), (4096, 4096)]:
        c = chunk(prefix, prompt)
        actual = 1000 * latency.batch_time([c])
        est = 1000 * ours.microbatch_cost([c])
        naive = 1000 * baseline.microbatch_cost([c])
        print(f"   {prompt:>8} {prefix:>8} {actual:>8.1f} {est:>8.1f} {naive:>8.1f}")

    print("4. using the fitted model for lookahead batch formulation:")
    former = make_lookahead_former(ours)
    # Two prefill chunks plus 32 decodes of 1500-token contexts.
    batch = IterationBatch(decode_count=32, decode_prefix_sum=32 * 1500,
                           decode_bases=[1500] * 32, total_new_tokens=32, num_requests=32)
    batch.add(chunk(0, 3000))
    batch.add(chunk(4096, 1000))
    microbatches = former(batch, 2)
    for index, microbatch in enumerate(microbatches):
        decodes = [chunk(1500, 1) for _ in range(microbatch.decode_count)]
        estimated = 1000 * ours.microbatch_cost(microbatch.chunks + decodes)
        print(f"   microbatch {index}: {microbatch.total_new_tokens} tokens, "
              f"{microbatch.decode_count} decodes, estimated {estimated:.1f} ms")


if __name__ == "__main__":
    main()
