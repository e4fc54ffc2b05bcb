"""Lookahead batch formulation (§4.3, Figure 10/11).

Under overloading many requests are queued, so instead of forming
microbatches greedily by token count (which balances tokens, not execution
time), KunServe looks ahead over *all* scheduled chunks and recursively
splits them into cost-balanced microbatches using the fitted cost model:

1. start with a single microbatch containing every chunk;
2. if the microbatch holds fewer than ``MIN`` tokens, stop splitting;
3. otherwise split it into two halves of (approximately) equal *cost* —
   splitting a prefill chunk mid-way when necessary — and recurse.

The result is a set of microbatches whose execution times are balanced, so
pipeline bubbles (Figure 8) shrink dramatically.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.cost_model import BatchCostModel
from repro.engine.batch import IterationBatch, MicroBatch, ScheduledChunk
from repro.engine.group import MicrobatchFormer


def _split_chunk_by_cost(
    chunk: ScheduledChunk, target_cost: float, cost_model: BatchCostModel
) -> Optional[int]:
    """Token count at which ``chunk``'s cost reaches ``target_cost``.

    Returns None when the chunk cannot or should not be split (a
    one-token chunk, or a split point at the boundaries).  Binary search
    over the token count — chunk cost is monotonic in tokens.
    """
    if chunk.new_tokens <= 1:
        return None
    low, high = 1, chunk.new_tokens - 1
    best = None
    while low <= high:
        mid = (low + high) // 2
        cost = cost_model.chunk_cost(chunk.prefix_tokens, mid)
        if cost <= target_cost:
            best = mid
            low = mid + 1
        else:
            high = mid - 1
    return best


def _split_balanced(
    batch: MicroBatch, cost_model: BatchCostModel
) -> Optional[tuple]:
    """Split ``batch`` into two microbatches of roughly equal cost.

    Costs accumulate *marginally*: every chunk after the first in a
    microbatch shares the weight loads, which Eq. 3 models by subtracting
    ``lam`` per additional chunk — ignoring that would make decode-heavy
    halves look far more expensive than they are and produce degenerate
    splits.
    """
    total_cost = cost_model.microbatch_cost(batch.chunks)
    if total_cost <= 0 or len(batch.chunks) == 0:
        return None
    target = total_cost / 2.0
    lam = cost_model.params.lam
    chunks = list(batch.chunks)
    first = MicroBatch()
    second = MicroBatch()
    accumulated = 0.0
    index = 0
    while index < len(chunks):
        chunk = chunks[index]
        cost = cost_model.chunk_cost_of(chunk)
        marginal = cost if not first.chunks else max(0.0, cost - lam)
        if accumulated + marginal <= target:
            first.add(chunk)
            accumulated += marginal
            index += 1
            continue
        # The chunk straddles the cost boundary: split it if we can.
        remaining_budget = target - accumulated
        if first.chunks:
            remaining_budget += lam
        split_tokens = _split_chunk_by_cost(chunk, remaining_budget, cost_model)
        if split_tokens is not None and 0 < split_tokens < chunk.new_tokens:
            head, tail = chunk.split(split_tokens)
            first.add(head)
            second.add(tail)
        elif not first.chunks:
            # Unsplittable chunk bigger than half the batch: best effort.
            first.add(chunk)
        else:
            second.add(chunk)
        index += 1
        break
    for chunk in chunks[index:]:
        second.add(chunk)
    if not first.chunks or not second.chunks:
        return None
    return first, second


def lookahead_microbatches(
    chunks: List[ScheduledChunk],
    cost_model: BatchCostModel,
    *,
    min_tokens: int = 256,
    max_microbatches: int = 8,
) -> List[MicroBatch]:
    """Divide-and-conquer cost-balanced microbatch formation (Figure 11).

    ``min_tokens`` is the MIN threshold of Figure 11 (stop splitting batches
    that already have few tokens); ``max_microbatches`` bounds the leaf count
    so per-microbatch weight reloads do not dominate when costs are skewed.
    """
    if min_tokens <= 0:
        raise ValueError("min_tokens must be positive")
    if max_microbatches <= 0:
        raise ValueError("max_microbatches must be positive")
    initial = MicroBatch(chunks=list(chunks))
    if not initial.chunks:
        return []

    def balance(batch: MicroBatch, leaf_budget: int) -> List[MicroBatch]:
        if leaf_budget <= 1 or batch.total_new_tokens <= min_tokens:
            return [batch]
        split = _split_balanced(batch, cost_model)
        if split is None:
            return [batch]
        first, second = split
        left_budget = leaf_budget // 2
        right_budget = leaf_budget - left_budget
        return balance(first, left_budget) + balance(second, right_budget)

    result = balance(initial, max_microbatches)
    return [microbatch for microbatch in result if microbatch.chunks]


def make_lookahead_former(
    cost_model: BatchCostModel,
    *,
    min_tokens_floor: int = 256,
    microbatches_per_stage: int = 1,
) -> MicrobatchFormer:
    """Build a :class:`MicrobatchFormer` for serving groups.

    The ``MIN`` threshold of Figure 11 is derived online by dividing the
    total token count by the desired number of microbatches (one per stage
    keeps every stage busy without shrinking microbatches so much that
    per-microbatch weight reloads dominate), floored at ``min_tokens_floor``.
    """

    def former(batch: IterationBatch, num_stages: int) -> List[MicroBatch]:
        prefill_chunks = batch.chunks
        count = batch.decode_count
        if len(batch.decode_bases) != count:
            raise ValueError("batch.decode_bases must hold one prefix base per decode")
        if not prefill_chunks and not count:
            return []
        target_microbatches = max(2, num_stages * microbatches_per_stage)

        if prefill_chunks:
            total_tokens = sum(chunk.new_tokens for chunk in prefill_chunks)
            min_tokens = max(min_tokens_floor, total_tokens // target_microbatches)
            microbatches = lookahead_microbatches(
                prefill_chunks,
                cost_model,
                min_tokens=min_tokens,
                max_microbatches=target_microbatches,
            )
        else:
            microbatches = []

        if not microbatches:
            microbatches = [MicroBatch() for _ in range(min(target_microbatches, max(1, count)))]

        # Decodes are homogeneous (one token each); dealing them round-robin
        # in FCFS order keeps every microbatch's decode work identical so the
        # cost-balanced prefill split fully determines the balance.
        # Microbatch j of k takes decodes j, j + k, ...: ceil((count - j) / k)
        # of them, whose prefixes are their bases plus the batch's offset.
        num_microbatches = len(microbatches)
        bases, offset = batch.decode_bases, batch.decode_offset
        for j, microbatch in enumerate(microbatches[:count]):
            dealt = (count - j + num_microbatches - 1) // num_microbatches
            microbatch.decode_count = dealt
            microbatch.decode_prefix_sum = sum(bases[j:count:num_microbatches]) + dealt * offset
        return [mb for mb in microbatches if mb.chunks or mb.decode_count]

    return former
