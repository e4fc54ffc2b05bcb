"""Token-count-based microbatch formation (the state of the art, §4.3).

Modern pipelined engines (Sarathi-Serve, vLLM) form microbatches by token
count: chunks are packed greedily until a token budget is hit, splitting a
prefill chunk when it does not fit (decode steps are never split).  This
balances *token counts*, not execution time — the inefficiency Figure 9
illustrates and the lookahead formulation fixes.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.engine.batch import IterationBatch, MicroBatch, ScheduledChunk


def token_count_microbatches(
    chunks: Iterable[ScheduledChunk],
    token_budget: int,
    lead: Optional[MicroBatch] = None,
) -> List[MicroBatch]:
    """Pack prefill chunks into microbatches of at most ``token_budget``
    new tokens.

    Chunks are taken in order (FCFS); a chunk that exceeds the remaining
    budget of the current microbatch is split so the first part fills the
    microbatch and the rest starts the next one (chunked prefill).
    ``lead``, a microbatch already holding fewer than ``token_budget``
    decodes, is filled first.
    """
    if token_budget <= 0:
        raise ValueError("token_budget must be positive")

    microbatches: List[MicroBatch] = []
    current = lead if lead is not None else MicroBatch()
    remaining = token_budget - current.decode_count
    pending: List[ScheduledChunk] = list(chunks)
    index = 0
    while index < len(pending):
        chunk = pending[index]
        if chunk.new_tokens <= remaining:
            current.chunks.append(chunk)
            remaining -= chunk.new_tokens
            index += 1
        else:
            first, pending[index] = chunk.split(remaining)
            current.chunks.append(first)
            remaining = 0
        if remaining == 0:
            microbatches.append(current)
            current = MicroBatch()
            remaining = token_budget
    if current.chunks or current.decode_count:
        microbatches.append(current)
    return microbatches


def split_into_n_microbatches(batch: IterationBatch, num_microbatches: int) -> List[MicroBatch]:
    """Token-count split targeting a fixed number of microbatches.

    Used by the pipeline-parallel baseline: the iteration batch is split
    into ``num_microbatches`` pieces of (roughly) equal token count so every
    stage has work.  The split is still token-count based, i.e. it inherits
    the imbalance problem of Figure 9(b).  The batch's decodes lead, so
    each microbatch takes a contiguous FCFS range of them, and its prefill
    chunks fill what budget is left.
    """
    if num_microbatches <= 0:
        raise ValueError("num_microbatches must be positive")
    count = batch.decode_count
    if len(batch.decode_bases) != count:
        raise ValueError("batch.decode_bases must hold one prefix base per decode")
    total_tokens = count + sum(c.new_tokens for c in batch.chunks)
    if total_tokens == 0:
        return []
    budget = max(1, -(-total_tokens // num_microbatches))
    bases, offset = batch.decode_bases, batch.decode_offset
    microbatches = []
    for start in range(0, count, budget):
        size = min(budget, count - start)
        prefix_sum = sum(bases[start:start + size]) + size * offset
        microbatches.append(MicroBatch(decode_count=size, decode_prefix_sum=prefix_sum))
    lead = None
    if microbatches and microbatches[-1].decode_count < budget:
        lead = microbatches.pop()
    microbatches.extend(token_count_microbatches(batch.chunks, budget, lead))
    return microbatches
