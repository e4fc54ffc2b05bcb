"""Batches and microbatches.

An *iteration batch* is the set of work one engine iteration performs: a mix
of decode steps (one token per running request) and prefill chunks (part or
all of a queued request's prompt), exactly as in chunked-prefill engines.

Prefill chunks are listed one by one.  Decode steps are not: each is one
token whose prefix is its request's context, so a batch or microbatch
carries them as a ``(decode_count, decode_prefix_sum)`` summary, which is
all the latency model needs to price them.

For pipelined execution the iteration batch is further divided into
*microbatches* that flow through the pipeline stages; how that division is
done (token-count based vs. lookahead cost-balanced) is the subject of §4.3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.engine.request import Request


class ScheduledChunk:
    """A prefill chunk: part or all of one request's prompt within a batch.

    A plain ``__slots__`` class rather than a dataclass: chunks are
    allocated on every prefill and every lookahead split, and the generated
    dataclass ``__init__`` + ``__post_init__`` indirection measurably
    dominated batch formation.

    Attributes:
        request: the request being advanced.
        prefix_tokens: context tokens already processed (their KV is read by
            attention but they are not re-computed).
        new_tokens: tokens processed by this chunk.
    """

    __slots__ = ("request", "prefix_tokens", "new_tokens")

    def __init__(self, request: Request, prefix_tokens: int, new_tokens: int) -> None:
        if prefix_tokens < 0:
            raise ValueError("prefix_tokens must be >= 0")
        if new_tokens <= 0:
            raise ValueError("new_tokens must be positive")
        self.request = request
        self.prefix_tokens = prefix_tokens
        self.new_tokens = new_tokens

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ScheduledChunk(request={self.request!r}, "
            f"prefix_tokens={self.prefix_tokens}, new_tokens={self.new_tokens})"
        )

    def split(self, first_tokens: int) -> tuple["ScheduledChunk", "ScheduledChunk"]:
        """Split the chunk into two consecutive chunks.

        The second chunk's prefix includes the first chunk's tokens, which is
        what makes later chunks more expensive (they attend over the earlier
        ones) — the effect the lookahead cost model captures.
        """
        if not 0 < first_tokens < self.new_tokens:
            raise ValueError(
                f"first_tokens must be in (0, {self.new_tokens}), got {first_tokens}"
            )
        first = ScheduledChunk(
            request=self.request,
            prefix_tokens=self.prefix_tokens,
            new_tokens=first_tokens,
        )
        second = ScheduledChunk(
            request=self.request,
            prefix_tokens=self.prefix_tokens + first_tokens,
            new_tokens=self.new_tokens - first_tokens,
        )
        return first, second


@dataclass(slots=True)
class MicroBatch:
    """Work executed together on one pipeline stage pass: prefill chunks
    plus ``decode_count`` decode steps whose prefixes sum to
    ``decode_prefix_sum``."""

    chunks: List[ScheduledChunk] = field(default_factory=list)
    decode_count: int = 0
    decode_prefix_sum: int = 0

    @property
    def num_chunks(self) -> int:
        return len(self.chunks) + self.decode_count

    @property
    def total_new_tokens(self) -> int:
        return sum(c.new_tokens for c in self.chunks) + self.decode_count

    def add(self, chunk: ScheduledChunk) -> None:
        self.chunks.append(chunk)


@dataclass(slots=True)
class IterationBatch:
    """All work performed by one engine iteration.

    ``chunks`` holds the prefill chunks, one per request.  The decode
    steps, one per decoding request the scheduler advanced, are summarised:
    ``decode_count`` of them whose prefixes sum to ``decode_prefix_sum``,
    which :meth:`LatencyModel.batch_time` prices in closed form.  The
    prefix of the i-th decode in FCFS order is ``decode_bases[i] +
    decode_offset``; the microbatch formers deal decodes from those.  The
    scheduler sets ``decode_offset`` when it forms the batch, and a
    pipelined group fills ``decode_bases`` with a copy of the scheduler's
    (:meth:`ContinuousBatchingScheduler.decode_bases`) before dealing;
    otherwise it stays empty.
    ``total_new_tokens`` and ``num_requests`` count the batch's new tokens
    and requests; :meth:`add` keeps them, starting from the decode count.
    """

    chunks: List[ScheduledChunk] = field(default_factory=list)
    decode_count: int = 0
    decode_prefix_sum: int = 0
    decode_bases: Sequence[int] = ()
    decode_offset: int = 0
    total_new_tokens: int = 0
    num_requests: int = 0

    @property
    def empty(self) -> bool:
        return not self.chunks and not self.decode_count

    def add(self, chunk: ScheduledChunk) -> None:
        self.chunks.append(chunk)
        self.total_new_tokens += chunk.new_tokens
        self.num_requests += 1
