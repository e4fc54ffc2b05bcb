"""Batches and microbatches.

An *iteration batch* is the set of work one engine iteration performs: a mix
of decode steps (one token per running request) and prefill chunks (part or
all of a queued request's prompt), exactly as in chunked-prefill engines.

For pipelined execution the iteration batch is further divided into
*microbatches* that flow through the pipeline stages; how that division is
done (token-count based vs. lookahead cost-balanced) is the subject of §4.3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.engine.request import Request


class ScheduledChunk:
    """A unit of work for one request within a batch.

    A plain ``__slots__`` class rather than a dataclass: one chunk is
    allocated per scheduled token batch for the whole simulation (hundreds
    of thousands per run), and the generated dataclass ``__init__`` +
    ``__post_init__`` indirection measurably dominates batch formation.

    Attributes:
        request: the request being advanced.
        prefix_tokens: context tokens already processed (their KV is read by
            attention but they are not re-computed).
        new_tokens: tokens processed by this chunk — a prefill chunk of the
            prompt, or 1 for a decode step.
        is_decode: True when this chunk is a decode step.
    """

    __slots__ = ("request", "prefix_tokens", "new_tokens", "is_decode")

    def __init__(
        self,
        request: Request,
        prefix_tokens: int,
        new_tokens: int,
        is_decode: bool = False,
    ) -> None:
        if prefix_tokens < 0:
            raise ValueError("prefix_tokens must be >= 0")
        if new_tokens <= 0:
            raise ValueError("new_tokens must be positive")
        if is_decode and new_tokens != 1:
            raise ValueError("decode chunks process exactly one token")
        self.request = request
        self.prefix_tokens = prefix_tokens
        self.new_tokens = new_tokens
        self.is_decode = is_decode

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ScheduledChunk(request={self.request!r}, "
            f"prefix_tokens={self.prefix_tokens}, new_tokens={self.new_tokens}, "
            f"is_decode={self.is_decode})"
        )

    def split(self, first_tokens: int) -> tuple["ScheduledChunk", "ScheduledChunk"]:
        """Split a prefill chunk into two consecutive chunks.

        The second chunk's prefix includes the first chunk's tokens, which is
        what makes later chunks more expensive (they attend over the earlier
        ones) — the effect the lookahead cost model captures.
        """
        if self.is_decode:
            raise ValueError("cannot split a decode chunk")
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
    """A set of chunks executed together on one pipeline stage pass."""

    chunks: List[ScheduledChunk] = field(default_factory=list)

    @property
    def num_chunks(self) -> int:
        return len(self.chunks)

    @property
    def total_new_tokens(self) -> int:
        return sum(c.new_tokens for c in self.chunks)

    @property
    def num_decode_chunks(self) -> int:
        return sum(1 for c in self.chunks if c.is_decode)

    def add(self, chunk: ScheduledChunk) -> None:
        self.chunks.append(chunk)

    def __iter__(self):
        return iter(self.chunks)

    def __len__(self) -> int:
        return len(self.chunks)


@dataclass(slots=True)
class IterationBatch:
    """All work performed by one engine iteration.

    ``decode_count`` and ``decode_prefix_sum`` summarise the run of decode
    chunks leading ``chunks`` (the scheduler schedules decodes first, one
    per request); :meth:`LatencyModel.batch_time` prices that run in closed
    form and ``complete_batch`` walks it without per-chunk branching.
    ``total_new_tokens`` and ``num_requests`` count the batch's new tokens
    and chunks (a request contributes at most one chunk); :meth:`add`
    keeps them, and the scheduler's decode pass, which appends to
    ``chunks`` directly, starts them at its decode count.
    """

    chunks: List[ScheduledChunk] = field(default_factory=list)
    decode_count: int = 0
    decode_prefix_sum: int = 0
    total_new_tokens: int = 0
    num_requests: int = 0

    @property
    def decode_chunks(self) -> List[ScheduledChunk]:
        return [c for c in self.chunks if c.is_decode]

    @property
    def prefill_chunks(self) -> List[ScheduledChunk]:
        return [c for c in self.chunks if not c.is_decode]

    @property
    def empty(self) -> bool:
        return not self.chunks

    def add(self, chunk: ScheduledChunk) -> None:
        self.chunks.append(chunk)
        self.total_new_tokens += chunk.new_tokens
        self.num_requests += 1

    def __iter__(self):
        return iter(self.chunks)

    def __len__(self) -> int:
        return len(self.chunks)
