"""Request model: one LLM inference request through its lifetime.

A request arrives with a prompt of ``prompt_tokens`` tokens and generates up
to ``max_output_tokens`` output tokens.  The engine moves it through states:

``QUEUED`` -> ``RUNNING`` (prefill, possibly chunked, then decode)
-> ``FINISHED``, with detours through ``PREEMPTED`` (KV dropped, must
re-prefill), ``SWAPPED`` (KV in host DRAM), ``MIGRATING`` (KV moving to
another instance) or ``EXCHANGING`` (KV being redistributed after a
parameter drop).

The request keeps the time of its first and latest token, so TTFT and mean
TPOT follow as the paper defines them without storing a time per token.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.engine.scheduler import ContinuousBatchingScheduler

_request_counter = itertools.count()


class RequestState(enum.Enum):
    """Lifecycle states of a request inside the serving system."""

    QUEUED = "queued"
    RUNNING = "running"
    PREEMPTED = "preempted"
    SWAPPED = "swapped"
    MIGRATING = "migrating"
    EXCHANGING = "exchanging"
    FINISHED = "finished"


@dataclass(eq=False, slots=True)
class Request:
    """One inference request.

    Requests compare (and hash) by identity: every submitted request is a
    distinct object, and the scheduler's queue-membership checks (list
    ``remove`` / ``in`` on its running lists) would otherwise run a
    generated field-by-field ``__eq__`` per element.  Slotted because
    nearly every hot loop reads request fields, and slot access skips the
    per-instance dict.

    Per-token state is three scalars, updated in place: the output token
    count and the first and latest token times.  ``mean_tpot`` is the span
    from the first to the latest token over the number of gaps between
    them: the mean gap in real arithmetic, computed with one subtraction
    and one division, so it is the same on every interpreter and for every
    order in which the tokens were credited.

    Attributes:
        request_id: unique id (auto-assigned when negative).
        arrival_time: submission time in simulation seconds.
        prompt_tokens: number of input tokens.
        max_output_tokens: output length (the simulation knows it upfront;
            the scheduler does not use it for admission decisions, matching
            real systems where output length is unknown).
        slo_class: label used by SLO accounting ("chat" or "summary");
            doubles as the tenant key for fleet admission control.
        session_id: optional sticky-session key; the fleet layer's
            session-affinity router maps equal keys to the same group.
    """

    arrival_time: float
    prompt_tokens: int
    max_output_tokens: int
    request_id: int = -1
    slo_class: str = "chat"
    session_id: Optional[str] = None

    # --- dynamic state ------------------------------------------------
    state: RequestState = RequestState.QUEUED
    prefill_progress: int = 0
    #: tokens that must be prefilled before decoding can (re)start; equals
    #: ``prompt_tokens`` initially and grows when a preemption forces the
    #: request to recompute the KV of already-generated tokens.
    prefill_target: int = 0
    output_tokens: int = 0
    #: simulation time before which the request must not be scheduled
    #: (KV exchange / swap-in / migration in flight).
    stall_until: float = 0.0
    #: id of the serving group currently owning the request's KV cache.
    owner_group: Optional[int] = None
    #: number of times the request was preempted-and-recomputed.
    preemption_count: int = 0
    #: number of times the request was swapped out.
    swap_count: int = 0
    #: number of times the request was migrated between instances.
    migration_count: int = 0

    # --- timestamps -----------------------------------------------------
    first_scheduled_time: Optional[float] = None
    first_token_time: Optional[float] = None
    finish_time: Optional[float] = None
    #: emission time of the latest output token.
    last_token_time: Optional[float] = None

    # --- scheduler scratch ------------------------------------------------
    #: the scheduler whose running set holds the request (``None`` while it
    #: is queued, swapped, in flight between groups or finished).
    scheduler: Optional["ContinuousBatchingScheduler"] = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.request_id < 0:
            self.request_id = next(_request_counter)
        if self.prompt_tokens <= 0:
            raise ValueError(f"prompt_tokens must be positive, got {self.prompt_tokens}")
        if self.max_output_tokens <= 0:
            raise ValueError(
                f"max_output_tokens must be positive, got {self.max_output_tokens}"
            )
        if self.prefill_target <= 0:
            self.prefill_target = self.prompt_tokens

    # ------------------------------------------------------------------
    # Progress queries
    # ------------------------------------------------------------------
    @property
    def prefill_done(self) -> bool:
        return self.prefill_progress >= self.prefill_target

    @property
    def remaining_prefill_tokens(self) -> int:
        return max(0, self.prefill_target - self.prefill_progress)

    @property
    def finished(self) -> bool:
        return self.state == RequestState.FINISHED

    @property
    def context_tokens(self) -> int:
        """Tokens currently in the request's context (prefill + generated).

        After a recompute-preemption the generated tokens are folded into
        ``prefill_target``, so they are not double counted here.
        """
        generated_beyond_target = max(0, self.prompt_tokens + self.output_tokens - self.prefill_target)
        return self.prefill_progress + generated_beyond_target

    @property
    def kv_tokens(self) -> int:
        """Tokens whose KV cache must be resident to continue the request."""
        return self.context_tokens

    @property
    def total_tokens(self) -> int:
        """Final context length when the request completes."""
        return self.prompt_tokens + self.max_output_tokens

    def is_stalled(self, now: float) -> bool:
        """Is the request blocked on a transfer at time ``now``?"""
        return now < self.stall_until

    # ------------------------------------------------------------------
    # State transitions used by the engine
    # ------------------------------------------------------------------
    def record_prefill(self, tokens: int, now: float) -> None:
        """Account ``tokens`` of prefill progress at time ``now``."""
        if tokens < 0:
            raise ValueError("tokens must be >= 0")
        if self.first_scheduled_time is None:
            self.first_scheduled_time = now
        self.prefill_progress = min(self.prefill_target, self.prefill_progress + tokens)

    def record_output_token(self, now: float) -> None:
        """Account one generated token emitted at time ``now``."""
        if self.last_token_time is None:
            self.first_token_time = now
        self.last_token_time = now
        self.output_tokens += 1
        if self.output_tokens >= self.max_output_tokens:
            self.state = RequestState.FINISHED
            self.finish_time = now

    def reset_for_recompute(self) -> None:
        """Drop all progress that depended on the (now discarded) KV cache.

        Generated tokens were already streamed to the client and are kept;
        the recompute rebuilds the KV cache for prompt + generated prefix,
        so the prefill target grows to the full current context.
        """
        self.prefill_target = self.prompt_tokens + self.output_tokens
        self.prefill_progress = 0
        self.preemption_count += 1
        self.state = RequestState.PREEMPTED

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    @property
    def ttft(self) -> Optional[float]:
        """Time to first token (None until the first token is emitted)."""
        if self.first_token_time is None:
            return None
        return self.first_token_time - self.arrival_time

    @property
    def mean_tpot(self) -> Optional[float]:
        """Mean gap between consecutive output tokens (None below two)."""
        if self.output_tokens < 2:
            return None
        return (self.last_token_time - self.first_token_time) / (self.output_tokens - 1)

    @property
    def e2e_latency(self) -> Optional[float]:
        if self.finish_time is None:
            return None
        return self.finish_time - self.arrival_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Request(id={self.request_id}, state={self.state.value}, "
            f"prompt={self.prompt_tokens}, out={self.output_tokens}/"
            f"{self.max_output_tokens})"
        )
