"""Continuous-batching scheduler with chunked prefill.

This is the vLLM/Sarathi-class scheduler the paper's systems all share:
every iteration it fuses decode steps of running requests with prefill
chunks of queued requests into one batch bounded by a token budget, FCFS,
with block-granular KV accounting.  When the KV cache cannot hold the next
token it preempts the lowest-priority running request, either by discarding
its KV cache (vLLM's recompute mode) or by swapping it to host DRAM
(InferCept's mode); when even that is impossible, arriving requests queue —
which is exactly the overloading behaviour the paper studies.
"""

from __future__ import annotations

import enum
from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Deque, Dict, List, Optional

from repro.engine.batch import IterationBatch, ScheduledChunk
from repro.engine.request import Request, RequestState
from repro.memory.paged_kv import PagedKVCache


def _fcfs_key(request: Request) -> tuple:
    """FCFS priority: earlier arrivals first, ties broken by id."""
    return (request.arrival_time, request.request_id)


class PreemptionMode(enum.Enum):
    """What to do with a victim request when the KV cache is full."""

    RECOMPUTE = "recompute"
    SWAP = "swap"


@dataclass
class SchedulerConfig:
    """Scheduler tunables.

    Attributes:
        token_budget: maximum new tokens processed per iteration (chunked
            prefill budget).
        max_running_requests: cap on concurrently admitted requests.
        preemption_mode: recompute (vLLM default) or swap (InferCept).
        swap_in_watermark: fraction of KV blocks that must be free before a
            swapped-out request is brought back.
    """

    token_budget: int = 1024
    max_running_requests: int = 512
    preemption_mode: PreemptionMode = PreemptionMode.RECOMPUTE
    swap_in_watermark: float = 0.05

    def __post_init__(self) -> None:
        if self.token_budget <= 0:
            raise ValueError("token_budget must be positive")
        if self.max_running_requests <= 0:
            raise ValueError("max_running_requests must be positive")
        if not 0 <= self.swap_in_watermark < 1:
            raise ValueError("swap_in_watermark must be in [0, 1)")


@dataclass
class SchedulerHooks:
    """Callbacks the owning serving group installs.

    The scheduler makes policy decisions (who to preempt, who to swap);
    the group performs the mechanism (network / PCIe transfers, stalls).
    """

    on_preempt: Optional[Callable[[Request], None]] = None
    on_swap_out: Optional[Callable[[Request], None]] = None
    on_swap_in: Optional[Callable[[Request], None]] = None


class ContinuousBatchingScheduler:
    """Iteration-level scheduler for one serving group."""

    def __init__(
        self,
        kv_cache: PagedKVCache,
        config: Optional[SchedulerConfig] = None,
        hooks: Optional[SchedulerHooks] = None,
    ) -> None:
        self.kv = kv_cache
        self.config = config if config is not None else SchedulerConfig()
        self.hooks = hooks if hooks is not None else SchedulerHooks()
        self.waiting: Deque[Request] = deque()
        self.running: List[Request] = []
        self.swapped: List[Request] = []
        #: ids of requests in ``running``, for O(1) membership tests.
        self._running_ids: set[int] = set()
        #: ``running`` split in two lists sorted in FCFS order
        #: ``(arrival_time, request_id)``: every running request is in
        #: exactly one.  Batch formation and victim selection walk the
        #: running set in priority order; keeping sorted sibling lists
        #: (updated on the rare add/remove) replaces a per-iteration sort.
        #: ``running`` itself keeps insertion order because reconfiguration
        #: paths (KV exchange, fault recovery, group transfers) iterate it
        #: in that order and their outcomes depend on it.
        #:
        #: ``_prefilling`` holds those whose prefill is unfinished,
        #: ``_decoding`` those whose prefill is done.  A request enters one
        #: on ``_add_running`` by its prefill state, leaves on
        #: ``_remove_running``, and moves from the first to the second
        #: when ``complete_batch`` finishes its prefill.  Demand
        #: queries and the running-prefill pass visit only ``_prefilling``
        #: (a running request holds at least ``prefill_progress`` KV tokens,
        #: so one whose prefill is done has no deficit); the decode pass
        #: walks only ``_decoding``.
        #:
        #: One transition happens outside this scheduler: a request adopted
        #: mid-prefill whose prefill its previous owner's in-flight
        #: iteration then finishes (migration, KV exchange).  That owner's
        #: ``complete_batch`` cannot reach these lists, so ``form_batch``
        #: promotes such entries before its decode pass.
        self._prefilling: List[Request] = []
        self._decoding: List[Request] = []
        #: KV tokens each waiting or swapped request will need to start,
        #: stored at enqueue and subtracted at dequeue, and their sum: the
        #: dispatcher queries demand for every group on every arrival, so it
        #: reads the sum instead of rescanning the queues.
        self._queued: Dict[int, int] = {}
        self._queued_demand: int = 0
        #: True when the last ``form_batch`` had to leave work unscheduled
        #: because of insufficient KV memory (overload signal).
        self.memory_blocked: bool = False
        #: cumulative number of preemptions / swaps performed.
        self.preemption_count: int = 0
        self.swap_out_count: int = 0

    # ------------------------------------------------------------------
    # Request intake / removal
    # ------------------------------------------------------------------
    def add_request(self, request: Request, *, front: bool = False) -> None:
        """Enqueue a request: FCFS at the tail, or at the head with ``front``."""
        request.state = RequestState.QUEUED
        self._enqueue_waiting(request, front)

    def pop_waiting(self) -> Request:
        """Dequeue the head of the waiting queue."""
        request = self.waiting.popleft()
        self._untrack_queued(request)
        return request

    def add_running(self, request: Request, kv_tokens: int) -> None:
        """Adopt a request that already has ``kv_tokens`` of KV cache.

        Used when requests move between groups (migration, group merges);
        the caller guarantees the KV content is or will be present.
        """
        if kv_tokens > 0:
            self.kv.allocate(request.request_id, kv_tokens)
        request.state = RequestState.RUNNING
        self._add_running(request)

    def remove_request(self, request: Request) -> int:
        """Remove a request from all queues; returns its freed KV tokens."""
        freed_tokens = self.kv.tokens_of(request.request_id)
        self.kv.free(request.request_id)
        self._remove_running(request)
        if request.request_id in self._queued:
            self._untrack_queued(request)
            if request in self.swapped:
                self.swapped.remove(request)
            else:
                self.waiting.remove(request)
        return freed_tokens

    def _enqueue_waiting(self, request: Request, front: bool) -> None:
        remaining = request.prefill_target - request.prefill_progress
        self._track_queued(request, remaining if remaining > 0 else 0)
        if front:
            self.waiting.appendleft(request)
        else:
            self.waiting.append(request)

    def _track_queued(self, request: Request, demand: int) -> None:
        self._queued[request.request_id] = demand
        self._queued_demand += demand

    def _untrack_queued(self, request: Request) -> None:
        self._queued_demand -= self._queued.pop(request.request_id)

    def _add_running(self, request: Request) -> None:
        self.running.append(request)
        self._running_ids.add(request.request_id)
        if request.prefill_progress < request.prefill_target:
            insort(self._prefilling, request, key=_fcfs_key)
        else:
            self._start_decoding(request)

    def _remove_running(self, request: Request) -> None:
        if request.request_id in self._running_ids:
            self.running.remove(request)
            self._running_ids.discard(request.request_id)
            if request in self._prefilling:
                self._prefilling.remove(request)
            else:
                self._decoding.remove(request)
            request.decode_chunk = None
            request.decode_table = None

    def _start_decoding(self, request: Request) -> None:
        """Enter ``request``, whose prefill is done, into ``_decoding``.

        It holds its block table from here: every path that can free or
        replace the table (preemption, swap-out, migration, finish) leaves
        the running set first, which drops the held one.
        """
        insort(self._decoding, request, key=_fcfs_key)
        request.decode_table = self.kv._tables.get(request.request_id)

    def _promote_prefilled(self) -> None:
        """Move ``_prefilling`` entries whose prefill is done to
        ``_decoding``: those whose previous owner finished the prefill."""
        done = [r for r in self._prefilling if r.prefill_progress >= r.prefill_target]
        for request in done:
            self._prefilling.remove(request)
            self._start_decoding(request)

    def is_running(self, request: Request) -> bool:
        """O(1) membership test against the running list."""
        return request.request_id in self._running_ids

    # ------------------------------------------------------------------
    # Load queries (used by dispatcher / monitor)
    # ------------------------------------------------------------------
    @property
    def num_waiting(self) -> int:
        return len(self.waiting)

    @property
    def num_running(self) -> int:
        return len(self.running)

    @property
    def num_swapped(self) -> int:
        return len(self.swapped)

    def used_kv_tokens(self) -> int:
        return self.kv.used_tokens

    def queued_demand_tokens(self) -> int:
        """KV tokens the queued (and swapped) requests will need to start.

        A waiting request needs its remaining prefill, a swapped one its
        context at swap-out; neither changes while the request is queued.
        """
        return self._queued_demand

    def total_demand_tokens(self) -> int:
        """In-processing plus head-of-line demand (the paper's load metric).

        Running requests count their resident KV plus the prefill they still
        have to ingest; queued and swapped requests count in full.
        """
        tables = self.kv._tables
        running_remaining = 0
        for r in self._prefilling:
            table = tables.get(r.request_id)
            deficit = r.prefill_target - (table.num_tokens if table is not None else 0)
            if deficit > 0:
                running_remaining += deficit
        return self.kv.used_tokens + running_remaining + self._queued_demand

    def next_stall_expiry(self, now: float) -> Optional[float]:
        """Earliest future time at which a stalled request becomes runnable."""
        times = [
            r.stall_until
            for r in list(self.running) + list(self.waiting)
            if r.stall_until > now
        ]
        return min(times) if times else None

    # ------------------------------------------------------------------
    # Batch formation
    # ------------------------------------------------------------------
    def form_batch(self, now: float) -> IterationBatch:
        """Build the next iteration's batch (decodes first, then prefill)."""
        self.memory_blocked = False
        batch = IterationBatch()
        budget = self.config.token_budget

        self._try_swap_in(now)
        self._promote_prefilled()

        # Each request contributes at most one chunk (the batch counts
        # requests by chunks): a decode, a running prefill, or the
        # admission of a waiting request (a request preempted by the
        # decode pass was never given a chunk before).
        budget = self._schedule_decodes(batch, budget, now)
        budget = self._schedule_running_prefills(batch, budget, now)
        self._admit_waiting(batch, budget, now)
        return batch

    def _schedule_decodes(self, batch: IterationBatch, budget: int, now: float) -> int:
        # The hottest loop of the simulation: one step per decoding request
        # per iteration, allocating nothing after a request's first decode
        # here.  ``_decoding`` is already in
        # FCFS order and holds only requests whose prefill is done.  Each
        # holds its KV block table (from when it entered the list) and its
        # decode chunk (from its first decode here), both dropped when it
        # leaves running, so the one-token KV grow touches no dict and the
        # chunk is recycled.  Consumers of a chunk (latency model,
        # completion, tracer, listeners) all read it within the iteration
        # that scheduled it, before the next ``form_batch`` can touch its
        # prefix again.  The used-token count of grows that take no new
        # block is added once, before any slow path and at the end.  The
        # pass runs first, on an empty batch, and records the count and
        # prefix sum of the decodes it appends for the latency model; the
        # count is also the batch's new tokens and requests so far.
        #
        # A preemption inside the walk removes entries from ``_decoding``:
        # victims rank strictly behind the current request, so the walk
        # simply never reaches them; a request that preempts itself does so
        # because no unfinished running request ranks behind it, so nothing
        # after it could decode and the walk stops.
        finished_state = RequestState.FINISHED
        kv = self.kv
        block_size = kv.block_size
        chunk_append = batch.chunks.append
        appended = 0
        prefix_sum = 0
        for request in self._decoding:
            if request.state is finished_state or now < request.stall_until:
                continue
            table = request.decode_table
            if table is not None and table.num_tokens < table.num_blocks * block_size:
                table.num_tokens += 1
                appended += 1
            elif table is not None and kv._used_blocks < kv._num_blocks:
                table.num_blocks += 1
                table.num_tokens += 1
                kv._used_blocks += 1
                appended += 1
            else:
                kv._used_tokens += appended
                appended = 0
                if not self._append_decode_token(request, now):
                    break
            # ``context_tokens`` of a request whose prefill is done: its
            # prefill target never exceeds prompt plus generated tokens.
            prefix = request.prompt_tokens + request.output_tokens
            chunk = request.decode_chunk
            if chunk is None:
                chunk = ScheduledChunk(request, prefix, 1, True)
                request.decode_chunk = chunk
            else:
                chunk.prefix_tokens = prefix
            prefix_sum += prefix
            chunk_append(chunk)
            budget -= 1
            if budget <= 0:
                break
        kv._used_tokens += appended
        decodes = len(batch.chunks)
        batch.decode_count = decodes
        batch.decode_prefix_sum = prefix_sum
        batch.total_new_tokens = decodes
        batch.num_requests = decodes
        return budget

    def _append_decode_token(self, request: Request, now: float) -> bool:
        """The decode pass's slow path: grow ``request``'s KV by one token
        when the cache is full (or the request holds no KV yet).

        Preempts lower-priority requests to make room.  When none is left,
        the request itself is the lowest-priority one and is preempted
        (vLLM's behaviour) rather than holding memory; returns False then.
        """
        kv = self.kv
        rid = request.request_id
        if request.decode_table is not None or kv.append_token(rid) is None:
            if not self._make_room(request, 1, now):
                self.memory_blocked = True
                self._preempt(request, now)
                return False
            kv.allocate(rid, 1)
        request.decode_table = kv._tables[rid]
        return True

    def _schedule_running_prefills(self, batch: IterationBatch, budget: int, now: float) -> int:
        # ``_prefilling`` holds, in FCFS order, every running request whose
        # prefill is unfinished (``form_batch`` promoted the rest); nothing
        # in this pass adds or removes running requests.
        for request in self._prefilling:
            if budget <= 0:
                break
            if now < request.stall_until:
                continue
            chunk_tokens = min(budget, request.remaining_prefill_tokens)
            chunk_tokens = self._fit_to_memory(request, chunk_tokens)
            if chunk_tokens <= 0:
                self.memory_blocked = True
                continue
            self.kv.allocate(request.request_id, chunk_tokens)
            batch.add(
                ScheduledChunk(
                    request=request,
                    prefix_tokens=request.prefill_progress,
                    new_tokens=chunk_tokens,
                )
            )
            budget -= chunk_tokens
        return budget

    def _admit_waiting(self, batch: IterationBatch, budget: int, now: float) -> int:
        while budget > 0 and self.waiting and len(self.running) < self.config.max_running_requests:
            request = self.waiting[0]
            if request.is_stalled(now):
                break
            chunk_tokens = min(budget, request.remaining_prefill_tokens)
            chunk_tokens = self._fit_to_memory(request, chunk_tokens)
            if chunk_tokens <= 0:
                # Head-of-line blocking: FCFS admission does not skip ahead.
                self.memory_blocked = True
                break
            self.pop_waiting()
            request.state = RequestState.RUNNING
            self._add_running(request)
            self.kv.allocate(request.request_id, chunk_tokens)
            batch.add(
                ScheduledChunk(
                    request=request,
                    prefix_tokens=request.prefill_progress,
                    new_tokens=chunk_tokens,
                )
            )
            budget -= chunk_tokens
        return budget

    def _fit_to_memory(self, request: Request, desired_tokens: int) -> int:
        """Largest prefix of ``desired_tokens`` the KV cache can hold now."""
        if desired_tokens <= 0:
            return 0
        if self.kv.can_allocate(request.request_id, desired_tokens):
            return desired_tokens
        current = self.kv.tokens_of(request.request_id)
        slack_in_tail = self.kv.blocks_for_tokens(current) * self.kv.block_size - current
        available = slack_in_tail + self.kv.free_blocks * self.kv.block_size
        return max(0, min(desired_tokens, available))

    # ------------------------------------------------------------------
    # Preemption
    # ------------------------------------------------------------------
    def _make_room(self, for_request: Request, tokens_needed: int, now: float) -> bool:
        """Preempt later-arrived requests until ``for_request`` fits."""
        while not self.kv.can_allocate(for_request.request_id, tokens_needed):
            victim = self._pick_victim(exclude=for_request)
            if victim is None:
                return False
            self._preempt(victim, now)
        return True

    def _pick_victim(self, exclude: Request) -> Optional[Request]:
        """Lowest-priority (latest-arrived) running request strictly behind
        ``exclude`` in FCFS order — a request is never evicted for the sake
        of a lower-priority one.

        ``_prefilling`` and ``_decoding`` are sorted by ``(arrival_time,
        request_id)`` and that key is unique, so the victim is the later of
        each list's last unfinished entry with a key greater than
        ``exclude``'s; scanning each from the tail finds it without
        materialising and maxing a candidate list.
        """
        exclude_key = (exclude.arrival_time, exclude.request_id)
        finished_state = RequestState.FINISHED
        victim: Optional[Request] = None
        victim_key = exclude_key
        for ranked in (self._prefilling, self._decoding):
            for r in reversed(ranked):
                key = (r.arrival_time, r.request_id)
                if key <= victim_key:
                    break
                if r.state is not finished_state:
                    victim = r
                    victim_key = key
                    break
        return victim

    def _preempt(self, victim: Request, now: float) -> None:
        if not self.is_running(victim):
            return
        self.kv.free(victim.request_id)
        self._remove_running(victim)
        if self.config.preemption_mode == PreemptionMode.RECOMPUTE:
            victim.reset_for_recompute()
            self._enqueue_waiting(victim, True)
            self.preemption_count += 1
            if self.hooks.on_preempt is not None:
                self.hooks.on_preempt(victim)
        else:
            victim.state = RequestState.SWAPPED
            victim.swap_count += 1
            self.swapped.append(victim)
            self._track_queued(victim, victim.context_tokens)
            self.swap_out_count += 1
            if self.hooks.on_swap_out is not None:
                self.hooks.on_swap_out(victim)

    def _try_swap_in(self, now: float) -> None:
        """Bring back swapped requests once memory has pressure has eased."""
        if not self.swapped:
            return
        watermark_blocks = int(self.kv.num_blocks * self.config.swap_in_watermark)
        candidates = sorted(self.swapped, key=lambda r: (r.arrival_time, r.request_id))
        for request in candidates:
            if request.is_stalled(now):
                continue
            if len(self.running) >= self.config.max_running_requests:
                break
            tokens = request.context_tokens
            needed_blocks = self.kv.blocks_for_tokens(tokens)
            if self.kv.free_blocks - needed_blocks < watermark_blocks:
                break
            self.kv.allocate(request.request_id, tokens)
            self.swapped.remove(request)
            self._untrack_queued(request)
            request.state = RequestState.RUNNING
            self._add_running(request)
            if self.hooks.on_swap_in is not None:
                self.hooks.on_swap_in(request)

    # ------------------------------------------------------------------
    # Batch completion
    # ------------------------------------------------------------------
    def complete_batch(self, batch: IterationBatch, end_time: float) -> List[Request]:
        """Apply the effects of an executed batch; returns finished requests."""
        finished: List[Request] = []
        finished_state = RequestState.FINISHED
        chunks = batch.chunks
        # The leading decode run holds one chunk per request: inlined
        # ``request.record_output_token(end_time)``, one step per generated
        # token of the whole simulation.  A request finishes exactly when
        # its count reaches ``max_output_tokens`` (a finished request's
        # count never drops below it).
        for chunk in islice(chunks, batch.decode_count):
            request = chunk.request
            last = request.last_token_time
            if last is None:
                request.first_token_time = end_time
            else:
                request.tpot_sum += end_time - last
            request.last_token_time = end_time
            tokens = request.output_tokens + 1
            request.output_tokens = tokens
            if tokens >= request.max_output_tokens:
                request.state = finished_state
                request.finish_time = end_time
                finished.append(request)
        # The rest are prefill chunks, one per request and none of a
        # request decoded above.
        prefilling = self._prefilling
        for chunk in islice(chunks, batch.decode_count, None):
            request = chunk.request
            request.record_prefill(chunk.new_tokens, end_time)
            if request.prefill_progress >= request.prefill_target:
                # A request migrated away while this iteration ran is in
                # the new owner's list, not in this one; the new owner
                # promotes it when it next forms a batch.
                if request in prefilling:
                    prefilling.remove(request)
                    self._start_decoding(request)
                if request.output_tokens == 0:
                    request.record_output_token(end_time)
            if request.state is finished_state:
                finished.append(request)
        for request in finished:
            self.kv.free(request.request_id)
            self._remove_running(request)
        return finished

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Scheduler(waiting={self.num_waiting}, running={self.num_running}, "
            f"swapped={self.num_swapped}, kv_used={self.kv.used_blocks}/"
            f"{self.kv.num_blocks})"
        )
