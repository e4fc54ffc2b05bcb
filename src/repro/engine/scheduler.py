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
        #: ids of requests in ``running`` — membership tests happen per
        #: candidate per iteration, so they must be O(1), not list scans.
        self._running_ids: set[int] = set()
        #: one reusable ``(chunk, table)`` pair per request: a running
        #: request decodes for hundreds of iterations and only its prefix
        #: changes between them, so the chunk object is recycled instead of
        #: reallocated, and its block table rides along to spare a lookup.
        #: Consumers (latency model, completion, tracer, listeners) all read
        #: chunks within the iteration that scheduled them, before the next
        #: ``form_batch`` can touch the prefix again.  Entries are dropped in
        #: ``_remove_running``: every path that can replace a request's block
        #: table (preemption, swap-out, migration, finish) leaves the running
        #: set first, so a live entry's table is always current.
        self._decode_chunks: Dict[int, tuple] = {}
        #: ``running`` maintained in FCFS order ``(arrival_time, request_id)``.
        #: Batch formation and victim selection consume the running set in
        #: priority order every iteration; keeping a sorted sibling list
        #: (updated on the rare add/remove) replaces a per-iteration sort.
        #: ``running`` itself keeps insertion order because reconfiguration
        #: paths (KV exchange, fault recovery, group transfers) iterate it
        #: in that order and their outcomes depend on it.
        self._running_fcfs: List[Request] = []
        #: running requests still prefilling, FCFS-sorted like
        #: ``_running_fcfs``.  Entered on ``_add_running`` when
        #: ``prefill_progress < prefill_target``; left on ``_remove_running``
        #: or when ``complete_batch`` finishes the prefill.  Demand queries
        #: and the running-prefill pass visit only this list: a running
        #: request holds at least ``prefill_progress`` KV tokens, so one
        #: whose prefill is done has no deficit.
        self._prefilling: List[Request] = []
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
        insort(self._running_fcfs, request, key=_fcfs_key)
        self._running_ids.add(request.request_id)
        if request.prefill_progress < request.prefill_target:
            insort(self._prefilling, request, key=_fcfs_key)

    def _remove_running(self, request: Request) -> None:
        if request.request_id in self._running_ids:
            self.running.remove(request)
            self._running_fcfs.remove(request)
            self._running_ids.discard(request.request_id)
            self._decode_chunks.pop(request.request_id, None)
            if request in self._prefilling:
                self._prefilling.remove(request)

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

    def has_pending_work(self, now: float) -> bool:
        """Is there any work that could be scheduled at or after ``now``?"""
        if self.waiting:
            return True
        for request in self.running:
            if not request.finished:
                return True
        return bool(self.swapped)

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

        budget = self._schedule_decodes(batch, budget, now)
        budget = self._schedule_running_prefills(batch, budget, now)
        self._admit_waiting(batch, budget, now)
        return batch

    def _schedule_decodes(self, batch: IterationBatch, budget: int, now: float) -> int:
        # The hottest loop of the simulation: one pass per running request
        # per iteration.  ``_running_fcfs`` is already in FCFS order (no
        # per-iteration sort), the state checks inline the ``prefill_done``
        # / ``finished`` / ``is_stalled`` properties, and the one-token KV
        # grow goes through the allocator's ``append_token`` fast path.  The
        # pass runs first, on an empty batch, and records the count and
        # prefix sum of the decodes it appends for the latency model.
        finished_state = RequestState.FINISHED
        candidates = [
            r
            for r in self._running_fcfs
            if r.prefill_progress >= r.prefill_target
            and r.state is not finished_state
            and now >= r.stall_until
        ]
        kv = self.kv
        tables = kv._tables
        block_size = kv.block_size
        running_ids = self._running_ids
        chunk_append = batch.chunks.append
        decode_chunks = self._decode_chunks
        # Candidates are all running when the pass starts; only a preemption
        # inside this loop can evict one, so the membership re-check is
        # skipped until the first eviction happens.
        evicted = False
        prefix_sum = 0
        for request in candidates:
            if budget <= 0:
                break
            rid = request.request_id
            if evicted and rid not in running_ids:
                # Already evicted earlier in this pass to make room for a
                # higher-priority request.
                continue
            entry = decode_chunks.get(rid)
            if entry is not None and entry[0].request is request:
                chunk, table = entry
                # Steady-state decode: the cached table is current (entries
                # are invalidated whenever the request leaves running), so
                # the one-token KV grow touches no dict at all.
                if table.num_tokens < table.num_blocks * block_size:
                    table.num_tokens += 1
                    kv._used_tokens += 1
                elif kv._used_blocks < kv._num_blocks:
                    table.num_blocks += 1
                    table.num_tokens += 1
                    kv._used_blocks += 1
                    kv._used_tokens += 1
                else:
                    if not self._make_room(request, 1, now):
                        # No lower-priority victim exists: the request itself
                        # is the lowest priority one, so it gets preempted
                        # (vLLM's behaviour) rather than holding memory.
                        self.memory_blocked = True
                        self._preempt(request, now)
                        evicted = True
                        continue
                    evicted = True
                    if rid not in running_ids:
                        continue
                    kv.allocate(rid, 1)
                beyond = request.prompt_tokens + request.output_tokens - request.prefill_target
                prefix = request.prefill_progress + (beyond if beyond > 0 else 0)
                chunk.prefix_tokens = prefix
                prefix_sum += prefix
                chunk_append(chunk)
                budget -= 1
                continue
            # First decode of this request since it (re-)entered running:
            # inlined ``kv.append_token(rid)`` with the table looked up once.
            table = tables.get(rid)
            if table is not None and table.num_tokens < table.num_blocks * block_size:
                table.num_tokens += 1
                kv._used_tokens += 1
            elif table is not None and kv._used_blocks < kv._num_blocks:
                table.num_blocks += 1
                table.num_tokens += 1
                kv._used_blocks += 1
                kv._used_tokens += 1
            elif kv.append_token(rid) is None:
                if not self._make_room(request, 1, now):
                    self.memory_blocked = True
                    self._preempt(request, now)
                    evicted = True
                    continue
                evicted = True
                if rid not in running_ids:
                    continue
                kv.allocate(rid, 1)
            # Inlined ``request.context_tokens`` (prefix before this token).
            beyond = request.prompt_tokens + request.output_tokens - request.prefill_target
            prefix = request.prefill_progress + (beyond if beyond > 0 else 0)
            chunk = ScheduledChunk(request, prefix, 1, True)
            table = tables.get(rid)
            decode_chunks[rid] = (chunk, table)
            prefix_sum += prefix
            chunk_append(chunk)
            budget -= 1
        batch.decode_count = len(batch.chunks)
        batch.decode_prefix_sum = prefix_sum
        return budget

    def _schedule_running_prefills(self, batch: IterationBatch, budget: int, now: float) -> int:
        # ``_prefilling`` holds, in FCFS order, every running request whose
        # prefill is unfinished; the filter drops the rare entry whose
        # prefill an iteration of its previous owner finished.
        candidates = [
            r
            for r in self._prefilling
            if r.prefill_progress < r.prefill_target and now >= r.stall_until
        ]
        for request in candidates:
            if budget <= 0:
                break
            if not self.is_running(request):
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

        ``_running_fcfs`` is sorted by ``(arrival_time, request_id)`` and
        that key is unique, so the victim is the last unfinished entry with
        a key greater than ``exclude``'s; scanning from the tail finds it
        without materialising and maxing a candidate list.
        """
        exclude_key = (exclude.arrival_time, exclude.request_id)
        finished_state = RequestState.FINISHED
        for r in reversed(self._running_fcfs):
            if (r.arrival_time, r.request_id) <= exclude_key:
                break
            if r.state is not finished_state:
                return r
        return None

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
        finished_ids: set[int] = set()
        finished_state = RequestState.FINISHED
        prefilling = self._prefilling
        for chunk in batch.chunks:
            request = chunk.request
            if chunk.is_decode:
                # Inlined ``request.record_output_token(end_time)``: one call
                # per generated token of the whole simulation.
                if request.first_token_time is None:
                    request.first_token_time = end_time
                tokens = request.output_tokens + 1
                request.output_tokens = tokens
                request.token_times.append(end_time)
                if tokens >= request.max_output_tokens:
                    request.state = finished_state
                    request.finish_time = end_time
            else:
                request.record_prefill(chunk.new_tokens, end_time)
                if request.prefill_progress >= request.prefill_target:
                    # A request migrated away while this iteration ran is
                    # in the new owner's list, not in this one.
                    if request in prefilling:
                        prefilling.remove(request)
                    if request.output_tokens == 0:
                        request.record_output_token(end_time)
            if request.state is finished_state and request.request_id not in finished_ids:
                finished.append(request)
                finished_ids.add(request.request_id)
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
