"""Continuous-batching scheduler with chunked prefill.

This is the vLLM/Sarathi-class scheduler the paper's systems all share:
every iteration it fuses decode steps of running requests with prefill
chunks of queued requests into one batch bounded by a token budget, FCFS,
with block-granular KV accounting.  When the KV cache cannot hold the next
token it preempts the lowest-priority running request, either by discarding
its KV cache (vLLM's recompute mode) or by swapping it to host DRAM
(InferCept's mode); when even that is impossible, arriving requests queue —
which is exactly the overloading behaviour the paper studies.

Decoding requests advance as a *cohort*, one token per decode pass each
(see :class:`ContinuousBatchingScheduler`), so forming and completing a
pass costs work per event — a KV block crossing, a finish, a request
joining or leaving — not per decoding request.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Deque, Dict, List, Optional

from repro.engine.batch import IterationBatch, ScheduledChunk
from repro.engine.request import Request, RequestState
from repro.memory.paged_kv import BlockTable, PagedKVCache

#: Fraction of KV blocks that must stay free after a swapped-out request
#: is brought back (swap preemption, InferCept).
SWAP_IN_WATERMARK = 0.05


def _fcfs_key(request: Request) -> tuple:
    """FCFS priority: earlier arrivals first, ties broken by id."""
    return (request.arrival_time, request.request_id)


def _remove_ranked(ranked: List[Request], request: Request) -> bool:
    """Delete ``request`` from the FCFS-sorted ``ranked``; False if absent."""
    index = bisect_left(ranked, _fcfs_key(request), key=_fcfs_key)
    if index < len(ranked) and ranked[index] is request:
        del ranked[index]
        return True
    return False


class _Member:
    """A decoding request's membership of one scheduler's cohort.

    Records the scheduler's formed-pass count when the request joined
    (``joined``) and the request's KV and output tokens then; its counts
    now follow from those and the scheduler's two pass counters.
    """

    __slots__ = ("request", "table", "joined", "kv", "out")

    def __init__(self, request: Request, table: BlockTable, joined: int) -> None:
        self.request = request
        self.table = table
        self.joined = joined
        self.kv = table.num_tokens
        self.out = request.output_tokens


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
    """

    token_budget: int = 1024
    max_running_requests: int = 512
    preemption_mode: PreemptionMode = PreemptionMode.RECOMPUTE

    def __post_init__(self) -> None:
        if self.token_budget <= 0:
            raise ValueError("token_budget must be positive")
        if self.max_running_requests <= 0:
            raise ValueError("max_running_requests must be positive")


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
    """Iteration-level scheduler for one serving group.

    **The decode cohort.**  Every running request whose prefill is done
    and which is not stalled advances one token per decode pass, so the
    scheduler keeps them as a cohort instead of stepping each one:

    * two counters: passes *formed* (a pass's KV tokens are taken when it
      forms) and passes *completed* (its output tokens are credited when
      it completes).  A completion that never comes (``deactivate``
      abandons it on a merge or restore) leaves the KV with the token and
      the output without it, as for a real aborted iteration;
    * a member records the formed count when it joined (``joined``) and
      its KV and output tokens then.  Its KV tokens are ``kv + formed -
      joined``, its output tokens ``out + completed - joined`` once a
      pass it took part in completed, and its latest token time is the
      end of the last completed pass;
    * the cohort's FCFS-ordered *prefix bases* ``prompt + out - joined``
      and their sum, so a pass's decode prefix sum is ``base sum + count
      x completed`` and each decode's prefix is its base plus
      ``completed``;
    * two heaps yield the events, in FCFS order within a pass: the formed
      count at which a member's tail KV block is full (a *crossing*: it
      takes a free block or preempts, as vLLM does) and the completed
      count at which its output reaches ``max_output_tokens`` (a finish).
      An entry whose membership ended is skipped when popped.

    A member leaves on preemption, swap-out, finish, removal and stall,
    and its counts are written onto the request and its block table then
    (*materialised*).  A stalled request rejoins at the first
    ``form_batch`` at or after its ``stall_until``; when a pass would hold
    more members than the token budget, the latest-arrived sit it out on
    a bench, as they would have in a per-request walk.  ``running`` is
    the one outside view of a decoding request's counts: reading it
    materialises every member (:meth:`kv_tokens_of` materialises one).
    The scheduler forms a pass only after the previous one completed or
    was abandoned, as its group does; a request that moves between
    schedulers may be in two passes in flight at once.
    """

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
        self.swapped: List[Request] = []
        #: running requests by id, in the order they started running here
        #: (read through :attr:`running`): reconfiguration paths (KV
        #: exchange, fault recovery, group transfers) iterate them in that
        #: order and their outcomes depend on it.
        self._running: Dict[int, Request] = {}
        #: the running set split in two lists sorted in FCFS order
        #: ``(arrival_time, request_id)``: ``_prefilling`` holds those
        #: whose prefill is unfinished, ``_decoding`` those whose prefill
        #: is done, and every running request is in exactly one.  Demand
        #: queries and the running-prefill pass visit only ``_prefilling``
        #: (a running request holds at least ``prefill_progress`` KV
        #: tokens, so one whose prefill is done has no deficit); victim
        #: selection walks both from the tail.  A request whose prefill
        #: completes moves to ``_decoding`` when its first token is
        #: recorded, by whichever scheduler's iteration completed it (the
        #: owner reference reaches the one holding it).
        self._prefilling: List[Request] = []
        self._decoding: List[Request] = []
        #: ``_decoding`` is partitioned into the cohort (FCFS-sorted, with
        #: the prefix bases alongside), the stalled set and the bench.
        self._cohort: List[Request] = []
        self._bases: List[int] = []
        self._base_sum: int = 0
        self._members: Dict[int, _Member] = {}
        self._formed: int = 0
        self._completed: int = 0
        #: end time of the last completed decode pass.
        self._last_end: Optional[float] = None
        #: event heaps of ``(pass, arrival_time, request_id, sequence,
        #: member)``; the sequence number orders a request's entries from
        #: different memberships.
        self._crossings: list = []
        self._finishes: list = []
        self._sequence: int = 0
        #: members that left while a pass they took part in was in flight:
        #: that pass's completion credits their token.
        self._departed: List[Request] = []
        #: stalled decoding requests by id, and a heap of ``(stall_until,
        #: sequence, request)`` giving when to look at each again.
        self._stalled: Dict[int, Request] = {}
        self._stall_heap: list = []
        #: decoding requests sitting passes out because the cohort filled
        #: the token budget (FCFS-sorted, each after every member).
        self._bench: List[Request] = []
        #: a lower bound on the current time: the latest ``form_batch`` or
        #: ``complete_batch`` time.  A request joining with a stall beyond
        #: it waits in the stalled set.
        self._now: float = float("-inf")
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
        self._remove_running(request)
        freed_tokens = self.kv.tokens_of(request.request_id)
        self.kv.free(request.request_id)
        if request.request_id in self._queued:
            self._untrack_queued(request)
            if request in self.swapped:
                self.swapped.remove(request)
            else:
                self.waiting.remove(request)
        return freed_tokens

    def stall(self, request: Request) -> None:
        """``request``'s ``stall_until`` was raised: keep it out of decode
        passes until the first ``form_batch`` at or after it."""
        rid = request.request_id
        if rid in self._members:
            self._leave(request)
        elif request in self._bench:
            self._bench.remove(request)
        else:
            return  # prefilling (its pass checks), already stalled, or not here
        self._stalled[rid] = request
        self._watch_stall(request)

    def stall_lowered(self, request: Request) -> None:
        """``request``'s ``stall_until`` was lowered (its transfer landed)."""
        if request.request_id in self._stalled:
            self._watch_stall(request)

    def _watch_stall(self, request: Request) -> None:
        self._sequence += 1
        heappush(self._stall_heap, (request.stall_until, self._sequence, request))

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
        self._running[request.request_id] = request
        request.scheduler = self
        if request.prefill_progress < request.prefill_target:
            insort(self._prefilling, request, key=_fcfs_key)
        else:
            insort(self._decoding, request, key=_fcfs_key)
            self._join(request)

    def _remove_running(self, request: Request) -> None:
        rid = request.request_id
        if self._running.pop(rid, None) is None:
            return
        request.scheduler = None
        if _remove_ranked(self._prefilling, request):
            return
        _remove_ranked(self._decoding, request)
        if rid in self._members:
            self._leave(request)
        elif self._stalled.pop(rid, None) is None and request in self._bench:
            self._bench.remove(request)

    def _start_decoding(self, request: Request) -> None:
        """Move ``request``, whose prefill is done, from ``_prefilling`` to
        ``_decoding`` (if it is still there) and into the cohort."""
        if _remove_ranked(self._prefilling, request):
            insort(self._decoding, request, key=_fcfs_key)
            self._join(request)

    def is_running(self, request: Request) -> bool:
        """O(1) membership test against the running set."""
        return request.request_id in self._running

    # ------------------------------------------------------------------
    # The decode cohort
    # ------------------------------------------------------------------
    @property
    def running(self) -> List[Request]:
        """A new list of the running requests, in the order they started
        running here.

        Reading it brings every cohort member's output tokens, latest
        token time and KV tokens up to date on the request and its block
        table.
        """
        for member in self._members.values():
            self._materialise(member)
        return list(self._running.values())

    def kv_tokens_of(self, request: Request) -> int:
        """``request``'s KV tokens here, brought up to date on its block
        table (with its output tokens) if it is a cohort member."""
        member = self._members.get(request.request_id)
        if member is not None:
            self._materialise(member)
        return self.kv.tokens_of(request.request_id)

    def decode_bases(self) -> List[int]:
        """A copy of the cohort's FCFS prefix bases: the i-th decode of the
        pass just formed has prefix ``bases[i] + batch.decode_offset``.
        Take it before the cohort changes (a pipelined group does, to deal
        the pass into microbatches)."""
        return self._bases[:]

    def _join(self, request: Request) -> None:
        """Enter a decoding request into the cohort, or into the stalled
        set while its stall lasts.  A request's first token is recorded
        when its prefill completes, so a member has one already."""
        rid = request.request_id
        if request.stall_until > self._now:
            self._stalled[rid] = request
            self._watch_stall(request)
            return
        table = self.kv._tables.get(rid)
        if table is None:
            table = self.kv._tables[rid] = BlockTable(request_id=rid)
        joined = self._formed
        member = _Member(request, table, joined)
        self._members[rid] = member
        index = bisect_left(self._cohort, _fcfs_key(request), key=_fcfs_key)
        self._cohort.insert(index, request)
        base = request.prompt_tokens + member.out - joined
        self._bases.insert(index, base)
        self._base_sum += base
        self._sequence += 1
        tail_full = joined + table.num_blocks * self.kv.block_size - member.kv
        done = joined + request.max_output_tokens - member.out
        heappush(self._crossings, (tail_full, request.arrival_time, rid, self._sequence, member))
        heappush(self._finishes, (done, request.arrival_time, rid, self._sequence, member))

    def _leave(self, request: Request) -> None:
        """Take a member out of the cohort, materialising its counts."""
        member = self._members.pop(request.request_id)
        self._materialise(member)
        index = bisect_left(self._cohort, _fcfs_key(request), key=_fcfs_key)
        del self._cohort[index]
        self._base_sum -= self._bases.pop(index)
        if self._completed < self._formed and member.joined < self._formed:
            self._departed.append(request)

    def _materialise(self, member: _Member) -> None:
        """Write a member's current KV and output counts onto it."""
        request = member.request
        joined = member.joined
        member.table.num_tokens = member.kv + self._formed - joined
        completed = self._completed
        if completed > joined:
            request.output_tokens = member.out + completed - joined
            request.last_token_time = self._last_end

    def _wake_stalled(self, now: float) -> None:
        """Let stalled requests whose stall has passed rejoin the cohort."""
        heap = self._stall_heap
        stalled = self._stalled
        while heap and heap[0][0] <= now:
            request = heappop(heap)[2]
            if stalled.get(request.request_id) is not request:
                continue  # rejoined or left since
            if request.stall_until > now:
                self._watch_stall(request)  # raised since
                continue
            del stalled[request.request_id]
            self._join(request)

    def _fit_to_budget(self, budget: int) -> None:
        """Keep the first ``budget`` non-stalled decoders in FCFS order in
        the cohort and bench the rest."""
        cohort, bench = self._cohort, self._bench
        while len(cohort) > budget:
            self._bench_last()
        while bench and (len(cohort) < budget or _fcfs_key(bench[0]) < _fcfs_key(cohort[-1])):
            if len(cohort) >= budget:
                self._bench_last()
            self._join(bench.pop(0))

    def _bench_last(self) -> None:
        request = self._cohort[-1]
        self._leave(request)
        insort(self._bench, request, key=_fcfs_key)

    # ------------------------------------------------------------------
    # Load queries (used by dispatcher / monitor)
    # ------------------------------------------------------------------
    @property
    def num_waiting(self) -> int:
        return len(self.waiting)

    @property
    def num_running(self) -> int:
        return len(self._running)

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
            for r in [*self._running.values(), *self.waiting]
            if r.stall_until > now
        ]
        return min(times) if times else None

    # ------------------------------------------------------------------
    # Batch formation
    # ------------------------------------------------------------------
    def form_batch(self, now: float) -> IterationBatch:
        """Build the next iteration's batch (decodes first, then prefill).

        Each step runs only when it has something to walk, so a quiet
        decode pass (no swapped, prefilling or waiting request) costs the
        cohort's counters and its crossings.
        """
        self.memory_blocked = False
        self._now = now
        batch = IterationBatch()
        budget = self.config.token_budget

        if self.swapped:
            self._try_swap_in(now)
        if self._stall_heap and self._stall_heap[0][0] <= now:
            self._wake_stalled(now)
        if self._bench or len(self._cohort) > budget:
            self._fit_to_budget(budget)

        # Each request takes part at most once: a decode, a running prefill,
        # or the admission of a waiting request (a request preempted by a
        # crossing was never given a chunk before).
        if self._cohort:
            self._form_decode_pass(batch, now)
            budget -= batch.decode_count
        if self._prefilling:
            budget = self._schedule_running_prefills(batch, budget, now)
        if self.waiting:
            self._admit_waiting(batch, budget, now)
        return batch

    def _form_decode_pass(self, batch: IterationBatch, now: float) -> None:
        """Advance the cohort one token: serve this pass's block crossings
        in FCFS order, then take every member's token at once."""
        formed = self._formed
        crossings = self._crossings
        members = self._members
        while crossings and crossings[0][0] <= formed:
            entry = heappop(crossings)
            member = entry[4]
            if members.get(entry[2]) is member:
                self._cross(member, entry, now)
        count = len(self._cohort)
        if not count:
            return
        self._formed = formed + 1
        self.kv._used_tokens += count
        completed = self._completed
        batch.decode_count = count
        batch.decode_prefix_sum = self._base_sum + count * completed
        batch.decode_offset = completed
        batch.total_new_tokens = count
        batch.num_requests = count

    def _cross(self, member: _Member, entry: tuple, now: float) -> None:
        """Give a member whose tail block is full a new block.

        Preempts lower-priority requests to make room.  When none is left,
        the member itself is the lowest-priority running request and is
        preempted (vLLM's behaviour) rather than holding memory.
        """
        kv = self.kv
        if kv._used_blocks >= kv._num_blocks:
            request = member.request
            self._materialise(member)
            if not self._make_room(request, 1, now):
                self.memory_blocked = True
                self._preempt(request, now)
                return
        member.table.num_blocks += 1
        kv._used_blocks += 1
        heappush(self._crossings, (entry[0] + kv.block_size,) + entry[1:])

    def _schedule_running_prefills(self, batch: IterationBatch, budget: int, now: float) -> int:
        # ``_prefilling`` holds, in FCFS order, every running request whose
        # prefill is unfinished; nothing in this pass adds or removes
        # running requests.
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
        while budget > 0 and self.waiting and len(self._running) < self.config.max_running_requests:
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
        the two lists' last entries, if it ranks behind ``exclude``.
        """
        victim: Optional[Request] = None
        victim_key = _fcfs_key(exclude)
        for ranked in (self._prefilling, self._decoding):
            if ranked:
                key = _fcfs_key(ranked[-1])
                if key > victim_key:
                    victim = ranked[-1]
                    victim_key = key
        return victim

    def _preempt(self, victim: Request, now: float) -> None:
        if not self.is_running(victim):
            return
        self._remove_running(victim)
        self.kv.free(victim.request_id)
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
        """Bring back swapped requests once memory pressure has eased."""
        watermark_blocks = int(self.kv.num_blocks * SWAP_IN_WATERMARK)
        candidates = sorted(self.swapped, key=_fcfs_key)
        for request in candidates:
            if request.is_stalled(now):
                continue
            if len(self._running) >= self.config.max_running_requests:
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
        """Apply the effects of an executed batch; returns finished requests.

        Decode finishes come first in FCFS order, then prefill chunks'
        finishes in batch order.
        """
        self._now = end_time
        finished: List[Request] = []
        finished_state = RequestState.FINISHED
        if batch.decode_count:
            completed = self._completed = self._completed + 1
            self._last_end = end_time
            finishes = self._finishes
            members = self._members
            while finishes and finishes[0][0] <= completed:
                entry = heappop(finishes)
                if members.get(entry[2]) is entry[4]:
                    request = entry[4].request
                    request.state = finished_state
                    request.finish_time = end_time
                    finished.append(request)
            if self._departed:
                self._credit_departed(end_time, finished)
        for chunk in batch.chunks:
            request = chunk.request
            # A chunk lands only where KV still holds it.  A request that
            # moved away while this iteration ran may have lost it since:
            # another scheduler's pass finished the request, or it was
            # preempted or left running.
            owner = request.scheduler
            if (
                owner is None
                or owner.kv.tokens_of(request.request_id) < chunk.prefix_tokens + chunk.new_tokens
            ):
                continue
            request.record_prefill(chunk.new_tokens, end_time)
            if request.prefill_progress >= request.prefill_target:
                if request.output_tokens == 0:
                    request.record_output_token(end_time)
                # A request that moved to another scheduler while this
                # iteration ran starts decoding there.
                if request.state is not finished_state:
                    owner._start_decoding(request)
            if request.state is finished_state:
                finished.append(request)
        # A request that left this scheduler while the batch was in flight
        # (migration) is released by the scheduler now holding it.
        for request in finished:
            owner = request.scheduler or self
            owner._remove_running(request)
            owner.kv.free(request.request_id)
        return finished

    def _credit_departed(self, end_time: float, finished: List[Request]) -> None:
        """Credit the pass's token to requests that left the cohort while
        it ran and still decode somewhere; re-base those that have joined a
        cohort since.  One that finished, was preempted or left running
        meanwhile gets nothing: no KV holds the token."""
        departed, self._departed = self._departed, []
        count = len(finished)
        for request in departed:
            owner = request.scheduler
            if owner is None or request.prefill_progress < request.prefill_target:
                continue
            rejoin = request.request_id in owner._members
            if rejoin:
                owner._leave(request)
            request.record_output_token(end_time)
            if request.finished:
                finished.append(request)
            elif rejoin:
                owner._join(request)
        if len(finished) > count:
            finished.sort(key=_fcfs_key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Scheduler(waiting={self.num_waiting}, running={self.num_running}, "
            f"swapped={self.num_swapped}, kv_used={self.kv.used_blocks}/"
            f"{self.kv.num_blocks})"
        )
