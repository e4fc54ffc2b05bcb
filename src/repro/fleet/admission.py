"""Admission control: bounded queues, SLO-aware shedding, tenant fairness.

Sits between request arrival and the router.  While at least one serving
group is *accepting* (its scheduler backlog is below the configured
watermark), arrivals route straight through.  Otherwise they wait in a
bounded per-tenant admission queue — tenants are keyed by the request's
``slo_class`` — and are drained round-robin across tenants (deficit-style
fairness: the tenant that goes first rotates every drain) whenever
capacity frees up.  Two shedding mechanisms bound the damage of sustained
overload:

* **queue bound** — an arrival whose tenant queue is full is rejected
  outright (``max_queue_depth``);
* **SLO shed** — a queued request that has already waited past
  ``ttft_shed_s`` is dropped at drain time: it would violate its TTFT
  budget anyway, and serving it would only push the requests behind it
  over their budgets too.

Shed requests are never dispatched; the serving system records them as
unfinished, so completion ratios and SLO attainment account for them.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence

from repro.engine.group import ServingGroup
from repro.engine.request import Request
from repro.fleet.config import AdmissionConfig
from repro.fleet.routing import Router

#: Provides the routable groups (active, non-draining) at call time.
GroupProvider = Callable[[], List[ServingGroup]]


class AdmissionController:
    """Bounded, tenant-fair admission in front of the router."""

    def __init__(
        self,
        config: AdmissionConfig,
        router: Router,
        groups_provider: GroupProvider,
    ) -> None:
        self.config = config
        self.router = router
        self._groups_provider = groups_provider
        self._queues: Dict[str, Deque[Request]] = {}
        #: tenants in first-seen order; the round-robin drain rotates over it.
        self._tenant_order: List[str] = []
        self._rr_offset = 0
        #: ids of re-homed requests: shed-exempt, not re-counted as admitted.
        self._readmitted: set = set()

        #: requests currently waiting in the admission queues, kept as
        #: they enter and leave (every engine pass of every group reads it).
        self.queued = 0
        self.admitted = 0
        self.shed = 0
        self.queue_peak = 0
        self.shed_requests: List[Request] = []
        #: called with each shed request, synchronously at the shed decision
        #: — the online serving frontend's clients key retries off this.
        self.shed_listeners: List[Callable[[Request], None]] = []
        #: per-request span recorder (``repro.trace``); ``None`` when off.
        self.tracer = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def queued_for(self, tenant: str) -> int:
        queue = self._queues.get(tenant)
        return len(queue) if queue is not None else 0

    # ------------------------------------------------------------------
    # Intake
    # ------------------------------------------------------------------
    def submit(self, request: Request, now: float) -> str:
        """Admit, queue, or shed an arriving request.

        Returns ``"dispatched"``, ``"queued"`` or ``"shed"``.  Older queued
        requests are drained first so per-tenant FIFO order is preserved.
        """
        self.drain(now)
        tenant = request.slo_class
        queue = self._queue(tenant)
        if not queue:
            group = self._accepting_group(request)
            if group is not None:
                self._dispatch(request, group)
                return "dispatched"
        if len(queue) >= self.config.max_queue_depth:
            self._shed(request)
            return "shed"
        self._enqueue(queue, request)
        return "queued"

    def readmit(self, request: Request) -> str:
        """Re-home a request evicted from a draining group.

        Dispatches immediately when some group accepts (the request keeps
        its original arrival time, so its queueing delay is preserved);
        otherwise it rejoins its tenant's admission queue — never shed,
        since it was already admitted once.
        """
        group = self._accepting_group(request)
        if group is not None:
            # Not counted in ``admitted`` again — it already was on arrival.
            group.adopt_waiting(request)
            return "dispatched"
        self._readmitted.add(request.request_id)
        self._enqueue(self._queue(request.slo_class), request)
        return "queued"

    def evict_all(self) -> List[Request]:
        """Empty every admission queue and return the evicted requests.

        Used by chaos cluster outages: a dead cluster cannot serve its
        queue, so the tier takes the waiting requests back and either
        re-homes them (``migrate``) or accounts them as lost to the fault
        (``sticky``).  Evicted requests are *not* counted as shed — they
        never reached a shedding decision; their fate is the tier's call.
        Returned in deterministic ``(arrival_time, request_id)`` order.
        """
        evicted: List[Request] = []
        for queue in self._queues.values():
            evicted.extend(queue)
            queue.clear()
        self.queued = 0
        self._readmitted.clear()
        evicted.sort(key=lambda r: (r.arrival_time, r.request_id))
        return evicted

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    def drain(self, now: float) -> int:
        """Dispatch queued requests while capacity lasts; returns the count.

        Tenants are visited round-robin, one request per tenant per round,
        and the tenant that goes first rotates every call so no tenant can
        starve the others during a long overload.
        """
        if self.config.ttft_shed_s is not None:
            self._shed_expired(now)
        if not self.queued:
            return 0
        dispatched = 0
        order = self._tenant_order
        self._rr_offset = (self._rr_offset + 1) % max(1, len(order))
        while True:
            progressed = False
            for index in range(len(order)):
                tenant = order[(self._rr_offset + index) % len(order)]
                queue = self._queues[tenant]
                if not queue:
                    continue
                group = self._accepting_group(queue[0])
                if group is None:
                    return dispatched
                self.queued -= 1
                self._dispatch(queue.popleft(), group)
                dispatched += 1
                progressed = True
            if not progressed:
                return dispatched

    def _shed_expired(self, now: float) -> None:
        budget = self.config.ttft_shed_s
        for tenant in self._tenant_order:
            queue = self._queues[tenant]
            while queue and now - queue[0].arrival_time > budget:
                # Re-homed requests keep readmit()'s never-shed guarantee;
                # a protected head also shields the (younger) tail, which
                # preserves FIFO order within the tenant.
                if queue[0].request_id in self._readmitted:
                    break
                self.queued -= 1
                self._shed(queue.popleft())

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _enqueue(self, queue: Deque[Request], request: Request) -> None:
        queue.append(request)
        self.queued += 1
        self.queue_peak = max(self.queue_peak, self.queued)

    def _queue(self, tenant: str) -> Deque[Request]:
        queue = self._queues.get(tenant)
        if queue is None:
            queue = self._queues[tenant] = deque()
            self._tenant_order.append(tenant)
        return queue

    def _accepting(self, group: ServingGroup) -> bool:
        return (
            not group.scheduler.memory_blocked
            and group.scheduler.num_waiting < self.config.max_group_waiting
        )

    def _accepting_group(self, request: Request) -> Optional[ServingGroup]:
        candidates = [g for g in self._groups_provider() if self._accepting(g)]
        if not candidates:
            return None
        group = self.router.route(request, candidates)
        if group is not None and self.tracer is not None:
            self.tracer.on_route(
                request, f"group{group.group_id}", scope=self.router.name
            )
        return group

    def _dispatch(self, request: Request, group: ServingGroup) -> None:
        group.enqueue(request)
        if request.request_id in self._readmitted:
            # A re-homed request leaving the queue was admitted on arrival.
            self._readmitted.discard(request.request_id)
        else:
            self.admitted += 1

    def _shed(self, request: Request) -> None:
        self.shed += 1
        self.shed_requests.append(request)
        if self.tracer is not None:
            self.tracer.on_shed(request)
        for listener in self.shed_listeners:
            listener(request)
