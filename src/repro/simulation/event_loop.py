"""Event loop for the discrete-event simulation.

Events are callbacks scheduled at absolute simulation times.  Ties are
broken by (priority, insertion order) so the simulation is fully
deterministic for a given seed and schedule of calls.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional

from repro.simulation.clock import Clock

#: Sentinels folding the Optional ``until`` / ``max_events`` run() limits
#: into branch-free comparisons on the hot path.
_NO_HORIZON = float("inf")
_NO_LIMIT = float("inf")


class Event:
    """A scheduled callback.

    Events compare by ``(time, priority, seq)`` which is what the heap uses
    for ordering.  ``cancelled`` events stay in the heap but are skipped when
    popped (lazy deletion).  Slotted, with a hand-written ``__lt__`` that
    short-circuits on ``time``: heap siftup/siftdown compares events millions
    of times per simulation, and the tuple allocation a generated dataclass
    ``__lt__`` performs dominates otherwise.
    """

    __slots__ = ("time", "priority", "seq", "callback", "name", "cancelled")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[[], None],
        name: str = "",
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.name = name
        self.cancelled = cancelled

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.seq < other.seq

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return (self.time, self.priority, self.seq) == (other.time, other.priority, other.seq)

    def cancel(self) -> None:
        """Mark the event so the loop skips it when its time comes."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Event(time={self.time!r}, priority={self.priority}, seq={self.seq}, "
            f"name={self.name!r}, cancelled={self.cancelled})"
        )


class EventLoop:
    """Priority-queue based discrete-event loop.

    The loop owns the simulation :class:`Clock`.  Components schedule
    callbacks with :meth:`schedule` (relative delay) or :meth:`schedule_at`
    (absolute time) and the loop runs them in timestamp order.
    """

    #: process-wide count of events executed by every loop instance;
    #: :class:`~repro.obs.profile.TaskProfiler` reads deltas of this to
    #: meter a sweep task that builds its own loops internally.
    lifetime_events: int = 0

    #: process-wide sum of simulated seconds advanced by every ``run()``
    #: call (clock delta from entry to exit).  ``TaskProfiler`` reads
    #: deltas of this to report simulated time covered by code that builds
    #: its own loops internally, where a single loop's clock is unreachable.
    lifetime_sim_s: float = 0.0

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.clock = clock if clock is not None else Clock()
        self._heap: list[Event] = []
        self._counter = itertools.count()
        self._events_executed = 0
        self._running = False

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self.clock.now

    @property
    def events_executed(self) -> int:
        """Number of events that have been run so far."""
        return self._events_executed

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return sum(1 for event in self._heap if not event.cancelled)

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        name: str = "",
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule event in the past: delay={delay}")
        return self.schedule_at(self.now + delay, callback, priority=priority, name=name)

    def schedule_at(
        self,
        timestamp: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        name: str = "",
    ) -> Event:
        """Schedule ``callback`` to run at absolute time ``timestamp``."""
        if timestamp < self.now:
            raise ValueError(
                f"cannot schedule event in the past: now={self.now}, at={timestamp}"
            )
        # Positional construction: this allocates one Event per scheduled
        # callback, which is the dominant remaining allocation of the loop.
        event = Event(float(timestamp), priority, next(self._counter), callback, name)
        heapq.heappush(self._heap, event)
        return event

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if the queue is empty."""
        self._discard_cancelled()
        if not self._heap:
            return None
        return self._heap[0].time

    def step(self) -> bool:
        """Run the single next event.  Returns False when nothing is queued."""
        self._discard_cancelled()
        if not self._heap:
            return False
        event = heapq.heappop(self._heap)
        self.clock.advance_to(event.time)
        self._events_executed += 1
        EventLoop.lifetime_events += 1
        event.callback()
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have executed.

        Returns the number of events executed by this call.
        """
        executed = 0
        entered_at = self.clock.now
        self._running = True
        # Local aliases: this loop pops every event of the simulation, so
        # attribute lookups on the hot path are hoisted out of it, the
        # Optional horizon/limit checks are folded into plain float/int
        # comparisons, and the instance/class counters are updated once on
        # the way out instead of per event.
        heap = self._heap
        pop = heapq.heappop
        advance = self.clock.advance_to
        horizon = until if until is not None else _NO_HORIZON
        limit = max_events if max_events is not None else _NO_LIMIT
        try:
            while executed < limit:
                while heap and heap[0].cancelled:
                    pop(heap)
                if not heap:
                    break
                batch_time = heap[0].time
                if batch_time > horizon:
                    # Nothing else happens inside the horizon; park the clock
                    # at the horizon so callers observe a consistent end time.
                    advance(until)
                    break
                # Batched same-timestamp dispatch: the clock moves once, then
                # every event at exactly ``batch_time`` drains in one inner
                # loop — including events a callback schedules *at* the
                # current time (zero-delay kicks), which land behind the
                # already-queued ones in seq order exactly as before.  This
                # amortises the advance/horizon bookkeeping over the burst of
                # simultaneous events that zero-delay scheduling produces.
                advance(batch_time)
                while executed < limit:
                    event = pop(heap)
                    event.callback()
                    executed += 1
                    while heap and heap[0].cancelled:
                        pop(heap)
                    if not heap or heap[0].time != batch_time:
                        break
        finally:
            self._running = False
            self._events_executed += executed
            EventLoop.lifetime_events += executed
            EventLoop.lifetime_sim_s += self.clock.now - entered_at
        return executed

    def _discard_cancelled(self) -> None:
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EventLoop(now={self.now:.6f}, pending={self.pending}, "
            f"executed={self._events_executed})"
        )
