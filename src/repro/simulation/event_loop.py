"""Event loop for the discrete-event simulation.

Events are callbacks scheduled at absolute simulation times.  Ties are
broken by (priority, insertion order) so the simulation is fully
deterministic for a given seed and schedule of calls.  The heap holds
``(time, priority, seq, event)`` tuples: ``seq`` is unique, so C tuple
comparison orders them and never reaches the event.
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

    The loop orders events by the ``(time, priority, seq)`` of their heap
    entry.  ``cancelled`` events stay in the heap but are skipped when
    popped (lazy deletion).
    """

    __slots__ = ("time", "callback", "name", "cancelled")

    def __init__(self, time: float, callback: Callable[[], None], name: str = "") -> None:
        self.time = time
        self.callback = callback
        self.name = name
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the loop skips it when its time comes."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event(time={self.time!r}, name={self.name!r}, cancelled={self.cancelled})"


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
        #: ``(time, priority, seq, event)`` entries.
        self._heap: list[tuple[float, int, int, Event]] = []
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
        return sum(1 for entry in self._heap if not entry[3].cancelled)

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
        return self.schedule_at(self.clock.now + delay, callback, priority=priority, name=name)

    def schedule_at(
        self,
        timestamp: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        name: str = "",
    ) -> Event:
        """Schedule ``callback`` to run at absolute time ``timestamp``."""
        if timestamp < self.clock.now:
            raise ValueError(
                f"cannot schedule event in the past: now={self.now}, at={timestamp}"
            )
        time = float(timestamp)
        event = Event(time, callback, name)
        heapq.heappush(self._heap, (time, priority, next(self._counter), event))
        return event

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if the queue is empty."""
        self._discard_cancelled()
        if not self._heap:
            return None
        return self._heap[0][0]

    def step(self) -> bool:
        """Run the single next event.  Returns False when nothing is queued."""
        self._discard_cancelled()
        if not self._heap:
            return False
        time, _, _, event = heapq.heappop(self._heap)
        self.clock.advance_to(time)
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
                while heap and heap[0][3].cancelled:
                    pop(heap)
                if not heap:
                    break
                batch_time = heap[0][0]
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
                    pop(heap)[3].callback()
                    executed += 1
                    while heap and heap[0][3].cancelled:
                        pop(heap)
                    if not heap or heap[0][0] != batch_time:
                        break
        finally:
            self._running = False
            self._events_executed += executed
            EventLoop.lifetime_events += executed
            EventLoop.lifetime_sim_s += self.clock.now - entered_at
        return executed

    def _discard_cancelled(self) -> None:
        while self._heap and self._heap[0][3].cancelled:
            heapq.heappop(self._heap)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EventLoop(now={self.now:.6f}, pending={self.pending}, "
            f"executed={self._events_executed})"
        )
