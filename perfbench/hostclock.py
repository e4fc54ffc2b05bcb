"""Host time of a measured region, scaled by the speed of a fixed reference
program sampled inside it.

A shared host runs in phases: for a second to minutes at a time, other
tenants slow every instruction of this process by up to 80%.  CPU time
slows as much as wall time (the process is not descheduled; each
instruction takes longer), and a whole run of the benchmark can sit
inside one phase, so neither the fastest nor the median repeat of one run
agrees with another run's.

:func:`reference` is a few milliseconds of fixed pure-Python work over a
heap, slotted objects and dicts: the kinds of work the simulator does,
but no code of the simulator, so a change to the simulator leaves it
alone.  :class:`ScaledClock` runs it at the start and end of a measured
region and, every :data:`SAMPLE_EVERY_S` host seconds, between slices of
:meth:`EventLoop.run` (cut every :data:`SLICE_S` simulated seconds).  It
divides each stretch of host time between two samples by the speed the
reference showed at its ends.  The scaled sum reads as host seconds on a
host where one reference run takes :data:`REFERENCE_S`.  Reference runs
are not counted in the region's own host time.

Slicing calls the loop's own ``run`` once per slice with a nearer
``until``; the simulated outcome is unchanged, which every benchmark run
checks through its outcome digest.
"""

from __future__ import annotations

import contextlib
import heapq
import random
import time
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from repro.simulation.event_loop import EventLoop

#: Host seconds of one :func:`reference` run, about the fastest it ran on a
#: 2-vCPU Intel Xeon virtual machine (Python 3.11.7): the speed scaled
#: times are expressed at.
REFERENCE_S = 0.005
#: What :func:`reference` returns; it checks that the reference is unchanged.
REFERENCE_CHECKSUM = 48114
#: Host seconds of measured work between two reference samples.
SAMPLE_EVERY_S = 0.1
#: Simulated seconds per event-loop slice.
SLICE_S = 0.2


class _Job:
    __slots__ = ("size", "done", "tags")

    def __init__(self, size: int) -> None:
        self.size = size
        self.done = 0
        self.tags: dict = {}


def reference(steps: int = 5_000, jobs: int = 500, seed: int = 7) -> int:
    """A fixed amount of simulator-like work; returns a checksum of it."""
    rng = random.Random(seed)
    pool = [_Job(rng.randint(1, 50)) for _ in range(jobs)]
    heap = [(rng.random(), i) for i in range(jobs)]
    heapq.heapify(heap)
    table = {}
    total = 0
    for step in range(steps):
        now, i = heapq.heappop(heap)
        job = pool[i]
        job.done += 1
        job.tags[step & 15] = now
        table[(i, job.done & 63)] = job.size * now
        if job.done < job.size:
            heapq.heappush(heap, (now + rng.random(), i))
        else:
            job.done = 0
            heapq.heappush(heap, (now + 1.0, i))
        if step % 500 == 0:
            total += sum(j.size for j in pool[:200] if j.done)
    return total + len(table)


def reference_s() -> float:
    """Host seconds of one :func:`reference` run."""
    start = time.perf_counter()
    checksum = reference()
    elapsed = time.perf_counter() - start
    if checksum != REFERENCE_CHECKSUM:
        raise RuntimeError(f"reference checksum {checksum} != {REFERENCE_CHECKSUM}")
    return elapsed


@dataclass
class Measurement:
    """A measured region: ``(host seconds of work so far, reference seconds)``
    at every sample, and the totals once the region has ended."""

    samples: List[Tuple[float, float]] = field(default_factory=list)
    #: host seconds of the region, reference runs excluded.
    wall_s: float = 0.0
    #: ``wall_s`` at the host speed where a reference run takes REFERENCE_S.
    scaled_s: float = 0.0


def scaled(samples: List[Tuple[float, float]]) -> float:
    """Sum of the stretches between samples, each divided by the mean
    reference time at its ends and multiplied by :data:`REFERENCE_S`."""
    return sum(
        (work_b - work_a) * REFERENCE_S / ((ref_a + ref_b) / 2.0)
        for (work_a, ref_a), (work_b, ref_b) in zip(samples, samples[1:])
    )


class ScaledClock:
    """Times :meth:`measure` regions; ``sample=False`` takes no reference
    samples and reports the plain host time as the scaled one."""

    def __init__(self, sample: bool = True) -> None:
        self.sample = sample

    @contextlib.contextmanager
    def measure(self) -> Iterator[Measurement]:
        measurement = Measurement()
        if not self.sample:
            start = time.perf_counter()
            try:
                yield measurement
            finally:
                measurement.wall_s = measurement.scaled_s = time.perf_counter() - start
            return

        samples = measurement.samples
        work = 0.0
        last_sample = 0.0
        mark = 0.0

        def take_sample() -> None:
            nonlocal work, last_sample, mark
            work += time.perf_counter() - mark
            samples.append((work, reference_s()))
            last_sample = work
            mark = time.perf_counter()

        def due() -> bool:
            return work + time.perf_counter() - mark - last_sample >= SAMPLE_EVERY_S

        original = EventLoop.run

        def sliced_run(loop, until=None, max_events=None):
            if until is None or max_events is not None:
                return original(loop, until, max_events)
            executed = 0
            while True:
                step_until = min(loop.now + SLICE_S, until)
                executed += original(loop, step_until)
                if due():
                    take_sample()
                if step_until >= until or loop.peek_time() is None:
                    return executed

        mark = time.perf_counter()
        take_sample()
        EventLoop.run = sliced_run
        try:
            yield measurement
        finally:
            EventLoop.run = original
            take_sample()
            measurement.wall_s = work
            measurement.scaled_s = scaled(samples)
