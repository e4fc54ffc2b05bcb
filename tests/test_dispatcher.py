"""Tests for the serving dispatcher (``repro.serving.dispatcher``).

Covers the contract the serving system relies on: least-loaded
tie-breaking by queue length (then group id), inactive-group filtering,
and the no-active-groups error path.  Groups are lightweight stubs
exposing exactly the surface the routers read (load metrics, scheduler
queue counters, ``enqueue``), so these tests run in microseconds and pin
behaviour independently of the engine.
"""

from __future__ import annotations

import pytest

from repro.engine.request import Request
from repro.serving.dispatcher import Dispatcher


class StubScheduler:
    def __init__(self, num_waiting: int = 0) -> None:
        self.num_waiting = num_waiting
        self.memory_blocked = False


class StubGroup:
    """The slice of ``ServingGroup`` the dispatcher and routers touch."""

    def __init__(
        self,
        group_id: int,
        *,
        capacity: int = 1000,
        demand: int = 0,
        waiting: int = 0,
        active: bool = True,
    ) -> None:
        self.group_id = group_id
        self.active = active
        self._capacity = capacity
        self._demand = demand
        self.scheduler = StubScheduler(waiting)
        self.enqueued = []

    def kv_capacity_bytes(self) -> int:
        return self._capacity

    def kv_demand_bytes(self) -> int:
        return self._demand

    def enqueue(self, request: Request) -> None:
        self.enqueued.append(request)


def request(i: int = 0) -> Request:
    return Request(arrival_time=float(i), prompt_tokens=8, max_output_tokens=4)


class TestLeastLoaded:
    def test_picks_lowest_memory_ratio(self):
        groups = [
            StubGroup(0, capacity=1000, demand=800),
            StubGroup(1, capacity=1000, demand=200),
            StubGroup(2, capacity=1000, demand=500),
        ]
        assert Dispatcher().dispatch(request(), groups).group_id == 1

    def test_ties_break_by_queue_length_then_group_id(self):
        groups = [
            StubGroup(0, capacity=1000, demand=500, waiting=4),
            StubGroup(1, capacity=1000, demand=500, waiting=1),
            StubGroup(2, capacity=1000, demand=500, waiting=1),
        ]
        # Equal ratios: the shorter queue wins; equal queues: lower id wins.
        assert Dispatcher().dispatch(request(), groups).group_id == 1

    def test_zero_capacity_group_is_last_resort(self):
        groups = [
            StubGroup(0, capacity=0, demand=0),
            StubGroup(1, capacity=1000, demand=999),
        ]
        assert Dispatcher().dispatch(request(), groups).group_id == 1

    def test_inactive_groups_are_filtered(self):
        groups = [
            StubGroup(0, capacity=1000, demand=0, active=False),
            StubGroup(1, capacity=1000, demand=900),
        ]
        chosen = Dispatcher().dispatch(request(), groups)
        assert chosen.group_id == 1
        assert groups[0].enqueued == []


class TestErrorPaths:
    def test_no_groups_at_all(self):
        with pytest.raises(RuntimeError):
            Dispatcher().dispatch(request(), [])

    def test_no_active_groups(self):
        groups = [StubGroup(0, active=False), StubGroup(1, active=False)]
        with pytest.raises(RuntimeError):
            Dispatcher().dispatch(request(), groups)

    def test_dispatch_enqueues_and_counts(self):
        dispatcher = Dispatcher()
        group = StubGroup(0)
        reqs = [request(i) for i in range(3)]
        assert all(dispatcher.dispatch(req, [group]) is group for req in reqs)
        # Each dispatch enqueues its request once, in arrival order.
        assert group.enqueued == reqs
