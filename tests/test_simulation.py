"""Tests for the discrete-event simulation engine."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.simulation.clock import Clock
from repro.simulation.event_loop import EventLoop
from repro.simulation.process import PeriodicProcess
from repro.simulation.rng import SeededRNG


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().now == 0.0

    def test_starts_at_custom_time(self):
        assert Clock(5.0).now == 5.0

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            Clock(-1.0)

    def test_advance(self):
        clock = Clock()
        clock.advance_to(3.5)
        assert clock.now == 3.5

    def test_cannot_go_backwards(self):
        clock = Clock(2.0)
        with pytest.raises(ValueError):
            clock.advance_to(1.0)

    def test_reset(self):
        clock = Clock(2.0)
        clock.reset()
        assert clock.now == 0.0


class TestEventLoop:
    def test_events_run_in_time_order(self):
        loop = EventLoop()
        order = []
        loop.schedule(2.0, lambda: order.append("b"))
        loop.schedule(1.0, lambda: order.append("a"))
        loop.schedule(3.0, lambda: order.append("c"))
        loop.run()
        assert order == ["a", "b", "c"]

    def test_ties_run_in_insertion_order(self):
        loop = EventLoop()
        order = []
        for name in "abc":
            loop.schedule(1.0, lambda n=name: order.append(n))
        loop.run()
        assert order == ["a", "b", "c"]

    def test_priority_breaks_ties(self):
        loop = EventLoop()
        order = []
        loop.schedule(1.0, lambda: order.append("low"), priority=5)
        loop.schedule(1.0, lambda: order.append("high"), priority=0)
        loop.run()
        assert order == ["high", "low"]

    def test_clock_advances_with_events(self):
        loop = EventLoop()
        times = []
        loop.schedule(1.5, lambda: times.append(loop.now))
        loop.schedule(4.0, lambda: times.append(loop.now))
        loop.run()
        assert times == [1.5, 4.0]

    def test_run_until_horizon(self):
        loop = EventLoop()
        ran = []
        loop.schedule(1.0, lambda: ran.append(1))
        loop.schedule(10.0, lambda: ran.append(2))
        loop.run(until=5.0)
        assert ran == [1]
        assert loop.now == 5.0

    def test_cancelled_events_do_not_run(self):
        loop = EventLoop()
        ran = []
        event = loop.schedule(1.0, lambda: ran.append(1))
        event.cancel()
        loop.run()
        assert ran == []

    def test_cannot_schedule_in_past(self):
        loop = EventLoop()
        loop.schedule(1.0, lambda: None)
        loop.run()
        with pytest.raises(ValueError):
            loop.schedule_at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        loop = EventLoop()
        with pytest.raises(ValueError):
            loop.schedule(-1.0, lambda: None)

    def test_events_scheduled_during_run_execute(self):
        loop = EventLoop()
        ran = []
        loop.schedule(1.0, lambda: loop.schedule(1.0, lambda: ran.append("nested")))
        loop.run()
        assert ran == ["nested"]

    def test_max_events_limit(self):
        loop = EventLoop()
        for _ in range(10):
            loop.schedule(1.0, lambda: None)
        executed = loop.run(max_events=4)
        assert executed == 4
        assert loop.pending == 6

    def test_events_executed_counter(self):
        loop = EventLoop()
        loop.schedule(1.0, lambda: None)
        loop.schedule(2.0, lambda: None)
        loop.run()
        assert loop.events_executed == 2

    @pytest.mark.parametrize("drive", ["run", "step"])
    def test_equal_times_pop_by_priority_then_seq_skipping_cancelled(self, drive):
        loop = EventLoop()
        order = []
        loop.schedule_at(2.0, lambda: order.append("later"))
        for name, priority in [("a1", 1), ("b0", 0), ("c1", 1), ("d-1", -1), ("e0", 0)]:
            loop.schedule_at(1.0, lambda n=name: order.append(n), priority=priority)
        loop.schedule_at(1.0, lambda: order.append("cancelled"), priority=-2).cancel()
        loop.schedule_at(0.5, lambda: order.append("first"), priority=9)
        # A callback at t=1 scheduling more work at t=1 queues it behind
        # every event already there with its priority.
        loop.schedule_at(
            1.0, lambda: loop.schedule_at(1.0, lambda: order.append("f0")), priority=0
        )
        assert loop.pending == 8
        if drive == "run":
            loop.run()
        else:
            while loop.step():
                pass
        assert order == ["first", "d-1", "b0", "e0", "f0", "a1", "c1", "later"]
        assert loop.pending == 0 and loop.peek_time() is None

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
    def test_property_events_fire_in_nondecreasing_time(self, delays):
        loop = EventLoop()
        fire_times = []
        for delay in delays:
            loop.schedule(delay, lambda: fire_times.append(loop.now))
        loop.run()
        assert fire_times == sorted(fire_times)
        assert len(fire_times) == len(delays)


class TestPeriodicProcess:
    def test_ticks_at_interval(self):
        loop = EventLoop()
        ticks = []
        process = PeriodicProcess(loop, 1.0, lambda t: ticks.append(t))
        process.start()
        loop.run(until=5.5)
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_stop_halts_ticks(self):
        loop = EventLoop()
        ticks = []
        process = PeriodicProcess(loop, 1.0, lambda t: ticks.append(t))
        process.start()
        loop.schedule(2.5, process.stop)
        loop.run(until=10.0)
        assert ticks == [1.0, 2.0]

    def test_rejects_nonpositive_interval(self):
        loop = EventLoop()
        with pytest.raises(ValueError):
            PeriodicProcess(loop, 0.0, lambda t: None)

    def test_initial_delay(self):
        loop = EventLoop()
        ticks = []
        process = PeriodicProcess(loop, 2.0, lambda t: ticks.append(t))
        process.start(initial_delay=0.5)
        loop.run(until=5.0)
        assert ticks == [0.5, 2.5, 4.5]


class TestSeededRNG:
    def test_same_seed_same_stream(self):
        a = SeededRNG(7).uniform(size=5)
        b = SeededRNG(7).uniform(size=5)
        assert list(a) == list(b)

    def test_different_seeds_differ(self):
        a = SeededRNG(7).uniform(size=5)
        b = SeededRNG(8).uniform(size=5)
        assert list(a) != list(b)

    def test_children_are_independent_of_creation_order(self):
        root = SeededRNG(7)
        first = root.child("alpha").uniform(size=3)
        root2 = SeededRNG(7)
        root2.child("beta")
        second = root2.child("alpha").uniform(size=3)
        assert list(first) == list(second)

    def test_child_streams_differ_from_parent(self):
        root = SeededRNG(7)
        assert list(root.child("x").uniform(size=3)) != list(root.child("y").uniform(size=3))
