import numpy as np
import pytest

import layers
from layertrace import LayerTracer, self_times


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] -> a [1, 4], b [5, 9] -> c [6, 7]
    starts = np.array([0.0, 1.0, 5.0, 6.0])
    ends = np.array([10.0, 4.0, 9.0, 7.0])
    parents = np.array([-1, 0, 0, 2])
    assert self_times(starts, ends, parents).tolist() == [3.0, 3.0, 3.0, 1.0]


def test_self_times_of_disjoint_roots_are_their_durations():
    starts = np.array([0.0, 2.0])
    ends = np.array([1.0, 5.0])
    assert self_times(starts, ends, np.array([-1, -1])).tolist() == [1.0, 3.0]


def test_split_attributes_nested_calls_to_their_layers():
    tracer = LayerTracer()
    inner = tracer._spanned(lambda: sum(range(20000)),
                            tracer.name_id("repro.engine.latency_model:LatencyModel.batch_time"))
    outer = tracer._spanned(lambda: [inner() for _ in range(3)],
                            tracer.name_id("repro.engine.scheduler:Scheduler.form_batch"))
    tracer.run(outer)
    split = tracer.split()
    assert split["engine.scheduler.calls"] == 1
    assert split["engine.latency_model.calls"] == 3
    assert split["engine.latency_model.self_s"] > 0
    total = sum(v for k, v in split.items() if k.endswith(".self_s"))
    root = tracer.ends[0] - tracer.starts[0]
    assert total == pytest.approx(root)


def test_reset_keeps_wrappers_recording():
    tracer = LayerTracer()
    fn = tracer._spanned(lambda: None, tracer.name_id("repro.memory.paged_kv:f"))
    fn()
    tracer.reset()
    fn()
    assert tracer.split()["memory.calls"] == 1


def test_install_wraps_and_uninstall_restores():
    from repro.engine.scheduler import ContinuousBatchingScheduler
    from repro.simulation.event_loop import EventLoop

    originals = (EventLoop.run, EventLoop.schedule_at, ContinuousBatchingScheduler.form_batch)
    tracer = LayerTracer()
    tracer.install()
    try:
        assert EventLoop.run is not originals[0]
        loop = EventLoop()
        seen = []
        loop.schedule(1.0, lambda: seen.append(loop.now))
        tracer.reset()
        loop.run()
        split = tracer.split()
    finally:
        tracer.uninstall()
    assert seen == [1.0]
    assert split["simulation.events"] == 1
    # run is a simulation span; the callback, defined outside the
    # simulator, is charged to other.
    assert split["simulation.calls"] == 1
    assert split["other.self_s"] > 0
    assert (EventLoop.run, EventLoop.schedule_at,
            ContinuousBatchingScheduler.form_batch) == originals
    assert tracer.absent == []


def test_missing_target_marks_layer_absent(monkeypatch):
    monkeypatch.setattr(layers, "SPANS", layers.SPANS + (
        ("repro.core.restore", "RestoreManager", ("no_such_method",)),
        ("repro.no_such_module", None, ("anything",)),
    ))
    tracer = LayerTracer()
    tracer.install()
    tracer.uninstall()
    assert "core" in tracer.absent
    assert "other" in tracer.absent
