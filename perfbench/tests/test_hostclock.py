import pytest

import hostclock
from hostclock import ScaledClock
from repro.simulation.event_loop import EventLoop
from workloads import run_burst


def test_scaled_divides_each_stretch_by_the_reference_speed_at_its_ends():
    ref = hostclock.REFERENCE_S
    assert hostclock.scaled([(0.0, ref), (3.0, ref)]) == pytest.approx(3.0)
    assert hostclock.scaled([(0.0, 2 * ref), (3.0, 2 * ref)]) == pytest.approx(1.5)
    assert hostclock.scaled([(0.0, ref), (1.0, ref), (3.0, 3 * ref)]) == pytest.approx(2.0)


def test_reference_work_is_fixed():
    assert hostclock.reference() == hostclock.REFERENCE_CHECKSUM
    assert hostclock.reference_s() > 0


@pytest.mark.parametrize("policy", ["vllm", "kunserve"])
def test_sampling_leaves_the_simulation_unchanged(policy, monkeypatch):
    monkeypatch.setattr(hostclock, "SAMPLE_EVERY_S", 0.0)
    original = EventLoop.run
    plain = run_burst(policy, 5, "tiny", ScaledClock(sample=False))
    sampled = run_burst(policy, 5, "tiny", ScaledClock())
    assert EventLoop.run is original
    assert sampled.digest() == plain.digest()
    assert plain.scaled_s == plain.wall_s
    assert sampled.scaled_s > 0 and sampled.wall_s > 0
