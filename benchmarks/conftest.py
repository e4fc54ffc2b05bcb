"""Benchmark-suite configuration.

Every benchmark runs a scaled-down but structurally identical version of a
paper experiment exactly once (simulations are deterministic, so repeated
rounds only re-measure the same run) and prints the rows the paper
reports, to compare with FIGURES_results.json (full scale; see
tests/test_paper_claims.py).
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments.runner import ExperimentScale

_BENCH_DIR = pathlib.Path(__file__).parent


def pytest_collection_modifyitems(config, items):
    """Mark every benchmark as ``slow`` so ``-m "not slow"`` skips the suite."""
    for item in items:
        if _BENCH_DIR in pathlib.Path(str(item.fspath)).parents:
            item.add_marker(pytest.mark.slow)

#: Scale used by all benchmarks: 2 serving instances, a ~60 s trace.
BENCH_SCALE = ExperimentScale(
    name="bench",
    num_instances=2,
    trace_duration_s=60.0,
    drain_timeout_s=60.0,
)

#: Larger scale for the benchmarks that need a real overload to be visible.
BENCH_SCALE_OVERLOAD = ExperimentScale(
    name="bench-overload",
    num_instances=4,
    trace_duration_s=90.0,
    drain_timeout_s=90.0,
)


@pytest.fixture(scope="session")
def bench_scale() -> ExperimentScale:
    return BENCH_SCALE


@pytest.fixture(scope="session")
def bench_scale_overload() -> ExperimentScale:
    return BENCH_SCALE_OVERLOAD


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)
