"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.specs import A800_80GB, cluster_a_spec
from repro.engine.instance import ServingInstance
from repro.engine.latency_model import LatencyModel
from repro.engine.metrics import MetricsCollector
from repro.models.catalog import QWEN_2_5_14B
from repro.simulation.event_loop import EventLoop
from repro.sweeps.cache import CACHE_DIR_ENV


@pytest.fixture(scope="session", autouse=True)
def result_cache_dir(tmp_path_factory):
    """Send every result cache the suite does not place itself to a
    throwaway directory: the commands cache by default, and the checkout's
    own ``.repro_cache/`` must not fill with entries from test runs."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(CACHE_DIR_ENV, str(tmp_path_factory.mktemp("repro-cache")))
        yield


@pytest.fixture
def loop() -> EventLoop:
    return EventLoop()


@pytest.fixture
def small_cluster(loop) -> Cluster:
    return Cluster(cluster_a_spec(2), loop)


@pytest.fixture
def metrics() -> MetricsCollector:
    return MetricsCollector()


@pytest.fixture
def latency_model() -> LatencyModel:
    return LatencyModel(A800_80GB, QWEN_2_5_14B)


@pytest.fixture
def two_instances(small_cluster):
    instances = []
    for index, gpus in enumerate(small_cluster.gpu_groups(1)):
        instance = ServingInstance(index, QWEN_2_5_14B, gpus)
        instance.load_full_model()
        instances.append(instance)
    return instances
