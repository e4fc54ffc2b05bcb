"""Serving-system configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.chaos.config import FaultSchedule
from repro.cluster.cluster import ClusterSpec
from repro.cluster.specs import cluster_a_spec
from repro.fleet.config import FleetConfig
from repro.models.catalog import QWEN_2_5_14B
from repro.models.spec import ModelSpec
from repro.multicluster.config import MultiClusterConfig


@dataclass
class ServingConfig:
    """Everything needed to build a :class:`ClusterServingSystem`.

    Properties of the testbed (KV block size, HBM reserve, running-request
    cap, monitor period, timeline window, roofline constants) are constants
    of the modules that read them, listed in ARCHITECTURE.md.

    Attributes:
        model: the model being served (one replica per instance).
        cluster: the hardware (servers, GPUs, network).
        gpus_per_instance: GPUs per serving instance (tensor parallelism
            degree inside an instance; 1 for the 14B model, 4 for the 72B).
        token_budget: chunked-prefill token budget per iteration.
        drain_timeout_s: how long past the last arrival the simulation keeps
            running to let in-flight requests finish.
        seed: experiment seed of the randomised routers (a multicluster
            tier derives each shard's seed from it).
        fleet: optional elastic-fleet layer (router strategy, admission
            control, autoscaler); ``None`` keeps the classic fixed fleet
            behind the plain dispatcher.
        multicluster: optional fleet-of-fleets tier
            (:mod:`repro.multicluster`): ``cluster`` then describes *one
            shard* and :class:`~repro.multicluster.system.MultiClusterSystem`
            instantiates ``multicluster.num_clusters`` of them behind a
            global router; ``None`` keeps the single-cluster system.
        chaos: optional deterministic fault schedule (:mod:`repro.chaos`)
            injected while the workload replays.  A multicluster system
            honours every fault kind; a single-cluster system accepts
            ``instance_kill`` events only (cluster outages and WAN
            degradation need the tier).  ``None`` disables injection.
    """

    model: ModelSpec = field(default_factory=lambda: QWEN_2_5_14B)
    cluster: ClusterSpec = field(default_factory=cluster_a_spec)
    gpus_per_instance: int = 1
    token_budget: int = 1024
    drain_timeout_s: float = 120.0
    seed: int = 42
    fleet: Optional[FleetConfig] = None
    multicluster: Optional[MultiClusterConfig] = None
    chaos: Optional[FaultSchedule] = None

    def __post_init__(self) -> None:
        if self.gpus_per_instance <= 0:
            raise ValueError("gpus_per_instance must be positive")
        if self.gpus_per_instance > self.cluster.total_gpus:
            raise ValueError(
                f"gpus_per_instance={self.gpus_per_instance} exceeds the cluster's "
                f"{self.cluster.total_gpus} GPUs"
            )
        if self.drain_timeout_s < 0:
            raise ValueError("drain_timeout_s must be >= 0")

    @property
    def num_instances(self) -> int:
        return self.cluster.total_gpus // self.gpus_per_instance
