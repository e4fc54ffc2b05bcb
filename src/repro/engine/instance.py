"""Serving instance: the GPUs holding (at most) one full copy of the model.

An instance is the paper's unit of replication: "the minimal set of GPUs
that have a single copy of the model parameters".  It owns a
:class:`~repro.memory.unified.UnifiedMemoryManager` spanning all its GPUs'
HBM and a :class:`~repro.engine.latency_model.LatencyModel` describing its
aggregate compute capability (tensor parallelism inside the instance).
Execution happens at the :class:`~repro.engine.group.ServingGroup` level —
a group is one or more instances cooperating via pipeline parallelism.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.cluster.cluster import Cluster
from repro.cluster.gpu import GPU
from repro.engine.latency_model import LatencyModel
from repro.memory.unified import UnifiedMemoryManager
from repro.models.spec import ModelSpec


class ServingInstance:
    """One model replica's worth of GPUs plus its local memory manager."""

    def __init__(self, instance_id: int, model: ModelSpec, gpus: List[GPU]) -> None:
        if not gpus:
            raise ValueError("an instance needs at least one GPU")
        self.instance_id = instance_id
        self.model = model
        self.gpus = list(gpus)
        self.server_id = gpus[0].server_id
        self.tp_degree = len(gpus)
        self.memory = UnifiedMemoryManager(model, sum(gpu.hbm_bytes for gpu in gpus))
        self.latency = LatencyModel(gpus[0].spec, model, tp_degree=self.tp_degree)
        #: set by fault-injection tests / the fault-tolerance module.
        self.failed: bool = False

    # ------------------------------------------------------------------
    # Model loading
    # ------------------------------------------------------------------
    def load_full_model(self) -> None:
        """Load every layer and give the rest of HBM to the KV cache."""
        self.load_layers(range(self.model.num_layers))

    def load_layers(self, layers: Iterable[int]) -> None:
        """Load only ``layers`` (static pipeline-parallel deployments)."""
        self.memory.load_layers(layers)
        self.memory.provision_kv_cache()

    # ------------------------------------------------------------------
    # Convenience passthroughs
    # ------------------------------------------------------------------
    @property
    def resident_layers(self) -> List[int]:
        return sorted(self.memory.resident_layers)

    @property
    def num_resident_layers(self) -> int:
        return self.memory.num_resident_layers

    @property
    def kv_capacity_bytes(self) -> int:
        return self.memory.kv_capacity_bytes

    def nic_node(self) -> str:
        """Fabric endpoint of this instance's RDMA NIC."""
        return Cluster.nic_node(self.server_id)

    def host_node(self) -> str:
        """Fabric endpoint of this instance's host DRAM (PCIe)."""
        return Cluster.host_node(self.server_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ServingInstance(id={self.instance_id}, model={self.model.name}, "
            f"gpus={len(self.gpus)}, layers={self.num_resident_layers}/"
            f"{self.model.num_layers})"
        )
