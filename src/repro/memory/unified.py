"""Unified parameter + KV-cache memory manager for one serving instance.

This is the "local instance memory management" of §4.1: all HBM of an
instance is managed as one physical pool.  Each resident layer's
parameters occupy the chunk runs its load allocated; every other chunk is
mapped at the tail of a single contiguous KV-cache virtual range, whose
mapped pages are the only record of KV memory.  Dropping layers maps their
runs behind the tail (growing the KV capacity); restoring layers unmaps
exactly the chunks a load gives a layer from the tail and hands them back,
so a drop/restore round trip leaves parameters and KV capacity as they
were.  The manager holds no paged cache: requests allocate KV blocks from
their group's :class:`~repro.memory.paged_kv.PagedKVCache`, which the group
sizes from its instances' KV bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Set

from repro.memory.physical import ChunkRun, PhysicalMemoryPool
from repro.memory.virtual_memory import VirtualAddressSpace, VirtualRange
from repro.models.memory import kv_bytes_per_token, param_bytes_per_layer
from repro.models.spec import ModelSpec


@dataclass
class DropResult:
    """Outcome of dropping a set of layers on one instance."""

    dropped_layers: List[int]
    freed_bytes: int
    remap_latency_s: float


@dataclass
class RestoreResult:
    """Outcome of restoring a set of layers on one instance."""

    restored_layers: List[int]
    transfer_bytes: int
    remap_latency_s: float


class UnifiedMemoryManager:
    """Holistic manager of parameter and KV memory on a serving instance.

    Args:
        spec: the model served by the instance.
        total_hbm_bytes: aggregate HBM across the instance's GPUs.
        block_size: KV-cache block size in tokens (the paper tunes 64).
        runtime_reserve_fraction: fraction of HBM reserved for activations,
            CUDA graphs and framework overheads and never handed to the KV
            cache (vLLM's ``gpu_memory_utilization`` complement).
    """

    def __init__(
        self,
        spec: ModelSpec,
        total_hbm_bytes: int,
        *,
        block_size: int = 64,
        runtime_reserve_fraction: float = 0.10,
    ) -> None:
        if not 0 <= runtime_reserve_fraction < 1:
            raise ValueError("runtime_reserve_fraction must be in [0, 1)")
        self.spec = spec
        self.total_hbm_bytes = int(total_hbm_bytes)
        self.block_size = int(block_size)
        self.kv_token_bytes = kv_bytes_per_token(spec)
        self.block_bytes = self.block_size * self.kv_token_bytes
        self.layer_param_bytes = param_bytes_per_layer(spec)
        self.runtime_reserve_bytes = int(total_hbm_bytes * runtime_reserve_fraction)

        usable = self.total_hbm_bytes - self.runtime_reserve_bytes
        if usable <= 0:
            raise ValueError("no usable HBM after runtime reserve")
        self.pool = PhysicalMemoryPool(usable)
        self.vas = VirtualAddressSpace(chunk_bytes=self.pool.chunk_bytes)
        #: chunks one layer's parameters occupy: what a load allocates and
        #: what a restore takes back.
        self.layer_chunks = self.pool.chunks_needed(self.layer_param_bytes)

        # The KV virtual range is reserved large enough to cover the whole
        # GPU so it never needs to move (the point of the cuMemMap trick).
        self.kv_range: VirtualRange = self.vas.reserve(usable)
        #: resident layer -> the chunk runs holding its parameters.
        self._param_runs: Dict[int, List[ChunkRun]] = {}

    # ------------------------------------------------------------------
    # Initialisation
    # ------------------------------------------------------------------
    def load_layers(self, layers: Iterable[int]) -> None:
        """Allocate parameter memory for ``layers`` (initial model load).

        Raises:
            MemoryError: if the parameters do not fit.
        """
        for layer in sorted(set(layers) - self._param_runs.keys()):
            self._param_runs[layer] = [self.pool.allocate(self.layer_param_bytes)]

    def provision_kv_cache(self) -> int:
        """Map all remaining free physical memory into the KV range.

        Returns the resulting number of KV blocks.  Called once after
        ``load_layers``; drops and restores remap the KV range themselves.
        """
        free_bytes = self.pool.free_bytes
        if free_bytes > 0:
            self.vas.map_tail(self.kv_range, [self.pool.allocate(free_bytes)])
        return self.kv_blocks

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def resident_layers(self) -> Set[int]:
        return set(self._param_runs)

    @property
    def num_resident_layers(self) -> int:
        return len(self._param_runs)

    @property
    def param_bytes_resident(self) -> int:
        chunks = sum(run.count for runs in self._param_runs.values() for run in runs)
        return chunks * self.pool.chunk_bytes

    @property
    def kv_capacity_bytes(self) -> int:
        return self.kv_range.mapped_bytes

    @property
    def kv_blocks(self) -> int:
        """Whole KV blocks the mapped KV memory holds."""
        return self.kv_capacity_bytes // self.block_bytes

    @property
    def kv_capacity_tokens(self) -> int:
        return self.kv_blocks * self.block_size

    # ------------------------------------------------------------------
    # Drop / restore
    # ------------------------------------------------------------------
    def drop_layers(self, layers: Iterable[int]) -> DropResult:
        """Free the parameters of ``layers`` and grow the KV cache over them.

        Mirrors §4.1: identify the physical memory of the dropped layers,
        then map it at the tail of the KV region.  The remap latency is the
        ~5 ms cuMemMap cost measured by the paper.
        """
        to_drop = sorted(set(layers) & self._param_runs.keys())
        freed = [run for layer in to_drop for run in self._param_runs.pop(layer)]
        self.vas.map_tail(self.kv_range, freed)
        freed_bytes = sum(run.count for run in freed) * self.pool.chunk_bytes
        return DropResult(
            dropped_layers=to_drop,
            freed_bytes=freed_bytes,
            remap_latency_s=self.vas.REMAP_LATENCY_S if freed_bytes else 0.0,
        )

    def can_restore_layers(self, layers: Iterable[int]) -> bool:
        """Do the KV range's whole blocks cover the chunks ``layers`` need?"""
        missing = set(layers) - self._param_runs.keys()
        needed_bytes = len(missing) * self.layer_chunks * self.pool.chunk_bytes
        return needed_bytes <= self.kv_blocks * self.block_bytes

    def restore_layers(self, layers: Iterable[int]) -> RestoreResult:
        """Reclaim KV memory and mark ``layers`` resident again.

        Each layer gets back ``layer_chunks`` chunks unmapped from the tail
        of the KV range.  The caller is responsible for actually
        transferring the parameter bytes over the network (the returned
        ``transfer_bytes``); this method performs the memory movement only.

        Raises:
            MemoryError: if the KV range cannot give up enough whole blocks.
        """
        missing = sorted(set(layers) - self._param_runs.keys())
        if not missing:
            return RestoreResult([], 0, 0.0)
        if not self.can_restore_layers(missing):
            raise MemoryError(
                "not enough KV-cache memory to restore "
                f"{len(missing)} layers on this instance"
            )
        for layer in missing:
            self._param_runs[layer] = self.vas.unmap_tail(self.kv_range, self.layer_chunks)
        return RestoreResult(
            restored_layers=missing,
            transfer_bytes=len(missing) * self.layer_param_bytes,
            remap_latency_s=self.vas.REMAP_LATENCY_S,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"UnifiedMemoryManager(model={self.spec.name}, "
            f"layers={self.num_resident_layers}/{self.spec.num_layers}, "
            f"kv_blocks={self.kv_blocks})"
        )
