"""Local (per-instance) memory manager: executes drop / restore plans.

The global memory manager decides *which* layers each instance keeps; the
local manager performs the mechanism on one instance: freeing the dropped
layers' physical chunks and remapping them into the KV-cache region via the
CUDA-VMM analog (§4.1), or the reverse for restoration.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.engine.instance import ServingInstance
from repro.memory.unified import DropResult, RestoreResult


class LocalMemoryManager:
    """Thin executor of drop / restore plans on a single instance."""

    def __init__(self, instance: ServingInstance) -> None:
        self.instance = instance

    def execute_drop(self, keep_layers: Iterable[int]) -> DropResult:
        """Drop every resident layer not in ``keep_layers``.

        The freed physical memory is immediately remapped behind the KV
        region, so the instance's KV capacity grows by the freed bytes.
        """
        memory = self.instance.memory
        return memory.drop_layers(memory.resident_layers - set(keep_layers))

    def can_restore(self, layers: Iterable[int]) -> bool:
        """Can the instance's KV memory give the layers their chunks back?"""
        return self.instance.memory.can_restore_layers(layers)

    def execute_restore(self, layers: Iterable[int]) -> RestoreResult:
        """Reclaim KV memory for ``layers`` and mark them resident.

        The returned ``transfer_bytes`` must be pulled over the network (or
        from host DRAM for fault recovery) by the caller.
        """
        return self.instance.memory.restore_layers(layers)

    def missing_layers(self, num_layers: int) -> List[int]:
        """Layers of the full model this instance does not currently hold."""
        resident = self.instance.memory.resident_layers
        return [layer for layer in range(num_layers) if layer not in resident]
