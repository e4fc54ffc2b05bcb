"""GPU memory substrate.

Implements the two memory mechanisms the paper relies on:

* a CUDA-virtual-memory analog (:mod:`repro.memory.physical`,
  :mod:`repro.memory.virtual_memory`): physical chunks are allocated once
  (``cuMemCreate``), as runs of consecutive chunks, and mapped/unmapped at
  the tail of a contiguous virtual range (``cuMemMap``/``cuMemUnmap``), so
  the KV-cache region can be extended over memory freed by dropped
  parameters without changing the "kernel-visible" layout (§4.1);
* a paged KV-cache block allocator (:mod:`repro.memory.paged_kv`) in the
  style of vLLM's PagedAttention block manager — each serving group owns
  the one its requests allocate from;
* a per-instance :class:`~repro.memory.unified.UnifiedMemoryManager` that
  holds both parameters and KV memory in one physical pool and implements
  ``drop_layers`` / ``restore_layers``.
"""

from repro.memory.physical import ChunkRun, PhysicalMemoryPool
from repro.memory.virtual_memory import VirtualAddressSpace, VirtualRange
from repro.memory.paged_kv import BlockTable, PagedKVCache
from repro.memory.unified import UnifiedMemoryManager

__all__ = [
    "ChunkRun",
    "PhysicalMemoryPool",
    "VirtualAddressSpace",
    "VirtualRange",
    "BlockTable",
    "PagedKVCache",
    "UnifiedMemoryManager",
]
