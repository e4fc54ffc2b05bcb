"""Virtual address space management (``cuMemMap`` analog).

LLM attention kernels are written against a single contiguous virtual range
for the KV cache (Figure 7a).  The paper's trick is to keep that range fixed
and grow the amount of *physical* memory mapped behind its tail using the
CUDA virtual-memory APIs.  This module reproduces that mechanism: a
:class:`VirtualRange` is a reserved span of virtual addresses backed, page
after page, by a stack of :class:`~repro.memory.physical.ChunkRun` s; only
the mapped prefix is usable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, List

from repro.memory.physical import ChunkRun


@dataclass
class VirtualRange:
    """A reserved contiguous virtual address range.

    Mapping must keep the mapped region a contiguous prefix of the range —
    exactly the discipline the KV-cache region uses (grow at the tail,
    shrink from the tail).  ``runs`` back the mapped pages in order, and
    ``mapped_pages`` is their total length.
    """

    range_id: int
    size_bytes: int
    chunk_bytes: int
    runs: List[ChunkRun] = field(default_factory=list)
    mapped_pages: int = 0

    @property
    def num_pages(self) -> int:
        return self.size_bytes // self.chunk_bytes

    @property
    def mapped_bytes(self) -> int:
        return self.mapped_pages * self.chunk_bytes


class VirtualAddressSpace:
    """Per-instance virtual address space.

    Provides ``reserve`` (cuMemAddressReserve) and ``map_tail`` /
    ``unmap_tail`` (cuMemMap / cuMemUnmap at the end of a range).  The
    prefix-contiguity restriction keeps the model faithful to how the paper
    extends the KV region while leaving kernels untouched.
    """

    #: Latency of one map/unmap batch; the paper measures ~5 ms on its
    #: platform and calls it negligible relative to inference time.
    REMAP_LATENCY_S = 0.005

    def __init__(self, chunk_bytes: int) -> None:
        if chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")
        self.chunk_bytes = int(chunk_bytes)
        self._counter = itertools.count()

    def reserve(self, size_bytes: int) -> VirtualRange:
        """Reserve a virtual range of at least ``size_bytes`` bytes."""
        if size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        pages = -(-int(size_bytes) // self.chunk_bytes)
        return VirtualRange(
            range_id=next(self._counter),
            size_bytes=pages * self.chunk_bytes,
            chunk_bytes=self.chunk_bytes,
        )

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------
    def map_tail(self, vrange: VirtualRange, runs: Iterable[ChunkRun]) -> int:
        """Map ``runs`` directly after the currently mapped prefix.

        Returns the new mapped size in bytes.

        Raises:
            ValueError: if the range does not have enough unmapped pages.
        """
        runs = [run for run in runs if run.count]
        pages = sum(run.count for run in runs)
        unmapped = vrange.num_pages - vrange.mapped_pages
        if pages > unmapped:
            raise ValueError(
                f"range {vrange.range_id} has {unmapped} unmapped pages, "
                f"cannot map {pages}"
            )
        vrange.runs.extend(runs)
        vrange.mapped_pages += pages
        return vrange.mapped_bytes

    def unmap_tail(self, vrange: VirtualRange, num_pages: int) -> List[ChunkRun]:
        """Unmap the last ``num_pages`` mapped pages and return their runs.

        The runs come back in address order.  At most one run is split: its
        head stays mapped and its tail is returned.
        """
        if num_pages < 0:
            raise ValueError("num_pages must be >= 0")
        if num_pages > vrange.mapped_pages:
            raise ValueError(
                f"range {vrange.range_id} only has {vrange.mapped_pages} mapped pages"
            )
        taken: List[ChunkRun] = []
        remaining = num_pages
        while remaining:
            run = vrange.runs.pop()
            if run.count > remaining:
                kept = run.count - remaining
                vrange.runs.append(ChunkRun(run.first, kept))
                run = ChunkRun(run.first + kept, remaining)
            taken.append(run)
            remaining -= run.count
        vrange.mapped_pages -= num_pages
        taken.reverse()
        return taken
