"""Physical GPU memory pool (``cuMemCreate`` analog).

The pool hands out fixed-size physical chunks as runs of consecutive chunk
ids.  Chunks are the unit the local memory manager moves between the
parameter region and the KV-cache region when executing a drop or restore
plan; a run records how many move, not one object per chunk.
"""

from __future__ import annotations

from typing import Dict, Iterable, NamedTuple

#: Default physical allocation granularity, matching CUDA VMM's 2 MiB.
DEFAULT_CHUNK_BYTES = 2 * 1024 * 1024


class ChunkRun(NamedTuple):
    """``count`` physical chunks with consecutive ids starting at ``first``."""

    first: int
    count: int

    @property
    def end(self) -> int:
        """One past the last chunk id of the run."""
        return self.first + self.count


class PhysicalMemoryPool:
    """Fixed-capacity pool of physical chunks for one serving instance.

    The pool intentionally refuses to over-allocate: requesting more memory
    than is free raises :class:`MemoryError`, which is what forces the
    serving engine to queue or preempt requests — the phenomenon the paper
    studies.  Every allocation is one :class:`ChunkRun`, whatever its size.
    """

    def __init__(self, total_bytes: int, chunk_bytes: int = DEFAULT_CHUNK_BYTES) -> None:
        if total_bytes <= 0:
            raise ValueError(f"total_bytes must be positive, got {total_bytes}")
        if chunk_bytes <= 0:
            raise ValueError(f"chunk_bytes must be positive, got {chunk_bytes}")
        self.chunk_bytes = int(chunk_bytes)
        self.total_chunks = int(total_bytes // chunk_bytes)
        if self.total_chunks == 0:
            raise ValueError("total_bytes smaller than one chunk")
        self._next_id = 0
        #: first id -> end id of each allocated, disjoint span of chunk ids.
        self._allocated: Dict[int, int] = {}
        self.allocated_chunks = 0

    # ------------------------------------------------------------------
    # Capacity queries
    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        return self.total_chunks * self.chunk_bytes

    @property
    def allocated_bytes(self) -> int:
        return self.allocated_chunks * self.chunk_bytes

    @property
    def free_chunks(self) -> int:
        return self.total_chunks - self.allocated_chunks

    @property
    def free_bytes(self) -> int:
        return self.free_chunks * self.chunk_bytes

    def chunks_needed(self, size_bytes: int) -> int:
        """Number of chunks needed to back ``size_bytes`` bytes."""
        if size_bytes < 0:
            raise ValueError(f"size_bytes must be >= 0, got {size_bytes}")
        return -(-int(size_bytes) // self.chunk_bytes)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate(self, size_bytes: int) -> ChunkRun:
        """Allocate one run of enough chunks to back ``size_bytes`` bytes.

        Raises:
            MemoryError: when the pool does not have enough free chunks.
        """
        needed = self.chunks_needed(size_bytes)
        if needed > self.free_chunks:
            raise MemoryError(
                f"out of GPU memory: need {needed} chunks "
                f"({size_bytes} bytes), only {self.free_chunks} free"
            )
        run = ChunkRun(self._next_id, needed)
        if needed:
            self._next_id = run.end
            self._allocated[run.first] = run.end
            self.allocated_chunks += needed
        return run

    def free(self, runs: Iterable[ChunkRun]) -> None:
        """Return runs (whole allocations or any part of one) to the pool.

        Raises:
            KeyError: if any chunk was not allocated from this pool (or was
                already freed) — double frees are bugs we want loud.  The
                pool is left unchanged.
        """
        allocated = dict(self._allocated)
        freed = 0
        for run in runs:
            if not run.count:
                continue
            first = next(
                (start for start, end in allocated.items()
                 if start <= run.first and run.end <= end),
                None,
            )
            if first is None:
                raise KeyError(
                    f"chunks {run.first}..{run.end - 1} are not allocated from this pool"
                )
            end = allocated.pop(first)
            if first < run.first:
                allocated[first] = run.first
            if run.end < end:
                allocated[run.end] = end
            freed += run.count
        self._allocated = allocated
        self.allocated_chunks -= freed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PhysicalMemoryPool(total={self.total_bytes}, "
            f"allocated={self.allocated_bytes}, chunk={self.chunk_bytes})"
        )
