"""Paged KV-cache block manager (vLLM PagedAttention-style).

The KV cache of every request is stored in fixed-size blocks of
``block_size`` tokens.  The manager tracks a per-request block table, the
number of free blocks, and supports growing / shrinking the total number of
blocks, which is how the unified memory manager exposes memory freed by
dropped parameters to the cache (§4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass(slots=True)
class BlockTable:
    """Block bookkeeping for a single request."""

    request_id: int
    num_blocks: int = 0
    num_tokens: int = 0


class PagedKVCache:
    """Block-granular KV cache allocator for one serving instance / group.

    All sizes are in *tokens* and *blocks*; byte conversions live in the
    unified memory manager, which owns the translation between mapped
    physical memory and block count.
    """

    def __init__(self, num_blocks: int, block_size: int) -> None:
        if num_blocks < 0:
            raise ValueError("num_blocks must be >= 0")
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        self.block_size = int(block_size)
        self._num_blocks = int(num_blocks)
        self._tables: Dict[int, BlockTable] = {}
        self._used_blocks = 0
        # Running totals so capacity queries on the scheduling hot path are
        # O(1) instead of per-request sums.
        self._used_tokens = 0

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------
    @property
    def num_blocks(self) -> int:
        return self._num_blocks

    @property
    def used_blocks(self) -> int:
        return self._used_blocks

    @property
    def free_blocks(self) -> int:
        return self._num_blocks - self._used_blocks

    @property
    def capacity_tokens(self) -> int:
        return self._num_blocks * self.block_size

    @property
    def used_tokens(self) -> int:
        return self._used_tokens

    @property
    def utilization(self) -> float:
        """Fraction of blocks in use (1.0 == full)."""
        if self._num_blocks == 0:
            return 1.0
        return self._used_blocks / self._num_blocks

    def blocks_for_tokens(self, num_tokens: int) -> int:
        """Blocks needed to hold ``num_tokens`` tokens."""
        if num_tokens < 0:
            raise ValueError("num_tokens must be >= 0")
        return -(-num_tokens // self.block_size)

    def grow(self, extra_blocks: int) -> None:
        """Add ``extra_blocks`` blocks of capacity (parameter drop)."""
        if extra_blocks < 0:
            raise ValueError("extra_blocks must be >= 0")
        self._num_blocks += extra_blocks

    def shrink(self, blocks: int) -> None:
        """Remove ``blocks`` blocks of capacity (parameter restore).

        Raises:
            MemoryError: if that many blocks are not currently free.
        """
        if blocks < 0:
            raise ValueError("blocks must be >= 0")
        if blocks > self.free_blocks:
            raise MemoryError(
                f"cannot shrink by {blocks} blocks: only {self.free_blocks} free"
            )
        self._num_blocks -= blocks

    # ------------------------------------------------------------------
    # Per-request allocation
    # ------------------------------------------------------------------
    def has_request(self, request_id: int) -> bool:
        return request_id in self._tables

    def table(self, request_id: int) -> BlockTable:
        return self._tables[request_id]

    def tokens_of(self, request_id: int) -> int:
        table = self._tables.get(request_id)
        return 0 if table is None else table.num_tokens

    def can_allocate(self, request_id: int, new_tokens: int) -> bool:
        """Would appending ``new_tokens`` tokens to the request succeed?"""
        return self._extra_blocks_needed(request_id, new_tokens) <= self.free_blocks

    def try_allocate(self, request_id: int, new_tokens: int) -> Optional[int]:
        """Allocate if possible; returns blocks allocated, or None if full.

        A fused check-then-commit: calling :meth:`can_allocate` followed by
        :meth:`allocate` would compute the block requirement twice.
        """
        if new_tokens < 0:
            raise ValueError("new_tokens must be >= 0")
        extra = self._extra_blocks_needed(request_id, new_tokens)
        if extra > self.free_blocks:
            return None
        self._commit_allocation(request_id, extra, new_tokens)
        return extra

    def append_token(self, request_id: int) -> Optional[int]:
        """Fast path for ``try_allocate(request_id, 1)``: one decode step.

        Returns the number of new blocks (0 or 1), or None when the cache is
        full, exactly as ``try_allocate`` would.  (The scheduler's decode
        cohort grows its members' tables in bulk and does not call it.)
        """
        table = self._tables.get(request_id)
        if table is None:
            if self._used_blocks >= self._num_blocks:
                return None
            table = BlockTable(request_id=request_id, num_blocks=1, num_tokens=1)
            self._tables[request_id] = table
            self._used_blocks += 1
            self._used_tokens += 1
            return 1
        if table.num_tokens < table.num_blocks * self.block_size:
            table.num_tokens += 1
            self._used_tokens += 1
            return 0
        if self._used_blocks >= self._num_blocks:
            return None
        table.num_blocks += 1
        table.num_tokens += 1
        self._used_blocks += 1
        self._used_tokens += 1
        return 1

    def allocate(self, request_id: int, new_tokens: int) -> int:
        """Append ``new_tokens`` tokens to the request's KV cache.

        Returns the number of new blocks allocated.

        Raises:
            MemoryError: when there are not enough free blocks.
        """
        if new_tokens < 0:
            raise ValueError("new_tokens must be >= 0")
        extra = self._extra_blocks_needed(request_id, new_tokens)
        if extra > self.free_blocks:
            raise MemoryError(
                f"KV cache full: request {request_id} needs {extra} blocks, "
                f"{self.free_blocks} free"
            )
        self._commit_allocation(request_id, extra, new_tokens)
        return extra

    def _commit_allocation(self, request_id: int, extra_blocks: int, new_tokens: int) -> None:
        """Apply an already-validated allocation to the bookkeeping."""
        table = self._tables.setdefault(request_id, BlockTable(request_id=request_id))
        table.num_blocks += extra_blocks
        table.num_tokens += new_tokens
        self._used_blocks += extra_blocks
        self._used_tokens += new_tokens

    def free(self, request_id: int) -> int:
        """Release all blocks of a request; returns the blocks freed."""
        table = self._tables.pop(request_id, None)
        if table is None:
            return 0
        self._used_blocks -= table.num_blocks
        self._used_tokens -= table.num_tokens
        return table.num_blocks

    def free_partial(self, request_id: int, keep_tokens: int) -> int:
        """Shrink a request's cache to ``keep_tokens`` tokens (tail drop).

        Returns the number of blocks freed.  Used by migration to account
        for partially-moved requests.
        """
        table = self._tables.get(request_id)
        if table is None:
            return 0
        if keep_tokens < 0:
            raise ValueError("keep_tokens must be >= 0")
        keep_tokens = min(keep_tokens, table.num_tokens)
        keep_blocks = self.blocks_for_tokens(keep_tokens)
        freed = table.num_blocks - keep_blocks
        self._used_tokens -= table.num_tokens - keep_tokens
        table.num_blocks = keep_blocks
        table.num_tokens = keep_tokens
        self._used_blocks -= freed
        if table.num_tokens == 0:
            del self._tables[request_id]
        return freed

    def request_ids(self) -> List[int]:
        return list(self._tables.keys())

    def fragmentation_tokens(self) -> int:
        """Tokens of capacity lost to partially-filled tail blocks."""
        return self._used_blocks * self.block_size - self._used_tokens

    def _extra_blocks_needed(self, request_id: int, new_tokens: int) -> int:
        table = self._tables.get(request_id)
        current_tokens = 0 if table is None else table.num_tokens
        current_blocks = 0 if table is None else table.num_blocks
        return self.blocks_for_tokens(current_tokens + new_tokens) - current_blocks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PagedKVCache(blocks={self._num_blocks}, used={self._used_blocks}, "
            f"block_size={self.block_size})"
        )
