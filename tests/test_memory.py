"""Tests for the GPU memory substrate (physical, virtual, paged KV, unified)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.paged_kv import PagedKVCache
from repro.memory.physical import ChunkRun, PhysicalMemoryPool
from repro.memory.unified import UnifiedMemoryManager
from repro.memory.virtual_memory import VirtualAddressSpace
from repro.models.catalog import QWEN_2_5_14B

from tests.invariants import assert_memory_conservation

GB = 1024 ** 3
MB = 1024 ** 2


class TestPhysicalMemoryPool:
    def test_capacity_in_chunks(self):
        pool = PhysicalMemoryPool(10 * MB, chunk_bytes=MB)
        assert pool.total_chunks == 10
        assert pool.free_bytes == 10 * MB

    def test_allocate_and_free(self):
        pool = PhysicalMemoryPool(10 * MB, chunk_bytes=MB)
        first = pool.allocate(3 * MB)
        second = pool.allocate(2 * MB)
        assert first == ChunkRun(0, 3) and second == ChunkRun(3, 2)
        assert pool.free_chunks == 5
        pool.free([first])
        assert pool.free_chunks == 8
        # Any part of an allocated run can go back on its own.
        pool.free([ChunkRun(3, 1), ChunkRun(4, 1)])
        assert pool.free_chunks == 10

    def test_allocation_rounds_up(self):
        pool = PhysicalMemoryPool(10 * MB, chunk_bytes=MB)
        assert pool.allocate(MB + 1).count == 2
        assert pool.allocate(0) == ChunkRun(2, 0)
        assert pool.allocated_chunks == 2

    def test_out_of_memory_raises(self):
        pool = PhysicalMemoryPool(2 * MB, chunk_bytes=MB)
        pool.allocate(2 * MB)
        with pytest.raises(MemoryError):
            pool.allocate(1)

    def test_double_free_raises(self):
        pool = PhysicalMemoryPool(4 * MB, chunk_bytes=MB)
        run = pool.allocate(3 * MB)
        pool.free([ChunkRun(run.first + 1, 1)])
        with pytest.raises(KeyError):
            pool.free([ChunkRun(run.first, 2)])
        # A rejected free changes nothing, even for runs listed before the
        # bad one.
        with pytest.raises(KeyError):
            pool.free([ChunkRun(run.first, 1), ChunkRun(run.first, 1)])
        assert pool.allocated_chunks == 2
        pool.free([ChunkRun(run.first, 1), ChunkRun(run.first + 2, 1)])
        with pytest.raises(KeyError):
            pool.free([run])
        with pytest.raises(KeyError):
            pool.free([ChunkRun(99, 1)])
        assert pool.allocated_chunks == 0

    @given(st.lists(st.integers(min_value=1, max_value=8 * MB), min_size=1, max_size=20))
    @settings(max_examples=25, deadline=None)
    def test_property_allocated_never_exceeds_total(self, sizes):
        pool = PhysicalMemoryPool(64 * MB, chunk_bytes=MB)
        live = []
        for size in sizes:
            try:
                live.append(pool.allocate(size))
            except MemoryError:
                if live:
                    pool.free([live.pop(0)])
            assert 0 <= pool.allocated_bytes <= pool.total_bytes
            assert pool.allocated_bytes + pool.free_bytes == pool.total_bytes
            assert pool.allocated_chunks == sum(run.count for run in live)


class TestVirtualAddressSpace:
    def test_reserve_and_map_tail(self):
        vas = VirtualAddressSpace(chunk_bytes=MB)
        pool = PhysicalMemoryPool(8 * MB, chunk_bytes=MB)
        vrange = vas.reserve(4 * MB)
        run = pool.allocate(2 * MB)
        assert vas.map_tail(vrange, [run]) == 2 * MB
        assert vrange.mapped_pages == 2
        assert vrange.runs == [run]

    def test_unmap_tail_returns_last_chunks(self):
        vas = VirtualAddressSpace(chunk_bytes=MB)
        pool = PhysicalMemoryPool(8 * MB, chunk_bytes=MB)
        vrange = vas.reserve(4 * MB)
        head, tail = pool.allocate(MB), pool.allocate(2 * MB)
        vas.map_tail(vrange, [head, tail])
        assert vas.unmap_tail(vrange, 2) == [tail]
        assert vrange.runs == [head]
        assert vrange.mapped_pages == 1

    def test_unmap_tail_splits_one_run(self):
        vas = VirtualAddressSpace(chunk_bytes=MB)
        pool = PhysicalMemoryPool(8 * MB, chunk_bytes=MB)
        vrange = vas.reserve(8 * MB)
        head, tail = pool.allocate(3 * MB), pool.allocate(2 * MB)
        vas.map_tail(vrange, [head, tail])
        # The tail of ``head`` is unmapped and its first chunk stays mapped.
        popped = vas.unmap_tail(vrange, 4)
        assert popped == [ChunkRun(head.first + 1, 2), tail]
        assert vrange.runs == [ChunkRun(head.first, 1)]
        assert vrange.mapped_pages == 1
        assert vas.unmap_tail(vrange, 0) == []

    def test_cannot_map_beyond_range(self):
        vas = VirtualAddressSpace(chunk_bytes=MB)
        pool = PhysicalMemoryPool(8 * MB, chunk_bytes=MB)
        vrange = vas.reserve(2 * MB)
        with pytest.raises(ValueError):
            vas.map_tail(vrange, [pool.allocate(3 * MB)])
        assert vrange.mapped_pages == 0 and vrange.runs == []

    def test_cannot_unmap_more_than_mapped(self):
        vas = VirtualAddressSpace(chunk_bytes=MB)
        pool = PhysicalMemoryPool(8 * MB, chunk_bytes=MB)
        vrange = vas.reserve(4 * MB)
        vas.map_tail(vrange, [pool.allocate(2 * MB)])
        with pytest.raises(ValueError):
            vas.unmap_tail(vrange, 3)
        with pytest.raises(ValueError):
            vas.unmap_tail(vrange, -1)
        assert vrange.mapped_pages == 2


class TestPagedKVCache:
    def test_basic_allocation(self):
        cache = PagedKVCache(num_blocks=10, block_size=16)
        assert cache.allocate(1, 20) == 2
        assert cache.used_blocks == 2
        assert cache.tokens_of(1) == 20

    def test_incremental_growth_uses_block_slack(self):
        cache = PagedKVCache(num_blocks=10, block_size=16)
        cache.allocate(1, 10)
        assert cache.allocate(1, 6) == 0  # fits in the same block
        assert cache.allocate(1, 1) == 1  # spills into a new block

    def test_memory_error_when_full(self):
        cache = PagedKVCache(num_blocks=2, block_size=16)
        cache.allocate(1, 32)
        with pytest.raises(MemoryError):
            cache.allocate(2, 1)
        assert not cache.can_allocate(2, 1)

    def test_free_releases_blocks(self):
        cache = PagedKVCache(num_blocks=4, block_size=16)
        cache.allocate(1, 64)
        assert cache.free(1) == 4
        assert cache.free_blocks == 4
        assert cache.free(1) == 0

    def test_grow_and_shrink(self):
        cache = PagedKVCache(num_blocks=2, block_size=16)
        cache.grow(3)
        assert cache.num_blocks == 5
        cache.allocate(1, 40)
        with pytest.raises(MemoryError):
            cache.shrink(3)
        cache.shrink(2)
        assert cache.num_blocks == 3

    def test_free_partial(self):
        cache = PagedKVCache(num_blocks=10, block_size=16)
        cache.allocate(1, 100)
        freed = cache.free_partial(1, keep_tokens=20)
        assert freed == 5
        assert cache.tokens_of(1) == 20
        assert cache.free_partial(1, keep_tokens=0) == 2
        assert not cache.has_request(1)

    def test_fragmentation_accounting(self):
        cache = PagedKVCache(num_blocks=10, block_size=16)
        cache.allocate(1, 17)
        assert cache.fragmentation_tokens() == 15

    def test_utilization(self):
        cache = PagedKVCache(num_blocks=4, block_size=16)
        assert cache.utilization == 0.0
        cache.allocate(1, 32)
        assert cache.utilization == 0.5
        empty = PagedKVCache(num_blocks=0, block_size=16)
        assert empty.utilization == 1.0

    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=9), st.integers(min_value=1, max_value=200)),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_property_block_accounting_is_consistent(self, operations):
        cache = PagedKVCache(num_blocks=50, block_size=16)
        for request_id, tokens in operations:
            if cache.can_allocate(request_id, tokens):
                cache.allocate(request_id, tokens)
            else:
                cache.free(request_id)
            assert cache.used_blocks == sum(
                cache.blocks_for_tokens(cache.tokens_of(r)) for r in cache.request_ids()
            )
            assert 0 <= cache.used_blocks <= cache.num_blocks


class TestUnifiedMemoryManager:
    def _manager(self) -> UnifiedMemoryManager:
        manager = UnifiedMemoryManager(QWEN_2_5_14B, 80 * GB)
        manager.load_layers(range(QWEN_2_5_14B.num_layers))
        manager.provision_kv_cache()
        return manager

    def test_full_model_load_leaves_kv_capacity(self):
        manager = self._manager()
        assert manager.num_resident_layers == 48
        # ~49 GB of KV capacity on an 80 GB GPU with a 28 GB model + reserve.
        assert 40 * GB < manager.kv_capacity_bytes < 52 * GB
        assert manager.kv_capacity_tokens > 200_000
        # One run per layer and one for the KV cache, whatever their size.
        assert all(len(runs) == 1 for runs in manager._param_runs.values())
        assert len(manager.kv_range.runs) == 1
        assert manager.pool.free_chunks == 0
        assert_memory_conservation(manager)

    def test_drop_layers_grows_kv(self):
        manager = self._manager()
        before = manager.kv_capacity_tokens
        result = manager.drop_layers(range(24, 48))
        assert result.dropped_layers == list(range(24, 48))
        assert result.freed_bytes == 24 * manager.layer_chunks * manager.pool.chunk_bytes
        assert result.freed_bytes > 13e9
        assert manager.kv_capacity_tokens > before
        assert manager.num_resident_layers == 24
        assert_memory_conservation(manager)

    def test_drop_is_idempotent_for_missing_layers(self):
        manager = self._manager()
        manager.drop_layers(range(24, 48))
        second = manager.drop_layers(range(24, 48))
        assert second.freed_bytes == 0
        assert second.remap_latency_s == 0.0

    def test_restore_roundtrip(self):
        manager = self._manager()
        kv_bytes, param_bytes = manager.kv_capacity_bytes, manager.param_bytes_resident
        first = manager.drop_layers(range(24, 48))
        result = manager.restore_layers(range(24, 48))
        assert result.restored_layers == list(range(24, 48))
        assert result.transfer_bytes == 24 * manager.layer_param_bytes
        assert manager.num_resident_layers == 48
        assert_memory_conservation(manager)
        # Restore gives back exactly what the drop took ...
        assert manager.kv_capacity_bytes == kv_bytes
        assert manager.param_bytes_resident == param_bytes
        # ... so dropping the same layers again frees as much as before.
        assert manager.drop_layers(range(24, 48)).freed_bytes == first.freed_bytes

    def test_restore_requires_kv_capacity(self):
        # 18 GB usable: half the model fits, leaving ~5 GB of KV memory,
        # which covers a few more layers but not the other half.
        manager = UnifiedMemoryManager(QWEN_2_5_14B, 20 * GB)
        manager.load_layers(range(24))
        manager.provision_kv_cache()
        kv_bytes = manager.kv_capacity_bytes
        assert not manager.can_restore_layers(range(24, 48))
        with pytest.raises(MemoryError):
            manager.restore_layers(range(24, 48))
        assert manager.kv_capacity_bytes == kv_bytes
        assert manager.num_resident_layers == 24
        assert manager.can_restore_layers(range(24, 28))
        manager.restore_layers(range(24, 28))
        assert manager.num_resident_layers == 28
        assert_memory_conservation(manager)

    def test_model_too_big_raises(self):
        manager = UnifiedMemoryManager(QWEN_2_5_14B, 20 * GB)
        with pytest.raises(MemoryError):
            manager.load_layers(range(QWEN_2_5_14B.num_layers))

    @given(
        st.lists(
            st.tuples(st.booleans(), st.sets(st.integers(min_value=0, max_value=47))),
            max_size=12,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_property_drop_restore_conserves_memory(self, operations):
        manager = self._manager()
        kv_bytes, param_bytes = manager.kv_capacity_bytes, manager.param_bytes_resident
        for drop, layers in operations:
            resident = manager.resident_layers
            if drop:
                result = manager.drop_layers(layers)
                assert result.dropped_layers == sorted(layers & resident)
            else:
                result = manager.restore_layers(layers)
                assert result.restored_layers == sorted(layers - resident)
            assert_memory_conservation(manager)
        manager.restore_layers(range(QWEN_2_5_14B.num_layers))
        assert_memory_conservation(manager)
        assert manager.num_resident_layers == QWEN_2_5_14B.num_layers
        assert manager.kv_capacity_bytes == kv_bytes
        assert manager.param_bytes_resident == param_bytes
