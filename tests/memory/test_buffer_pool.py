"""Shared ring buffers (Fig. 6)."""

import numpy as np
import pytest

from repro.memory.buffer_pool import SLOTS_PER_ROLE, SharedBufferPool
from repro.sim.memory_allocator import CachingAllocator


def distinct_slots(pool: SharedBufferPool, role: str, partitions: int = 8) -> int:
    """How many physical slots the first ``partitions`` partitions of
    ``role`` share."""
    return len({id(pool.get(role, i)) for i in range(partitions)})


class TestRings:
    def test_default_slot_counts(self):
        pool = SharedBufferPool()
        pool.create_role("tdi", (2, 3))
        pool.create_role("tdo", (2, 3))
        pool.create_role("tm", (2, 3))
        assert distinct_slots(pool, "tdi") == 2
        assert distinct_slots(pool, "tdo") == 2
        assert distinct_slots(pool, "tm") == 1
        assert SLOTS_PER_ROLE == {"tdi": 2, "tdo": 2, "tm": 1}

    def test_round_robin_sharing(self):
        pool = SharedBufferPool()
        pool.create_role("tdi", (4,))
        assert pool.get("tdi", 0) is pool.get("tdi", 2)
        assert pool.get("tdi", 1) is pool.get("tdi", 3)
        assert pool.get("tdi", 0) is not pool.get("tdi", 1)

    def test_tm_single_slot_always_same(self):
        pool = SharedBufferPool()
        pool.create_role("tm", (4,))
        assert pool.get("tm", 0) is pool.get("tm", 7)

    def test_overwrite_visible_across_partitions(self):
        """Writing partition i+slots clobbers partition i — the hazard."""
        pool = SharedBufferPool()
        pool.create_role("tdi", (3,))
        pool.get("tdi", 0)[...] = 1.0
        pool.get("tdi", 2)[...] = 2.0
        np.testing.assert_array_equal(pool.get("tdi", 0), 2.0)

    def test_custom_slots(self):
        pool = SharedBufferPool()
        pool.create_role("scratch", (2,), num_slots=3)
        assert distinct_slots(pool, "scratch") == 3

    def test_unknown_role_needs_explicit_slots(self):
        pool = SharedBufferPool()
        with pytest.raises(KeyError):
            pool.create_role("scratch", (2,))

    def test_duplicate_role_rejected(self):
        pool = SharedBufferPool()
        pool.create_role("tm", (2,))
        with pytest.raises(ValueError):
            pool.create_role("tm", (2,))

    def test_missing_role(self):
        with pytest.raises(KeyError):
            SharedBufferPool().get("tdi", 0)

    def test_negative_partition(self):
        pool = SharedBufferPool()
        pool.create_role("tm", (2,))
        with pytest.raises(IndexError):
            pool.get("tm", -1)

    def test_dtype_respected(self):
        pool = SharedBufferPool(dtype=np.float32)
        pool.create_role("tm", (4,))
        assert pool.get("tm", 0).dtype == np.float32


class TestMetering:
    def test_allocations_metered(self):
        alloc = CachingAllocator()
        pool = SharedBufferPool(allocator=alloc)
        pool.create_role("tdi", (16,))  # 2 slots x 128 bytes -> rounded to 512
        assert alloc.num_live_blocks == 2
        assert alloc.allocated_bytes == 2 * 512

    def test_release_frees_meter(self):
        alloc = CachingAllocator()
        pool = SharedBufferPool(allocator=alloc)
        pool.create_role("tdi", (16,))
        pool.create_role("tm", (16,))
        pool.release_all()
        assert alloc.allocated_bytes == 0
        assert "tdi" not in pool

    def test_total_bytes(self):
        pool = SharedBufferPool()
        pool.create_role("tdi", (10,))  # 2 slots x 80 bytes
        assert pool.total_bytes() == 160
