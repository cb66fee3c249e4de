"""MSHR pool, cache array, and DRAM channel unit tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, DramConfig
from repro.errors import MemoryModelError
from repro.mem import CacheArray, DramChannel, MshrPool


class TestMshrPool:
    def test_grants_immediately_when_free(self):
        pool = MshrPool(2)
        grant, stall = pool.acquire(10.0)
        assert (grant, stall) == (10.0, 0.0)

    def test_stalls_when_full(self):
        pool = MshrPool(2)
        pool.acquire(0.0); pool.release(100.0)
        pool.acquire(0.0); pool.release(50.0)
        grant, stall = pool.acquire(10.0)
        assert grant == 50.0 and stall == 40.0

    def test_releases_free_entries(self):
        pool = MshrPool(1)
        pool.acquire(0.0)
        pool.release(5.0)
        grant, stall = pool.acquire(6.0)
        assert (grant, stall) == (6.0, 0.0)

    def test_stats_accumulate(self):
        pool = MshrPool(1)
        pool.acquire(0.0); pool.release(10.0)
        pool.acquire(0.0)
        assert pool.acquires == 2
        assert pool.stall_cycles == 10.0

    def test_zero_size_rejected(self):
        with pytest.raises(MemoryModelError):
            MshrPool(0)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0, 100), min_size=1, max_size=20),
           st.integers(1, 4))
    def test_grants_never_before_request(self, times, size):
        pool = MshrPool(size)
        now = 0.0
        for dt in times:
            now += dt
            grant, stall = pool.acquire(now)
            assert grant >= now
            assert stall == grant - now
            pool.release(grant + 10.0)


class TestCacheArray:
    def config(self, sets=4, ways=2):
        return CacheConfig("t", sets * ways * 64, ways=ways, hit_latency=1,
                           mshrs=4)

    def test_miss_then_hit(self):
        cache = CacheArray(self.config())
        assert not cache.lookup(0x1000)
        cache.fill(0x1000)
        assert cache.lookup(0x1000)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_lru_eviction(self):
        cache = CacheArray(self.config(sets=1, ways=2))
        cache.fill(0x0)
        cache.fill(0x40)
        cache.lookup(0x0)          # refresh line 0
        evicted = cache.fill(0x80)  # must evict 0x40
        assert evicted == (0x40, False)  # (victim line address, dirty)

    def test_dirty_tracked_on_store(self):
        cache = CacheArray(self.config(sets=1, ways=1))
        cache.fill(0x0)
        cache.lookup(0x0, is_store=True)
        _, dirty = cache.fill(0x40)
        assert dirty

    def test_fill_dirty(self):
        cache = CacheArray(self.config(sets=1, ways=1))
        cache.fill(0x0, dirty=True)
        assert cache.fill(0x40) == (0x0, True)

    def test_racing_fill_refreshes(self):
        cache = CacheArray(self.config(sets=1, ways=1))
        cache.fill(0x0)
        assert cache.fill(0x0, dirty=True) is None
        assert cache.fill(0x40) == (0x0, True)

    def test_invalidate(self):
        cache = CacheArray(self.config())
        cache.fill(0x0, dirty=True)
        assert cache.invalidate(0x0)      # was dirty
        assert not cache.lookup(0x0)
        assert not cache.invalidate(0x0)  # already gone

    def test_resident_and_flush_ways(self):
        cache = CacheArray(self.config(sets=2, ways=4))
        for i in range(8):  # four lines per set, filling every way
            cache.fill(i * 64, dirty=(i % 2 == 0))
        total, dirty = cache.resident_lines()
        assert total == 8 and dirty == 4
        walked, flushed_dirty = cache.flush_ways(slice(2, 4))
        assert walked == 4
        assert cache.resident_lines()[0] == 4

    def test_sets_mapping(self):
        cache = CacheArray(self.config(sets=4, ways=1))
        # Lines 0 and 4 map to the same set; 1 maps elsewhere.
        cache.fill(0 * 64)
        cache.fill(1 * 64)
        evicted = cache.fill(4 * 64)
        assert evicted == (0, False)
        assert cache.lookup(1 * 64)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 63), min_size=1, max_size=100))
    def test_fill_then_lookup_always_hits(self, lines):
        cache = CacheArray(self.config(sets=8, ways=4))
        for line in lines:
            addr = line * 64
            if not cache.lookup(addr):
                cache.fill(addr)
            assert cache.lookup(addr)


class TestDramChannel:
    def test_fixed_latency(self):
        dram = DramChannel(DramConfig(access_latency=80.0, bytes_per_cycle=16.0))
        start, done = dram.service(0.0)
        assert start == 0.0 and done == 80.0

    def test_bandwidth_serialises(self):
        dram = DramChannel(DramConfig(access_latency=80.0, bytes_per_cycle=16.0))
        dram.service(0.0)
        start, done = dram.service(0.0)
        assert start == 4.0  # 64B / 16 B-per-cycle occupancy
        assert done == 84.0

    def test_idle_gap_not_penalised(self):
        dram = DramChannel(DramConfig())
        dram.service(0.0)
        start, _ = dram.service(1000.0)
        assert start == 1000.0

    def test_writeback_occupies_only_bandwidth(self):
        dram = DramChannel(DramConfig(access_latency=80.0, bytes_per_cycle=16.0))
        done = dram.writeback(0.0)
        assert done == 4.0

    def test_utilisation(self):
        dram = DramChannel(DramConfig(bytes_per_cycle=16.0))
        dram.service(0.0)
        assert dram.utilisation(8.0) == pytest.approx(0.5)
        assert dram.requests == 1
