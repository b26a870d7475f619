"""Tests for the set-associative cache model."""

import pytest

from repro.config import CacheConfig
from repro.memory.cache import Cache


def small_cache(size=1024, assoc=2):
    return Cache(CacheConfig(name="test", size_bytes=size, associativity=assoc, hit_latency=2, mshrs=4))


class TestLookupAndInsert:
    def test_empty_cache_misses(self):
        cache = small_cache()
        assert cache.lookup(0x1000) is None
        assert not cache.contains(0x1000, 100.0)

    def test_insert_then_hit_after_fill_time(self):
        cache = small_cache()
        cache.insert(0x1000, fill_time=50.0)
        assert not cache.contains(0x1000, 10.0)
        assert cache.contains(0x1000, 50.0)

    def test_same_line_aliases(self):
        cache = small_cache()
        cache.insert(0x1000, fill_time=0.0)
        assert cache.contains(0x1000 + 63, 1.0)
        assert not cache.contains(0x1000 + 64, 1.0)

    def test_resident_lines_counter(self):
        cache = small_cache()
        for i in range(4):
            cache.insert(0x1000 + 64 * i, fill_time=0.0)
        assert cache.resident_lines == 4


class TestReplacement:
    def test_lru_eviction_within_set(self):
        cache = small_cache(size=256, assoc=2)  # 2 sets of 2 ways
        num_sets = cache.config.num_sets
        line = 64
        set_stride = num_sets * line
        a, b, c = 0x10000, 0x10000 + set_stride, 0x10000 + 2 * set_stride
        cache.insert(a, 0.0)
        cache.insert(b, 0.0)
        cache.touch(a)  # a is now most recently used
        victim = cache.insert(c, 0.0)
        assert victim is not None
        assert cache.contains(a, 1.0)
        assert not cache.contains(b, 1.0)

    def test_eviction_counts_unused_prefetches(self):
        cache = small_cache(size=256, assoc=1)
        num_sets = cache.config.num_sets
        set_stride = num_sets * 64
        cache.insert(0x10000, 0.0, prefetched=True)
        cache.insert(0x10000 + set_stride, 0.0)
        assert cache.stats.prefetch_evicted_unused == 1

    def test_used_prefetch_not_counted_as_unused(self):
        cache = small_cache(size=256, assoc=1)
        set_stride = cache.config.num_sets * 64
        cache.insert(0x10000, 0.0, prefetched=True)
        cache.touch(0x10000)
        cache.insert(0x10000 + set_stride, 0.0)
        assert cache.stats.prefetch_evicted_unused == 0
        assert cache.stats.prefetch_used == 1

    def test_dirty_eviction_recorded(self):
        cache = small_cache(size=256, assoc=1)
        set_stride = cache.config.num_sets * 64
        cache.insert(0x10000, 0.0, write=True)
        cache.insert(0x10000 + set_stride, 0.0)
        assert cache.stats.dirty_evictions == 1


class TestReinsertMerges:
    """Re-inserting a resident/in-flight tag merges instead of replacing."""

    def test_prefetch_over_dirty_demand_line_keeps_dirty_state(self):
        cache = small_cache(size=256, assoc=1)
        set_stride = cache.config.num_sets * 64
        cache.insert(0x10000, 0.0, write=True)          # dirty demand line
        cache.insert(0x10000, 5.0, prefetched=True)     # prefetch lands on it
        # The redundant prefetch neither counts a fill nor clears dirtiness.
        assert cache.stats.prefetch_fills == 0
        assert cache.lookup(0x10000).dirty
        cache.insert(0x10000 + set_stride, 10.0)        # evict the line
        assert cache.stats.dirty_evictions == 1

    def test_demand_over_inflight_prefetch_keeps_prefetch_identity(self):
        cache = small_cache()
        cache.insert(0x2000, fill_time=100.0, prefetched=True)  # in flight
        cache.insert(0x2000, fill_time=50.0)                    # demand fill
        line = cache.lookup(0x2000)
        assert line.prefetched                  # identity preserved ...
        assert line.fill_time == 50.0           # ... and availability earliest
        assert cache.stats.prefetch_fills == 1  # not double counted
        cache.touch(0x2000)
        assert cache.stats.prefetch_used == 1

    def test_reinsert_never_evicts_or_loses_used_state(self):
        cache = small_cache(size=256, assoc=1)
        cache.insert(0x10000, 0.0, prefetched=True)
        cache.touch(0x10000)                    # prefetch used
        victim = cache.insert(0x10000, 1.0, prefetched=True)
        assert victim is None
        assert cache.stats.evictions == 0
        line = cache.lookup(0x10000)
        assert line.used
        # A later eviction must not re-count it as unused.
        set_stride = cache.config.num_sets * 64
        cache.insert(0x10000 + set_stride, 2.0)
        assert cache.stats.prefetch_evicted_unused == 0

    def test_reinsert_refreshes_lru_order(self):
        cache = small_cache(size=256, assoc=2)  # 2 sets of 2 ways
        set_stride = cache.config.num_sets * 64
        a, b, c = 0x10000, 0x10000 + set_stride, 0x10000 + 2 * set_stride
        cache.insert(a, 0.0)
        cache.insert(b, 0.0)
        cache.insert(a, 1.0)  # merge refreshes recency: b is now LRU
        cache.insert(c, 2.0)
        assert cache.contains(a, 10.0)
        assert not cache.contains(b, 10.0)


class TestPrefetchBookkeeping:
    def test_prefetch_fill_counted(self):
        cache = small_cache()
        cache.insert(0x2000, 10.0, prefetched=True)
        assert cache.stats.prefetch_fills == 1

    def test_touch_marks_prefetch_used_once(self):
        cache = small_cache()
        cache.insert(0x2000, 0.0, prefetched=True)
        cache.touch(0x2000)
        cache.touch(0x2000)
        assert cache.stats.prefetch_used == 1

    def test_utilisation_metric(self):
        cache = small_cache()
        cache.insert(0x2000, 0.0, prefetched=True)
        cache.insert(0x3000, 0.0, prefetched=True)
        cache.touch(0x2000)
        assert cache.stats.prefetch_utilisation == pytest.approx(0.5)

    def test_finalize_counts_remaining_unused(self):
        cache = small_cache()
        cache.insert(0x2000, 0.0, prefetched=True)
        cache.finalize()
        assert cache.stats.prefetch_unused_at_end == 1

    def test_write_touch_marks_dirty(self):
        cache = small_cache()
        cache.insert(0x2000, 0.0)
        cache.touch(0x2000, write=True)
        assert cache.lookup(0x2000).dirty


class TestStats:
    def test_read_hit_rate(self):
        cache = small_cache()
        cache.stats.demand_read_accesses = 10
        cache.stats.demand_read_hits = 4
        assert cache.stats.demand_read_hit_rate == pytest.approx(0.4)

    def test_as_dict_contains_expected_keys(self):
        stats = small_cache().stats.as_dict()
        for key in ("demand_read_hit_rate", "prefetch_utilisation", "misses", "evictions"):
            assert key in stats
