"""LRU cache model."""

import numpy as np
import pytest

from repro.hwmodel.caches import LRUCache


class TestLRUCache:
    def test_miss_then_hit(self):
        cache = LRUCache(4 * 128, 128)
        assert cache.access(0) is False
        assert cache.access(0) is True
        assert cache.misses == 1 and cache.hits == 1

    def test_same_line_aliases(self):
        cache = LRUCache(4 * 128, 128)
        cache.access(0)
        assert cache.access(127) is True   # same 128B line
        assert cache.access(128) is False  # next line

    def test_capacity_eviction(self):
        cache = LRUCache(2 * 128, 128)
        cache.access_line(0)
        cache.access_line(1)
        cache.access_line(2)  # evicts 0
        assert cache.access_line(0) is False
        assert cache.evictions >= 1

    def test_lru_order(self):
        cache = LRUCache(2 * 128, 128)
        cache.access_line(0)
        cache.access_line(1)
        cache.access_line(0)  # refresh 0; 1 becomes LRU
        cache.access_line(2)  # evicts 1
        assert cache.access_line(0) is True
        assert cache.access_line(1) is False

    def test_dirty_writeback(self):
        cache = LRUCache(1 * 128, 128)
        cache.access_line(0, write=True)
        cache.access_line(1)  # evicts dirty line 0
        assert cache.writebacks == 1

    def test_flush_counts_dirty(self):
        cache = LRUCache(4 * 128, 128)
        cache.access_line(0, write=True)
        cache.access_line(1, write=False)
        cache.flush()
        assert cache.writebacks == 1
        assert len(cache) == 0

    def test_access_many(self):
        cache = LRUCache(8 * 128, 128)
        assert cache.access_many([0, 1, 2, 0]) == 3

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            LRUCache(0, 128)
        with pytest.raises(ValueError):
            LRUCache(64, 128)

    def test_access_segmented_matches_access_many(self):
        """One segmented replay == per-segment access_many calls exactly:
        per-segment misses, counters, and final LRU state."""
        rng = np.random.default_rng(3)
        tags = rng.integers(0, 40, size=500)
        splits = np.sort(rng.choice(np.arange(1, 500), size=19,
                                    replace=False))
        splits = np.concatenate(([0], splits, [500]))
        seg_cache = LRUCache(16 * 128, 128)
        ref_cache = LRUCache(16 * 128, 128)
        seg_misses = seg_cache.access_segmented(tags, splits, write=True)
        ref_misses = [ref_cache.access_many(tags[s:e], write=True)
                      for s, e in zip(splits[:-1], splits[1:])]
        assert seg_misses.tolist() == ref_misses
        for counter in ("hits", "misses", "evictions", "writebacks"):
            assert getattr(seg_cache, counter) == getattr(ref_cache, counter)
        assert list(seg_cache._lines.items()) == list(ref_cache._lines.items())

    def test_access_segmented_empty_segments(self):
        cache = LRUCache(4 * 128, 128)
        misses = cache.access_segmented(
            np.asarray([5, 5]), np.asarray([0, 0, 2, 2]))
        assert misses.tolist() == [0, 1, 0]

    def test_access_segmented_rejects_bad_splits(self):
        cache = LRUCache(4 * 128, 128)
        with pytest.raises(ValueError):
            cache.access_segmented(np.asarray([1, 2]), np.asarray([0, 1]))
        with pytest.raises(ValueError):
            cache.access_segmented(np.asarray([1, 2]), np.asarray([0, 2, 1]))
