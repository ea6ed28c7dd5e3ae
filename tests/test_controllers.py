"""Tests for the streaming-operand tile reader (Fig. 11), the oracle's cache driver."""

from oracles.cache import StreamingCache
from oracles.streaming import StreamingTileReader
from repro.sparse import random_sparse


def make_cache():
    return StreamingCache(4096, 64, 4, element_bytes=4)


class TestStreamingTileReader:
    def test_repeated_read_hits(self):
        b = random_sparse(16, 32, 0.4, seed=12)
        cache = make_cache()
        reader = StreamingTileReader(b, cache)
        reader.touch_fiber(3)
        misses_before = cache.stats.misses
        reader.touch_fiber(3)
        assert cache.stats.misses == misses_before

    def test_access_counts_match_elements(self):
        b = random_sparse(8, 64, 0.5, seed=13)
        cache = make_cache()
        reader = StreamingTileReader(b, cache)
        for fiber_index in range(b.major_dim):
            reader.touch_fiber(fiber_index)
        assert cache.stats.accesses == b.nnz
        assert reader.stats.elements_read == b.nnz

    def test_sequential_scan_miss_count_is_line_count(self):
        b = random_sparse(8, 64, 0.5, seed=14)
        cache = make_cache()
        reader = StreamingTileReader(b, cache)
        misses = sum(reader.touch_fiber(i) for i in range(b.major_dim))
        expected_lines = -(-b.nnz * 4 // 64)  # ceil division
        assert misses in (expected_lines, expected_lines + 1)

    def test_empty_fiber_costs_nothing(self):
        b = random_sparse(8, 8, 0.1, seed=15)
        cache = make_cache()
        reader = StreamingTileReader(b, cache)
        empty_index = next(i for i in range(8) if b.fiber_nnz(i) == 0)
        misses = reader.touch_fiber(empty_index)
        assert misses == 0
        assert cache.stats.accesses == 0
