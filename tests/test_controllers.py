"""Tests for the streaming-operand tile reader (Fig. 11), the oracle's cache driver."""

from repro.arch.controllers.streaming import StreamingTileReader
from repro.arch.memory.cache import StreamingCache
from repro.sparse import random_sparse


def make_cache():
    return StreamingCache(4096, 64, 4, element_bytes=4)


class TestStreamingTileReader:
    def test_read_fiber_returns_contents_and_misses(self):
        b = random_sparse(16, 32, 0.4, seed=11)
        cache = make_cache()
        reader = StreamingTileReader(b, cache)
        fiber, misses = reader.read_fiber(0)
        assert fiber == b.fiber(0)
        assert misses >= 1 or fiber.is_empty()

    def test_repeated_read_hits(self):
        b = random_sparse(16, 32, 0.4, seed=12)
        cache = make_cache()
        reader = StreamingTileReader(b, cache)
        reader.read_fiber(3)
        misses_before = cache.stats.misses
        reader.touch_fiber(3)
        assert cache.stats.misses == misses_before

    def test_access_counts_match_elements(self):
        b = random_sparse(8, 64, 0.5, seed=13)
        cache = make_cache()
        reader = StreamingTileReader(b, cache)
        reader.read_all_sequential()
        assert cache.stats.accesses == b.nnz
        assert reader.stats.elements_read == b.nnz

    def test_sequential_scan_miss_count_is_line_count(self):
        b = random_sparse(8, 64, 0.5, seed=14)
        cache = make_cache()
        reader = StreamingTileReader(b, cache)
        misses = reader.read_all_sequential()
        expected_lines = -(-b.nnz * 4 // 64)  # ceil division
        assert misses in (expected_lines, expected_lines + 1)

    def test_empty_fiber_costs_nothing(self):
        b = random_sparse(8, 8, 0.1, seed=15)
        cache = make_cache()
        reader = StreamingTileReader(b, cache)
        empty_index = next(i for i in range(8) if b.fiber_nnz(i) == 0)
        fiber, misses = reader.read_fiber(empty_index)
        assert fiber.is_empty()
        assert misses == 0
        assert cache.stats.accesses == 0
