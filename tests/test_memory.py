"""Tests for the memory models: the oracle's streaming cache and the DRAM model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.cache import StreamingCache
from repro.arch.config import DramConfig
from repro.arch.memory.dram import DramModel


# ----------------------------------------------------------------------
# Streaming cache
# ----------------------------------------------------------------------
class TestStreamingCache:
    def make(self, capacity=1024, line=64, assoc=2):
        return StreamingCache(capacity, line, assoc, element_bytes=4)

    def test_geometry(self):
        cache = self.make()
        assert cache.num_lines == 16
        assert cache.num_sets == 8

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            StreamingCache(1000, 64, 2)
        with pytest.raises(ValueError):
            StreamingCache(1024, 64, 3)
        with pytest.raises(ValueError):
            StreamingCache(0, 64, 2)

    def test_first_access_misses_second_hits(self):
        cache = self.make()
        assert cache.access_element(0) is False
        assert cache.access_element(1) is True  # same line
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1

    def test_miss_rate(self):
        cache = self.make()
        cache.access_element(0)
        cache.access_element(0)
        cache.access_element(0)
        assert cache.stats.miss_rate == pytest.approx(1 / 3)

    def test_empty_cache_rates(self):
        cache = self.make()
        assert cache.stats.miss_rate == 0.0

    def test_lru_eviction_within_set(self):
        cache = self.make(capacity=256, line=64, assoc=2)  # 4 lines, 2 sets
        # Lines 0, 2, 4 all map to set 0 (line_addr % 2 == 0).
        cache.access_byte(0 * 64)
        cache.access_byte(2 * 64)
        cache.access_byte(4 * 64)  # evicts line 0 (LRU)
        assert cache.access_byte(2 * 64) is True
        assert cache.access_byte(0 * 64) is False  # was evicted

    def test_lru_updated_on_hit(self):
        cache = self.make(capacity=256, line=64, assoc=2)
        cache.access_byte(0 * 64)
        cache.access_byte(2 * 64)
        cache.access_byte(0 * 64)  # touch 0 again -> 2 becomes LRU
        cache.access_byte(4 * 64)  # evicts 2
        assert cache.access_byte(0 * 64) is True
        assert cache.access_byte(2 * 64) is False

    def test_sequential_scan_larger_than_cache_always_misses_on_repeat(self):
        cache = self.make(capacity=256, line=64, assoc=2)
        lines = 12  # 3x the capacity in lines
        for _ in range(2):
            for i in range(lines):
                cache.access_byte(i * 64)
        # Every access in both passes is a miss (sequential LRU thrashing).
        assert cache.stats.misses == 2 * lines

    def test_working_set_smaller_than_cache_hits_on_repeat(self):
        cache = self.make(capacity=1024, line=64, assoc=2)
        for _ in range(3):
            for i in range(8):
                cache.access_byte(i * 64)
        assert cache.stats.misses == 8
        assert cache.stats.hits == 16

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            self.make().access_byte(-1)

    @given(st.lists(st.integers(0, 4095), min_size=1, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_hits_plus_misses_equals_accesses(self, offsets):
        cache = self.make()
        for offset in offsets:
            cache.access_byte(offset)
        assert cache.stats.hits + cache.stats.misses == cache.stats.accesses
        assert cache.stats.accesses == len(offsets)

    @given(st.lists(st.integers(0, 2047), min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, offsets):
        cache = self.make(capacity=512, line=64, assoc=2)
        for offset in offsets:
            cache.access_byte(offset)
        resident = sum(len(ways) for ways in cache._sets)
        assert resident <= cache.num_lines


# ----------------------------------------------------------------------
# DRAM model
# ----------------------------------------------------------------------
class TestDramModel:
    def make(self):
        return DramModel(DramConfig(), frequency_hz=800e6)

    def test_traffic_breakdown(self):
        dram = self.make()
        dram.read_stationary(100)
        dram.read_streaming(200)
        dram.write_output(50)
        dram.spill_psums(25)
        assert dram.traffic.total_read_bytes == 300
        assert dram.traffic.total_write_bytes == 75
        assert dram.traffic.total_bytes == 375
        assert dram.requests == 4

    def test_zero_byte_records_no_request(self):
        dram = self.make()
        dram.read_streaming(0)
        assert dram.requests == 0

    def test_negative_traffic_rejected(self):
        with pytest.raises(ValueError):
            self.make().read_streaming(-1)

    def test_latency_and_bandwidth(self):
        dram = self.make()
        assert dram.latency_cycles == 80
        assert dram.bytes_per_cycle == pytest.approx(320.0)

    def test_cycles_for_transfer(self):
        dram = self.make()
        assert dram.cycles_for(0) == 0.0
        assert dram.cycles_for(3200) == pytest.approx(80 + 10)

    def test_traffic_counter_merge(self):
        dram = self.make()
        dram.read_streaming(100)
        other = self.make()
        other.write_output(60)
        merged = dram.traffic.merged_with(other.traffic)
        assert merged.str_read_bytes == 100
        assert merged.output_write_bytes == 60
        assert merged.total_bytes == 160
