"""Tests for the metrics package: result records and report formatting."""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerators.cpu import CpuRunResult
from repro.arch.config import default_config
from repro.arch.memory.dram import DramTrafficCounter
from repro.dataflows import Dataflow
from repro.dataflows.stats import DataflowStats
from repro.metrics import (
    LayerSimResult,
    ModelSimResult,
    PhaseCycles,
    TrafficBreakdown,
    format_table,
    geometric_mean,
    speedup,
)


class TestPhaseCycles:
    def test_total(self):
        cycles = PhaseCycles(stationary=10, streaming=100, merging=40)
        assert cycles.total == 150


class TestTrafficBreakdown:
    def test_onchip_total(self):
        traffic = TrafficBreakdown(sta_bytes=5, str_bytes=10, psum_bytes=15, offchip_bytes=3)
        assert traffic.onchip_bytes == 30


class TestRecords:
    def test_to_record_is_what_asdict_gave(self):
        """Records are built field by field, to the dict ``asdict`` built:
        same keys in the same order, numbers as plain ints and floats."""
        stats = DataflowStats(multiplications=np.int64(7), additions=3)
        layer = LayerSimResult(
            accelerator="X",
            dataflow=Dataflow.OP_N,
            traffic=TrafficBreakdown(sta_bytes=np.int64(5), offchip_bytes=2),
            stats=stats,
            dram=DramTrafficCounter(str_read_bytes=np.int64(9)),
        )
        record = layer.to_record()
        assert record["traffic"] == {k: int(v) for k, v in asdict(layer.traffic).items()}
        assert list(record["stats"].items()) == [
            (k, int(v)) for k, v in asdict(stats).items()
        ]
        assert list(record["dram"].items()) == [
            (k, int(v)) for k, v in asdict(layer.dram).items()
        ]
        assert all(type(v) is int for v in record["stats"].values())
        assert LayerSimResult.from_record(record) == layer
        cpu = CpuRunResult(cycles=12.5, seconds=12.5 / 3e9, stats=DataflowStats(additions=4))
        assert list(cpu.to_record().items()) == list(asdict(cpu).items())
        assert CpuRunResult.from_record(cpu.to_record()) == cpu
        config = default_config(num_multipliers=32)
        assert list(config.to_record().items()) == list(asdict(config).items())


class TestModelSimResult:
    def _layer(self, cycles, dataflow=Dataflow.IP_M):
        return LayerSimResult(
            accelerator="X",
            dataflow=dataflow,
            cycles=PhaseCycles(streaming=cycles),
            traffic=TrafficBreakdown(str_bytes=10),
            stats=DataflowStats(multiplications=1),
        )

    def test_totals(self):
        result = ModelSimResult(accelerator="X", model_name="toy")
        result.layer_results = [self._layer(100), self._layer(50, Dataflow.GUST_M)]
        assert result.total_cycles == 150


class TestAggregations:
    def test_speedup(self):
        assert speedup(200, 100) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            speedup(100, 0)

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([3.0]) == pytest.approx(3.0)
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, -2.0])

    @given(st.lists(st.floats(0.1, 100.0), min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_geometric_mean_bounds(self, values):
        gmean = geometric_mean(values)
        assert min(values) <= gmean * (1 + 1e-9)
        assert gmean <= max(values) * (1 + 1e-9)


class TestReporting:
    ROWS = [
        {"name": "a", "value": 1.5, "flag": True},
        {"name": "bb", "value": 22.125, "flag": False},
    ]

    def test_format_table_contains_all_cells(self):
        text = format_table(self.ROWS, title="demo")
        assert "demo" in text
        assert "bb" in text
        assert "22.1" in text
        assert "yes" in text and "no" in text

    def test_format_table_empty(self):
        assert "(empty)" in format_table([])

    def test_format_table_column_selection(self):
        text = format_table(self.ROWS, columns=["name"])
        assert "value" not in text
