"""Explore how the six dataflows behave on one of the paper's Table 6 layers.

Run with::

    python examples/dataflow_explorer.py [LAYER] [SCALE]

where ``LAYER`` is one of SQ5, SQ11, R4, R6, S-R3, V0, MB215, V7, A2
(default: V0) and ``SCALE`` shrinks the layer dimensions (default: 0.2).

The script simulates the layer under all six dataflows on the shared
substrate, prints the cycle/traffic/miss-rate comparison, and shows which
dataflow the heuristic mapper and the oracle mapper would configure —
reproducing, for a single layer, the reasoning behind Figs. 13-16.
"""

import sys

from repro.accelerators.engine import SpmspmEngine
from repro.core import HeuristicMapper, OracleMapper
from repro.dataflows import Dataflow
from repro.experiments import default_settings
from repro.metrics import format_table
from repro.runtime import BatchRunner
from repro.workloads import get_representative_layer, materialize_layer


def main() -> None:
    layer_name = sys.argv[1] if len(sys.argv) > 1 else "V0"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.2

    spec = get_representative_layer(layer_name)
    settings = default_settings()
    config = settings.scaled_config(scale)
    a, b = materialize_layer(spec, scale=scale)
    print(f"Layer {spec.name}: M={spec.m} N={spec.n} K={spec.k} "
          f"(scaled by {scale}); A nnz={a.nnz}, B nnz={b.nnz}")
    print(f"Accelerator: {config.num_multipliers} multipliers, "
          f"{config.str_cache_bytes // 1024} KiB STR cache, "
          f"{config.psram_bytes // 1024} KiB PSRAM")

    engine = SpmspmEngine(config)
    rows = []
    for dataflow in Dataflow:
        sim = engine.run_layer(dataflow, a, b, layer_name=spec.name)
        rows.append(
            {
                "dataflow": dataflow.informal_name,
                "cycles": round(sim.total_cycles),
                "mult cycles": round(sim.cycles.stationary + sim.cycles.streaming),
                "merge cycles": round(sim.cycles.merging),
                "on-chip (KB)": round(sim.traffic.onchip_bytes / 1e3, 1),
                "off-chip (KB)": round(sim.traffic.offchip_bytes / 1e3, 1),
                "miss rate (%)": round(100 * sim.str_cache_miss_rate, 2),
            }
        )
    print()
    print(format_table(rows, title=f"All six dataflows on layer {spec.name}"))

    heuristic = HeuristicMapper(config).select(a, b)
    oracle = OracleMapper(config, BatchRunner(parallel=False)).select(a, b)
    print(f"Heuristic mapper picks : {heuristic.informal_name}")
    print(f"Oracle mapper picks    : {oracle.informal_name}")
    best = min(rows, key=lambda row: row["cycles"])
    print(f"Fastest dataflow       : {best['dataflow']} ({best['cycles']} cycles)")


if __name__ == "__main__":
    main()
