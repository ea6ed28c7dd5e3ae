"""Ablation — heuristic mapper vs oracle dataflow selection.

The paper leaves the mapper/compiler as future work and evaluates Flexagon
with the best dataflow per layer.  This ablation quantifies how close the
closed-form heuristic mapper gets to the oracle (exhaustive simulation) on
the nine representative layers.
"""

from conftest import run_once

from repro.accelerators.engine import SpmspmEngine
from repro.core import HeuristicMapper, OracleMapper
from repro.metrics import format_table, geometric_mean
from repro.runtime import BatchRunner
from repro.workloads.representative import REPRESENTATIVE_LAYERS
from repro.workloads.layers import materialize_layer


def _compare(settings):
    rows = []
    runner = BatchRunner(parallel=False)
    for spec in REPRESENTATIVE_LAYERS:
        scale = settings.layer_scale(spec)
        config = settings.scaled_config(scale)
        a, b = materialize_layer(spec, scale=scale)
        engine = SpmspmEngine(config)
        heuristic_choice = HeuristicMapper(config).select(a, b)
        oracle_choice = OracleMapper(config, runner).select(a, b)
        heuristic_cycles = engine.run_layer(heuristic_choice, a, b).total_cycles
        oracle_cycles = engine.run_layer(oracle_choice, a, b).total_cycles
        rows.append(
            {
                "layer": spec.name,
                "heuristic": heuristic_choice.name,
                "oracle": oracle_choice.name,
                "heuristic_cycles": heuristic_cycles,
                "oracle_cycles": oracle_cycles,
                "slowdown_vs_oracle": heuristic_cycles / oracle_cycles,
            }
        )
    return rows


def bench_ablation_mapper_quality(benchmark, settings):
    rows = run_once(benchmark, _compare, settings)
    print()
    print(format_table(rows, title="Ablation — heuristic vs oracle dataflow selection"))

    slowdowns = [row["slowdown_vs_oracle"] for row in rows]
    # The heuristic never beats the oracle (by definition)...
    assert all(s >= 0.999 for s in slowdowns)
    # ...and stays within 2x of it on average on the representative layers.
    assert geometric_mean(slowdowns) < 2.0
    # It picks the oracle-best family on most of the nine layers.
    family_matches = sum(
        1 for row in rows if row["heuristic"].split("_")[0] == row["oracle"].split("_")[0]
    )
    assert family_matches >= 5
