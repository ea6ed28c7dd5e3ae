"""Ablation — tick-level MRN micro-simulation vs the closed-form cycle model.

The accelerator engine charges ``inputs / bandwidth + tree depth`` cycles for
a merge pass: it computes merge trees analytically (README, "Engine").  This
ablation merges randomly generated partial-sum fibers on the tick-level MRN
micro-simulator and compares the measured cycles against that closed form,
checking the engine's assumption holds within a small factor.
"""

from conftest import run_once

from repro.arch.mrn import MergerReductionNetwork, merge_cycles
from repro.metrics import format_table
from repro.sparse import random_sparse


def _compare():
    rows = []
    for leaves, nnz_cols, density in ((8, 64, 0.4), (16, 128, 0.3), (16, 256, 0.15)):
        matrix = random_sparse(leaves, nnz_cols, density, seed=leaves * nnz_cols)
        fibers = [matrix.fiber(i) for i in range(leaves)]
        mrn = MergerReductionNetwork(leaves)
        merged, measured = mrn.merge(fibers)
        total_inputs = sum(f.nnz for f in fibers)
        # The micro-simulated tree emits one element per cycle at the root.
        predicted = merge_cycles(total_inputs, bandwidth=1, tree_depth=mrn.levels)
        rows.append(
            {
                "leaves": leaves,
                "input_elements": total_inputs,
                "output_elements": merged.nnz,
                "micro_sim_cycles": measured,
                "closed_form_cycles": predicted,
                "ratio": measured / predicted if predicted else 0.0,
            }
        )
    return rows


def bench_ablation_mrn_cycle_model(benchmark, settings):
    rows = run_once(benchmark, _compare)
    print()
    print(format_table(rows, title="Ablation — MRN micro-simulation vs closed-form model"))

    for row in rows:
        # The closed form is a throughput bound on the *inputs*: queueing can
        # add a bounded constant factor above it, while heavy accumulation
        # (many equal coordinates combining inside the tree) lets the
        # micro-simulated tree retire more than one input per root emission,
        # landing below it.  Either way the two stay within a small factor.
        assert 0.2 <= row["ratio"] <= 4.0
        # Merging never loses elements.
        assert row["output_elements"] <= row["input_elements"]
