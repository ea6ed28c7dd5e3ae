"""Quickstart: simulate one sparse layer on Flexagon and the baselines.

Run with::

    python examples/quickstart.py

The script builds a random sparse matrix pair and simulates the layer on
the Flexagon accelerator and the three fixed-dataflow baselines through the
public :class:`repro.api.Session` facade — one job batch through the
batched runtime, so re-running the script answers the simulations from the
persistent result cache — printing cycles, traffic and the dataflow the
mapper picked.
"""

from repro import Session, random_sparse
from repro.metrics import format_table
from repro.runtime import DESIGN_ORDER


def main() -> None:
    # A small sparse layer: C[200, 150] = A[200, 180] x B[180, 150].
    a = random_sparse(200, 180, density=0.25, seed=1)
    b = random_sparse(180, 150, density=0.20, seed=2)
    print(f"A: {a.shape}, nnz={a.nnz}   B: {b.shape}, nnz={b.nnz}")

    # The session's design registry configures Flexagon with the oracle
    # mapper (the same policy the experiment harness evaluates), so its
    # choice here is the proven-best dataflow rather than the heuristic's.
    session = Session()
    sims = session.simulate(a, b, layer_name="quickstart")
    rows = []
    for design, sim in zip(DESIGN_ORDER, sims):
        rows.append(
            {
                "design": design,
                "dataflow": sim.dataflow.informal_name,
                "cycles": round(sim.total_cycles),
                "on-chip traffic (KB)": round(sim.traffic.onchip_bytes / 1e3, 1),
                "off-chip traffic (KB)": round(sim.traffic.offchip_bytes / 1e3, 1),
                "STR miss rate (%)": round(100 * sim.str_cache_miss_rate, 2),
            }
        )
    print(format_table(rows, title="Cycle-accounting simulation (Table 5 configuration)"))
    flexagon_cycles = rows[-1]["cycles"]
    best_fixed = min(row["cycles"] for row in rows[:-1])
    print(f"Flexagon picked {rows[-1]['dataflow']} and needs {flexagon_cycles} cycles "
          f"(best fixed design: {best_fixed}).")


if __name__ == "__main__":
    main()
