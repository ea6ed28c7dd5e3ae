"""Ablation — streaming-cache capacity sweep (the Table 5 sizing decision).

Sweeps the STR cache size on a layer whose streaming operand is larger than
the smallest cache and shows the crossover the paper's Section 5.2 explains:
the Gustavson design's miss rate (and hence runtime) improves sharply once
the streaming matrix fits, while the Outer-Product design — which reads the
streaming matrix exactly once — is largely insensitive.

Each capacity point is a declarative :class:`repro.api.SweepSpec` (a design
grid plus configuration overrides and a pinned operand scale), so the jobs
run through the session's batched runner and repeat invocations are answered
from the persistent result cache.
"""

from conftest import run_once

from repro.api import SweepSpec
from repro.metrics import format_table

CACHE_SIZES_KIB = (8, 32, 128, 512)


def _sweep(session):
    rows = []
    for size_kib in CACHE_SIZES_KIB:
        spec = SweepSpec(
            layers="R6",
            designs=("GAMMA-like", "SpArch-like"),
            scale=0.2,
            config_overrides={
                "num_multipliers": 16,
                "distribution_bandwidth": 4,
                "reduction_bandwidth": 4,
                "str_cache_bytes": size_kib * 1024,
            },
        )
        by_design = {row["design"]: row for row in session.sweep(spec).rows}
        gamma, sparch = by_design["GAMMA-like"], by_design["SpArch-like"]
        rows.append(
            {
                "cache_kib": size_kib,
                "gamma_cycles": gamma["cycles"],
                "gamma_miss_pct": gamma["miss_rate_pct"],
                "sparch_cycles": sparch["cycles"],
                "sparch_miss_pct": sparch["miss_rate_pct"],
            }
        )
    return rows


def bench_ablation_str_cache_size(benchmark, session):
    rows = run_once(benchmark, _sweep, session)
    print()
    print(format_table(rows, title="Ablation — STR cache capacity sweep (layer R6)"))

    # Gustavson gets monotonically (weakly) faster with more cache...
    gamma_cycles = [row["gamma_cycles"] for row in rows]
    assert gamma_cycles[0] >= gamma_cycles[-1]
    # ...and its miss rate shrinks substantially across the sweep.
    assert rows[0]["gamma_miss_pct"] > rows[-1]["gamma_miss_pct"]
    # The Outer-Product design is far less sensitive to the cache size.
    sparch_cycles = [row["sparch_cycles"] for row in rows]
    sparch_span = max(sparch_cycles) / min(sparch_cycles)
    gamma_span = max(gamma_cycles) / min(gamma_cycles)
    assert sparch_span <= gamma_span
