"""Ablation — PSRAM capacity sweep (the Table 5 sizing decision).

The Outer-Product dataflow holds every partial sum on chip until the merging
phase; when the PSRAM is too small the excess spills to DRAM and the merging
phase becomes memory-bound.  The sweep shows the spill volume and merge-phase
time shrinking as the PSRAM grows, while an Inner-Product execution of the
same layer is completely insensitive (it never produces partial sums).

Each capacity point is a declarative :class:`repro.api.SweepSpec`, so the
jobs run through the session's batched runner and repeat invocations are
answered from the persistent result cache.
"""

from conftest import run_once

from repro.api import SweepSpec
from repro.metrics import format_table

PSRAM_SIZES_KIB = (4, 16, 64, 256)


def _sweep(session):
    rows = []
    for size_kib in PSRAM_SIZES_KIB:
        spec = SweepSpec(
            layers="R6",
            designs=("SpArch-like", "SIGMA-like"),
            scale=0.15,
            config_overrides={
                "num_multipliers": 16,
                "distribution_bandwidth": 4,
                "reduction_bandwidth": 4,
                "str_cache_bytes": 64 * 1024,
                "psram_bytes": size_kib * 1024,
            },
        )
        by_design = {row["design"]: row for row in session.sweep(spec).rows}
        sparch, sigma = by_design["SpArch-like"], by_design["SIGMA-like"]
        rows.append(
            {
                "psram_kib": size_kib,
                "op_merge_cycles": sparch["merging_cycles"],
                "op_spill_kb": sparch["psum_spill_bytes"] / 1e3,
                "op_total_cycles": sparch["cycles"],
                "ip_total_cycles": sigma["cycles"],
            }
        )
    return rows


def bench_ablation_psram_capacity(benchmark, session):
    rows = run_once(benchmark, _sweep, session)
    print()
    print(format_table(rows, title="Ablation — PSRAM capacity sweep (layer R6, OP dataflow)"))

    # Spills shrink monotonically as the PSRAM grows.
    spills = [row["op_spill_kb"] for row in rows]
    assert all(a >= b for a, b in zip(spills, spills[1:]))
    assert spills[0] > spills[-1]
    # The Inner-Product design does not care about the PSRAM at all.
    ip_cycles = {row["ip_total_cycles"] for row in rows}
    assert len(ip_cycles) == 1
