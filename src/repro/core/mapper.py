"""The mapper: offline dataflow analysis (Fig. 3b, phase 1).

Before a layer executes, a mapper/compiler inspects the SpMSpM operation's
features — matrix dimensions, sparsity degree and pattern, compressed sizes
relative to the on-chip memories — and decides which of the six dataflows the
accelerator should be configured with.  The paper leaves the tool itself as
future work but describes the criteria its evaluation used; this module
provides two concrete policies:

* :class:`HeuristicMapper` — a closed-form cost estimate per dataflow family
  derived from the paper's own analysis (Section 5.2): Inner Product pays for
  re-streaming the whole B matrix once per stationary batch, Outer Product
  pays for writing/merging every partial sum, Gustavson pays for irregular
  re-fetches of B fibers that miss in the streaming cache.  The cheapest
  estimate wins.  This is fast enough to call for every layer of every model.
* :class:`OracleMapper` — exhaustively simulates the candidate dataflows with
  the cycle-accounting engine, through the job runner it is given, and picks
  the fastest.  Flexagon runs with it (the paper evaluates Flexagon with the
  best dataflow per layer), and the ablation bench compares the heuristic
  against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.arch.config import AcceleratorConfig, default_config
from repro.dataflows.base import Dataflow, DataflowClass
from repro.sparse.formats import CompressedMatrix, Layout


@dataclass(frozen=True)
class DataflowEstimate:
    """Outcome of the heuristic cost model for one dataflow family."""

    dataflow_class: DataflowClass
    cost: float
    detail: dict[str, float]


class HeuristicMapper:
    """Characteristics-based per-layer dataflow selection."""

    def __init__(self, config: AcceleratorConfig | None = None) -> None:
        self.config = config or default_config()

    # ------------------------------------------------------------------
    def select(self, a: CompressedMatrix, b: CompressedMatrix) -> Dataflow:
        """Choose the dataflow for ``C = A x B``: the cheapest estimate, the
        first in :class:`Dataflow` order on a tie."""
        estimates = self.estimate_costs(a, b)
        best: tuple[float, Dataflow] | None = None
        for dataflow in Dataflow:
            cost = estimates[dataflow.dataflow_class].cost
            if best is None or cost < best[0]:
                best = (cost, dataflow)
        assert best is not None
        return best[1]

    # ------------------------------------------------------------------
    def estimate_costs(
        self, a: CompressedMatrix, b: CompressedMatrix
    ) -> dict[DataflowClass, DataflowEstimate]:
        """Closed-form per-family cost estimates (in cycles, roughly)."""
        cfg = self.config
        element_bytes = cfg.element_bytes
        a_csr = a if a.layout is Layout.CSR else a.with_layout(Layout.CSR)
        b_csr = b if b.layout is Layout.CSR else b.with_layout(Layout.CSR)
        nnz_a = a_csr.nnz
        nnz_b = b_csr.nnz
        b_row_nnz = np.diff(b_csr.pointers)
        a_ks = np.asarray(a_csr.indices, dtype=np.int64)
        multiplications = int(b_row_nnz[a_ks].sum()) if len(a_ks) else 0
        b_bytes = nnz_b * element_bytes
        cache_bytes = cfg.str_cache_bytes
        dist_bw = cfg.distribution_bandwidth
        red_bw = cfg.reduction_bandwidth
        dram_bpc = cfg.dram_bytes_per_cycle

        # --- Inner Product ------------------------------------------------
        iterations = max(1, math.ceil(nnz_a / cfg.num_multipliers))
        ip_stream_cycles = iterations * nnz_b / dist_bw
        if b_bytes <= cache_bytes:
            ip_dram_bytes = b_bytes  # compulsory fill only
        else:
            ip_dram_bytes = iterations * b_bytes  # re-fetched every pass
        ip_cost = max(ip_stream_cycles, ip_dram_bytes / dram_bpc) + multiplications / red_bw

        # --- Outer Product ------------------------------------------------
        psums = multiplications
        psum_bytes = psums * element_bytes
        op_compute = nnz_b / dist_bw + psums / red_bw + psums / red_bw  # stream + write + merge
        spill_bytes = max(0, psum_bytes - cfg.psram_bytes)
        op_dram_bytes = b_bytes + 2 * spill_bytes
        op_cost = max(op_compute, op_dram_bytes / dram_bpc)

        # --- Gustavson ------------------------------------------------------
        gust_compute = multiplications / dist_bw + multiplications / red_bw
        if b_bytes <= cache_bytes:
            gust_dram_bytes = b_bytes  # each fiber miss is compulsory only
        else:
            # Irregular gathers over a matrix larger than the cache: a large
            # fraction of fiber fetches miss.  Model the refetched volume as
            # the streamed volume scaled by how much B exceeds the cache.
            overflow = 1.0 - cache_bytes / b_bytes
            gust_dram_bytes = b_bytes + overflow * multiplications * element_bytes
        gust_cost = max(gust_compute, gust_dram_bytes / dram_bpc)

        return {
            DataflowClass.INNER_PRODUCT: DataflowEstimate(
                DataflowClass.INNER_PRODUCT,
                ip_cost,
                {"iterations": iterations, "dram_bytes": ip_dram_bytes},
            ),
            DataflowClass.OUTER_PRODUCT: DataflowEstimate(
                DataflowClass.OUTER_PRODUCT,
                op_cost,
                {"psums": psums, "dram_bytes": op_dram_bytes},
            ),
            DataflowClass.GUSTAVSON: DataflowEstimate(
                DataflowClass.GUSTAVSON,
                gust_cost,
                {"multiplications": multiplications, "dram_bytes": gust_dram_bytes},
            ),
        }


class OracleMapper:
    """Exhaustive per-layer dataflow selection by simulation.

    Simulates every candidate dataflow with the cycle-accounting engine and
    picks the one with the fewest cycles.  This is the mapper the product
    configures Flexagon with (:func:`repro.runtime.jobs.run_design`); the
    mapper ablation bench compares the heuristic against it.

    The candidate trials are the hottest redundant work in the harness (the
    same operands are simulated under up to six dataflows, and then again by
    whoever asked), so they are submitted as content-addressed jobs through
    ``runner``, a :class:`repro.runtime.BatchRunner`: with a cache, a layer
    the oracle has seen before — in this process or any earlier one — costs
    a cache lookup instead of six simulations.  Pass a serial runner:
    ``select`` already runs inside pool workers during parallel sweeps.
    """

    def __init__(self, config: AcceleratorConfig, runner) -> None:
        self.config = config
        self.runner = runner

    def select(self, a: CompressedMatrix, b: CompressedMatrix) -> Dataflow:
        """Pick the fastest dataflow by simulating all six."""
        from repro.runtime import ENGINE_DESIGN, SimJob

        trials = self.runner.run(
            [
                SimJob(
                    design=ENGINE_DESIGN,
                    config=self.config,
                    a=a,
                    b=b,
                    dataflow=dataflow,
                )
                for dataflow in Dataflow
            ]
        )
        best: tuple[float, Dataflow] | None = None
        for dataflow, result in zip(Dataflow, trials):
            if best is None or result.total_cycles < best[0]:
                best = (result.total_cycles, dataflow)
        assert best is not None
        return best[1]
