"""The NumPy kernels of the SpMSpM engine.

:class:`repro.accelerators.engine.SpmspmEngine` runs every layer through
the array kernels of :mod:`repro.engine_vec.kernels`.  They compute the
quantities of a dataflow walk over the zero-copy CSR/CSC storage views
(``pointers`` / ``indices`` / ``values``) of
:class:`~repro.sparse.formats.CompressedMatrix`, never materialising
per-element fiber objects or walking one multiplier batch at a time.

Fidelity contract
-----------------
The kernels are **bit-equivalent** to the per-batch Python walk kept as the
test oracle ``ReferenceEngine`` (``tests/oracles/reference_engine.py``), the
one other model of the hardware, outside the package:
for any operand pair, dataflow and configuration, the resulting
:class:`~repro.metrics.results.LayerSimResult` — cycles (including the exact
floating-point accumulation), traffic breakdowns, cache access/hit/miss
counts, DRAM counters and PSRAM statistics — is *equal*, not merely close
(enforced by ``tests/test_engine_equivalence``).  That holds because nothing
is approximated:

* **Operation counts** (multiplications, merge inputs, union/output sizes)
  are exact integers computed with vectorized prefix sums and grouped
  distinct-coordinate counts instead of per-element walks.
* **Cache behaviour** is computed *offline but exactly*
  (:mod:`repro.engine_vec.cache_model`), on one of two paths chosen by the
  streaming operand and the cache alone.  When the operand's lines fit
  (``ceil(nnz x element_bytes / line_bytes) <= sets x ways``), nothing is
  ever evicted, and each fiber touch misses on the lines no earlier touch
  reached, counted from the touched fibers' line ranges with no line trace.
  Otherwise the layer's line-address trace is expanded from the fiber spans,
  and per-access hits are derived from LRU stack distances (a batched
  per-set reuse-distance computation).  Both provably reproduce the
  oracle's per-line ``StreamingCache`` (``tests/oracles/cache.py``).  A
  trace longer than ``kernels._MAX_TRACE_LINES`` is resolved in chunks,
  each prefixed with the lines the cache holds after the previous one, so
  memory stays bounded and the hits stay exact; there is no per-line
  fallback.
* **Cycle accumulation order** is preserved: per-batch cycle terms are
  computed as float64 arrays with the same expression shapes and then summed
  in the walk's iteration order, so the floating-point results are
  identical bit for bit.
* The **merging-phase model** (partial-fiber merge trees) is computed
  analytically from fiber lengths: as array code by
  :meth:`SpmspmEngine._merge_partial_fibers` for the kernels, and by the
  row loop ``ReferenceEngine._merge_partial_fibers`` in the oracle.
  Inner Product's greedy fiber packing likewise has an array form
  (:func:`repro.engine_vec.kernels.pack_fiber_batches`) beside the oracle's
  loop.

Two passes
----------
Each kernel is split where the configuration enters:

* The **stream pass** (``kernels.run_inner_product``,
  ``run_outer_product``, ``run_gustavson`` and the OP merge model) returns
  an immutable :class:`~repro.engine_vec.kernels.StreamRecord`: the exact
  counts of the walk and its per-batch integer terms.  It is a function of
  the operand pair, the dataflow and the configuration without its
  **pricing fields** (:data:`~repro.engine_vec.kernels.PRICING_FIELDS`:
  ``distribution_bandwidth``, ``reduction_bandwidth``, ``dram``,
  ``frequency_hz``, ``dram_outstanding_misses`` and ``psram_bytes``), and
  it reads none of them.
* The **pricing pass** (:func:`~repro.engine_vec.kernels.price`) turns a
  record and the pricing fields into the result: the cycles of every phase
  in the walk's summation order, the DRAM traffic and requests, and the
  PSRAM spills.

``SpmspmEngine`` prices a record on every run and memoizes the record per
live operand pair, dataflow and configuration with the pricing fields
normalised out, for as long as the operands live, so design points that
differ only in pricing fields share one stream pass.  Every other field
keys the record: a field left unnamed only costs sharing.  The oracle
never reads or writes that memo.
"""
