"""The test oracles: independent models the tests compare the product against.

The product (``src/repro``) runs one model of the hardware, the engine's
NumPy kernels.  These are the others, kept only as references:

* :mod:`oracles.reference_engine` — the per-batch Python walk of the engine,
  which probes every streaming-cache line against the per-line LRU cache of
  :mod:`oracles.cache`, read fiber by fiber through :mod:`oracles.streaming`.
* :mod:`oracles.runner` — the six functional dataflows
  (:mod:`oracles.inner_product`, :mod:`oracles.outer_product`,
  :mod:`oracles.gustavson`), built on the fibers of :mod:`oracles.fiber`,
  with the reference SpGEMM of :mod:`oracles.spgemm` as ground truth.
  Product operands store positions only; these oracles give each one its
  value through the one seam of :mod:`oracles.values`, and return C dense.
* :mod:`oracles.mrn` — a tick-level micro-simulation of the
  Merger-Reduction Network.

Pytest puts ``tests/`` on ``sys.path``, so the tests import them as
``oracles.*``.  The package itself imports nothing.
"""
