"""Memory controllers (Section 3.5, Fig. 11).

Only the streaming-operand tile reader is modelled as code:
:mod:`repro.arch.controllers.streaming` drives the per-line streaming cache
one fiber at a time for the test oracle
:class:`repro.accelerators.reference.ReferenceEngine`.  The engine's kernels
reproduce its accesses as batched line spans.  The package imports nothing,
so importing a submodule loads only that submodule.
"""
