"""Inert records: the bytes of every cache entry and fabric payload.

A record is canonical JSON: sorted keys, no whitespace, UTF-8.  Decoding
parses JSON and builds only the types named here, each through its own
``from_record``; no byte of a payload names a callable, so a hostile one
can fail to decode and do nothing else.  A **result** — a cache entry, an
uploaded outcome or extra, a pulled entry — is ``{"kind": K, "record": R}``:
``K`` is ``"layer_result"`` (:class:`~repro.metrics.results.LayerSimResult`)
or ``"cpu_result"`` (:class:`~repro.accelerators.cpu.CpuRunResult`), ``R``
its ``to_record()``.  A claimed chunk of jobs is canonical JSON too
(:func:`dumps`); its codec is :func:`repro.fabric.wire.encode_jobs`.

Every failure to decode is a :class:`RecordError`.  The result types load
on first use, so :mod:`repro.runtime.cache` loads no simulator module by
importing this one.
"""

from __future__ import annotations

import functools
import json


class RecordError(ValueError):
    """Bytes that do not decode to the record the caller asked for."""


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def dumps(value) -> bytes:
    """Canonical JSON bytes of a JSON-safe value."""
    return _CANONICAL.encode(value).encode()


@functools.cache
def _result_types() -> dict[str, type]:
    from repro.accelerators.cpu import CpuRunResult
    from repro.metrics.results import LayerSimResult

    return {"layer_result": LayerSimResult, "cpu_result": CpuRunResult}


@functools.cache
def _result_kinds() -> dict[type, str]:
    return {cls: kind for kind, cls in _result_types().items()}


def encode(result) -> bytes:
    """One result's record bytes, under its kind."""
    return dumps({"kind": _result_kinds()[type(result)], "record": result.to_record()})


def decode(blob: bytes):
    """The result :func:`encode` wrote as ``blob``."""
    try:
        envelope = json.loads(blob)
        return _result_types()[envelope["kind"]].from_record(envelope["record"])
    except Exception as error:  # whatever the bytes made from_record raise
        raise RecordError(f"not a result record: {type(error).__name__}: {error}") from None
