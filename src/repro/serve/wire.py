"""Wire-format serializers shared by the HTTP endpoints and the CLI.

Every machine-readable body the serving front-end emits — and the
``python -m repro cache stats --json`` / ``list --json`` CLI outputs — is
built here, so dashboards scraping the CLI and clients of ``/v1/...`` read
one format; the error and health bodies it shares with the fabric listener,
and their encoder :func:`~repro.httpd.dump_body`, live in
:mod:`repro.httpd`.  Records follow the same conventions as the response
records of :mod:`repro.api.responses`: a ``kind`` discriminator, the
:data:`~repro.metrics.results.RESULT_SCHEMA_VERSION` stamp, and canonical
(sorted-key, strict) JSON so equal records are byte-identical on the wire.

The ``ETag`` story lives here too.  Responses are deterministic functions of
(request, settings, schema versions): the result cache is content-addressed
by everything a simulation depends on, so the bytes a figure/sweep endpoint
returns can only change when the request, the settings, or a schema version
changes.  :func:`request_etag` therefore derives a strong validator from
exactly those inputs — computable *before* any simulation runs, stable
across server instances and restarts, and honoured with ``304`` on
``If-None-Match`` without touching the cache at all.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import fields

from repro.api.figures import FIGURES
from repro.api.requests import SWEEPABLE_DESIGNS, SweepSpec
from repro.dse.designs import design_point_names, get_design_point
from repro.dse.explore import DseSpec
from repro.dse.workloads import get_workload, workload_names
from repro.experiments.settings import ExperimentSettings
from repro.httpd import error_record
from repro.metrics.results import RESULT_SCHEMA_VERSION
from repro.runtime import CACHE_SCHEMA_VERSION
from repro.workloads.models import MODEL_REGISTRY
from repro.workloads.representative import representative_layer_names


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
def figures_record() -> dict:
    """Body of ``GET /v1/figures``: every answerable figure/table."""
    return {
        "kind": "figures",
        "schema": RESULT_SCHEMA_VERSION,
        "figures": [
            {"figure": d.figure, "title": d.title, "experiment": d.kind}
            for d in FIGURES.values()
        ],
    }


def catalog_record() -> dict:
    """Body of ``python -m repro list --json``: the full request vocabulary."""
    return {
        "kind": "catalog",
        "schema": RESULT_SCHEMA_VERSION,
        "figures": figures_record()["figures"],
        "models": [
            {"model": short_name, "name": model.name, "layers": model.num_layers}
            for short_name, model in MODEL_REGISTRY.items()
        ],
        "layers": representative_layer_names(),
        "designs": list(SWEEPABLE_DESIGNS),
        "workloads": [
            get_workload(name).to_record() for name in workload_names()
        ],
        "design_points": [
            {
                "name": name,
                "family": get_design_point(name).family,
                "accelerator": get_design_point(name).accelerator,
            }
            for name in design_point_names()
        ],
    }


def cache_stats_record(report: dict | None) -> dict:
    """Normalise a cache stats report to the wire form.

    ``report`` is :meth:`ResultCache.stats_report` output, optionally with
    the ``"runner"`` counters :meth:`Session.cache_stats` merges in (the
    server has a session; the bare CLI does not).  ``None`` — a session
    explicitly running without a cache — serializes as ``"cache": null``.
    """
    record: dict = {"kind": "cache_stats", "schema": RESULT_SCHEMA_VERSION}
    if report is None:
        record["cache"] = None
        record["runner"] = None
        return record
    cache = dict(report)
    record["runner"] = cache.pop("runner", None)
    record["cache"] = cache
    return record


def limit_record(
    status: int, message: str, retry_after: float, reset_at: float | None = None
) -> dict:
    """Body of a ``429``/``503`` admission refusal.

    Besides the standard error fields it carries machine-readable backoff
    guidance: ``retry_after`` (seconds, mirroring the ``Retry-After``
    header without its integer rounding) and, when the refusing policy has
    a window boundary, the ``reset_at`` epoch timestamp it resets at.
    """
    record = error_record(status, message)
    record["retry_after"] = round(max(0.0, retry_after), 3)
    if reset_at:
        record["reset_at"] = round(reset_at, 3)
    return record


def job_record(snapshot: dict) -> dict:
    """Status envelope of one background job (``202`` bodies and polls).

    ``snapshot`` is :meth:`repro.serve.executor.ServeJob.snapshot` output;
    this stamps the schema and the poll URL onto it.
    """
    return {
        "kind": "job",
        "schema": RESULT_SCHEMA_VERSION,
        "url": f"/v1/jobs/{snapshot['key']}",
        **snapshot,
    }


# ----------------------------------------------------------------------
# Requests off the wire
# ----------------------------------------------------------------------
def spec_from_payload(
    cls: type[SweepSpec] | type[DseSpec], payload: bytes
) -> SweepSpec | DseSpec:
    """Parse a ``POST /v1/sweep`` or ``POST /v1/dse`` body into ``cls``.

    Accepts a partial record — absent fields take the spec's defaults, so
    ``{"layers": ["A2"]}`` is a valid sweep body — and reports malformed
    JSON, unknown fields and wrong-typed ones as :class:`ValueError` (the
    router's ``400``), each message naming the request ``kind``.
    """
    try:
        record = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ValueError(f"malformed JSON body: {error}") from None
    if not isinstance(record, dict):
        raise ValueError(
            f"{cls.kind} body must be a JSON object (a {cls.__name__} record)"
        )
    known = {field.name for field in fields(cls)}
    unknown = sorted(set(record) - known)
    if unknown:
        raise ValueError(
            f"unknown {cls.kind} field(s) {', '.join(unknown)}; expected a "
            f"subset of {sorted(known)}"
        )
    try:
        return cls(**record)
    except TypeError as error:
        # A wrong-typed field (e.g. "layers": 3) is a client error like any
        # other validation failure, not a server fault.
        raise ValueError(f"malformed {cls.kind} field: {error}") from None


def sweep_spec_from_payload(payload: bytes) -> SweepSpec:
    """Parse a ``POST /v1/sweep`` body (:func:`spec_from_payload`)."""
    return spec_from_payload(SweepSpec, payload)


def dse_spec_from_payload(payload: bytes) -> DseSpec:
    """Parse a ``POST /v1/dse`` body (:func:`spec_from_payload`)."""
    return spec_from_payload(DseSpec, payload)


# ----------------------------------------------------------------------
# ETags
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=16)
def settings_key(settings: ExperimentSettings) -> str:
    """Stable content hash of one settings value (an ETag ingredient).

    Memoised by value (the settings are frozen and hash by their fields),
    so a server hashes its fixed settings record once, not on every
    request; equal settings share one digest whichever instance asks.
    """
    encoded = json.dumps(settings.to_record(), sort_keys=True)
    return hashlib.sha256(encoded.encode()).hexdigest()


def request_etag(kind: str, request_key: str, settings: ExperimentSettings) -> str:
    """Strong ETag of the response to one (request, settings) pair.

    Hashes the request key with both schema versions —
    :data:`RESULT_SCHEMA_VERSION` pins the wire layout,
    :data:`CACHE_SCHEMA_VERSION` pins the simulation semantics the cached
    state was produced under — and the settings, so the validator changes
    exactly when the bytes can.
    """
    encoded = json.dumps(
        {
            "kind": kind,
            "request": request_key,
            "result_schema": RESULT_SCHEMA_VERSION,
            "cache_schema": CACHE_SCHEMA_VERSION,
            "settings": settings_key(settings),
        },
        sort_keys=True,
    )
    return '"' + hashlib.sha256(encoded.encode()).hexdigest()[:32] + '"'


def etag_matches(if_none_match: str | None, etag: str) -> bool:
    """``If-None-Match`` header semantics: comma list, ``*``, weak prefixes."""
    if not if_none_match:
        return False
    for candidate in if_none_match.split(","):
        candidate = candidate.strip()
        if candidate == "*":
            return True
        if candidate.removeprefix("W/") == etag:
            return True
    return False
