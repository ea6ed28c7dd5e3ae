"""Wire helpers of the distributed fabric: integrity-checked blob records.

The payloads crossing the coordinator/worker boundary —
:class:`~repro.runtime.jobs.SimJob` chunks going out, result records coming
back — are inert JSON records (chunks: :func:`encode_jobs`; results:
:mod:`repro.runtime.records`), each carried as a *blob record*: base64 data
plus the SHA-256 of the raw bytes.  The receiving side re-derives the digest
and decodes the record before trusting the payload, so a corrupted, tampered
or foreign upload is rejected at the door instead of poisoning the
content-addressed cache (whose whole correctness story is that a key's bytes
are what the key says they are).
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json

import numpy as np

from repro.runtime import records
from repro.runtime.jobs import SimJob
from repro.sparse.formats import CompressedMatrix, Layout

#: Hex alphabet of cache keys / digests — also the path-safety gate for the
#: ``/v1/cache/entry/<key>`` route (a key is used as a file name).
_HEX = set("0123456789abcdef")


class IntegrityError(ValueError):
    """A blob whose content does not match its declared digest (or cannot
    be decoded at all).  The coordinator reports it as a ``400`` and
    requeues the work item — the corrupt payload never lands anywhere."""


def digest(blob: bytes) -> str:
    """SHA-256 hex digest of raw bytes (the fabric's integrity primitive)."""
    return hashlib.sha256(blob).hexdigest()


def is_content_key(text: str) -> bool:
    """Whether ``text`` looks like a cache key (64 lowercase hex chars)."""
    return len(text) == 64 and set(text) <= _HEX


def encode_blob(blob: bytes) -> dict:
    """Blob record of raw bytes: base64 data + content digest."""
    return {
        "data": base64.b64encode(blob).decode("ascii"),
        "sha256": digest(blob),
    }


def decode_blob(record: dict) -> bytes:
    """Raw bytes of one blob record, digest-verified.

    Raises :class:`IntegrityError` when the record is malformed or the
    content hash does not match the declared one.
    """
    if not isinstance(record, dict) or "data" not in record:
        raise IntegrityError("blob record must be an object with a data field")
    try:
        blob = base64.b64decode(record["data"], validate=True)
    except (binascii.Error, TypeError, ValueError) as error:
        raise IntegrityError(f"malformed base64 payload: {error}") from None
    declared = record.get("sha256")
    if not isinstance(declared, str) or digest(blob) != declared:
        raise IntegrityError("payload content does not match its declared sha256")
    return blob


def encode_jobs(jobs: list[SimJob]) -> dict:
    """One claimable chunk's jobs as a single blob record.

    The record is ``{"operands": [...], "jobs": [...]}``: each distinct
    explicit operand object is written once, in the operand table, and a
    job names its ``a`` and ``b`` by their index there.  A chunk of jobs
    over one operand pair (a square workload's ``b`` is its ``a``) carries
    that structure once, however many jobs it holds.
    """
    table: list[dict] = []
    places: dict[int, int] = {}

    def place(matrix: CompressedMatrix) -> int:
        # ``id`` only spots an operand already in the table; the bytes
        # depend on the jobs' order alone.
        key = id(matrix)  # repro: allow[determinism]
        if key not in places:
            places[key] = len(table)
            table.append(_matrix_record(matrix))
        return places[key]

    job_records = [job.to_record(place) for job in jobs]
    return encode_blob(records.dumps({"operands": table, "jobs": job_records}))


def decode_jobs(record: dict) -> list[SimJob]:
    """The jobs of a claimed chunk, digest-verified and decoded.

    A claim response comes off the network: a payload that is no chunk of
    job records is an :class:`IntegrityError`, and none of it is executed.
    Each operand of the table is validated as it is built, once, and every
    job naming it shares that object, as the coordinator's jobs did, so the
    worker's per-operand memos stay warm across the chunk.
    """
    blob = decode_blob(record)
    try:
        chunk = json.loads(blob)
        operands = [_matrix_from_record(operand) for operand in chunk["operands"]]
        return [SimJob.from_record(job, operands) for job in chunk["jobs"]]
    except Exception as error:  # whatever the bytes made a constructor raise
        raise IntegrityError(
            f"job payload does not decode: {type(error).__name__}: {error}"
        ) from None


def _matrix_record(matrix: CompressedMatrix) -> dict[str, object]:
    """An operand's structure: layout, shape, pointers and indices."""
    return {
        "layout": matrix.layout.value,
        "shape": [matrix.nrows, matrix.ncols],
        "pointers": matrix.pointers.tolist(),
        "indices": matrix.indices.tolist(),
    }


def _matrix_from_record(record: dict) -> CompressedMatrix:
    nrows, ncols = record["shape"]
    pointers, indices = np.asarray(record["pointers"]), np.asarray(record["indices"])
    # The matrix would cast a 1.5 or a "1" to an int and build another
    # operand than the record names.
    if type(nrows) is not int or type(ncols) is not int or any(
        array.ndim != 1 or (array.size and array.dtype.kind != "i")
        for array in (pointers, indices)
    ):
        raise ValueError("operand shape, pointers and indices must be integers")
    return CompressedMatrix(nrows, ncols, Layout(record["layout"]), pointers, indices)


def decode_result(blob: bytes):
    """The result record that arrived as ``blob`` (an upload's outcome or
    extra, a pulled entry), decoded.

    The bytes must be exactly what :func:`repro.runtime.records.encode`
    writes for the decoded result, as an honest producer's are: a number of
    another type (``3`` for ``3.0``, ``true`` for ``1``), a field the type
    lacks or any other bytes are an :class:`IntegrityError`, so what lands
    in a cache reads back as the value it was checked as.
    """
    try:
        result = records.decode(blob)
        canonical = records.encode(result) == blob
    except Exception as error:  # a RecordError, or a field to_record cannot write
        raise IntegrityError(f"payload is no result record: {error}") from None
    if not canonical:
        raise IntegrityError("payload is not its result's canonical record")
    return result


def parse_json_body(body: bytes) -> dict:
    """A request body as a JSON object; :class:`ValueError` otherwise."""
    try:
        record = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ValueError(f"malformed JSON body: {error}") from None
    if not isinstance(record, dict):
        raise ValueError("body must be a JSON object")
    return record
