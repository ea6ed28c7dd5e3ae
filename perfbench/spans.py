"""Span recorder and outside-in stage wrappers for the traced run.

Nothing under ``src/`` is instrumented.  :func:`installed` wraps public
entry points of each ``repro`` module from here for the length of one
traced pass, and every wrapped call records a :class:`Span` — stage name,
start, end, the span that caused it and a request id — into the pass's
:class:`Recorder`, in memory.  Spans are linked across threads:

* ``serve_warm``: the client's ``serve.request`` span sends its id in an
  ``X-Request-Id`` header and ``ServeApp.dispatch`` adopts it as parent;
  ``asyncio.to_thread`` carries the context on to classify and render.
* ``dse_fabric``: a work item's chain runs submit (runner thread), queue
  wait and claim, execute and upload (worker thread), then complete
  (listener thread), linked by the item id.

A stage's self time is its span minus the part of that interval covered by
its descendants, so waiting on another thread's work is not counted twice.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import json
import statistics
import threading
import time
from pathlib import Path

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)


class Span:
    __slots__ = ("name", "start", "end", "parent", "request_id", "mark")

    def __init__(self, name: str, parent: "Span | None", request_id: str | None) -> None:
        self.name = name
        self.parent = parent
        self.request_id = request_id if request_id is not None else (
            parent.request_id if parent is not None else None
        )
        self.start = time.perf_counter()
        self.end: float | None = None
        #: Scratch value a before-hook hands to its after-hook.
        self.mark = None


class Recorder:
    """The spans and exact counters of one traced pass.

    A root span opened without a request id of its own takes ``request_id``,
    the id of the pass, so every span of a cold pass shares one id.
    """

    def __init__(self, request_id: str) -> None:
        self.request_id = request_id
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        #: Cross-thread links: ("request"|"item"|"upload", id) -> span or mark.
        self.links: dict = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def open(self, name: str, parent: Span | None, request_id: str | None = None) -> Span:
        if request_id is None and parent is None:
            request_id = self.request_id
        return Span(name, parent, request_id)

    def close(self, span: Span, end: float | None = None) -> None:
        span.end = time.perf_counter() if end is None else end
        self.spans.append(span)  # list.append is atomic; no lock needed

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def client_request(self) -> Span:
        """Open the client-side span of one serve request."""
        span = self.open("serve.request", None, f"{self.request_id}-req-{next(self._ids)}")
        self.links[("request", span.request_id)] = span
        return span


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _traced(recorder, original, stage, *, parent_of=None, before=None, after=None):
    """Wrap a synchronous callable in one ``stage`` span per outermost call."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        parent = parent_of(recorder, args, kwargs) if parent_of else _CURRENT.get()
        if parent is not None and parent.name == stage:
            # Re-entry (a recursive call, or put() calling put_blob()): one
            # span per outermost call, but the hooks still count the work.
            if before is not None:
                before(recorder, args, kwargs, parent)
            result = original(*args, **kwargs)
            if after is not None:
                after(recorder, args, kwargs, result, parent)
            return result
        span = recorder.open(stage, parent)
        if before is not None:
            before(recorder, args, kwargs, span)
        token = _CURRENT.set(span)
        try:
            result = original(*args, **kwargs)
        finally:
            _CURRENT.reset(token)
            recorder.close(span)
        if after is not None:
            after(recorder, args, kwargs, result, span)
        return result

    return wrapper


def _hooked(recorder, original, after):
    """Wrap a callable with an after-hook only (no span of its own)."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        after(recorder, args, kwargs, result)
        return result

    return wrapper


def _traced_dispatch(recorder, original):
    """``ServeApp.dispatch`` adopts the client span named by its request id."""

    @functools.wraps(original)
    async def wrapper(app, request):
        request_id = request.headers.get("x-request-id")
        parent = recorder.links.get(("request", request_id))
        span = recorder.open("serve.dispatch", parent, request_id)
        token = _CURRENT.set(span)
        try:
            return await original(app, request)
        finally:
            _CURRENT.reset(token)
            recorder.close(span)

    return wrapper


def _traced_offload(recorder, original):
    """``asyncio.to_thread`` called under ``serve.dispatch``: the hand-off
    to a worker thread and back.  Other callers pass straight through."""

    @functools.wraps(original)
    async def wrapper(func, /, *args, **kwargs):
        parent = _CURRENT.get()
        if parent is None or parent.name != "serve.dispatch":
            return await original(func, *args, **kwargs)
        span = recorder.open("serve.offload", parent)
        token = _CURRENT.set(span)
        try:
            return await original(func, *args, **kwargs)
        finally:
            _CURRENT.reset(token)
            recorder.close(span)

    return wrapper


# -- hooks --------------------------------------------------------------
def _count_lookup(recorder, args, kwargs, result, span):
    keys = args[1] if len(args) > 1 else kwargs["keys"]
    unique = len(set(keys))
    recorder.count("runtime.cache_hits", len(result))
    recorder.count("runtime.cache_misses", unique - len(result))


def _count_get(recorder, args, kwargs, result, span):
    from repro.runtime.cache import MISS

    recorder.count("runtime.cache_misses" if result is MISS else "runtime.cache_hits")


def _count_blob_read(recorder, args, kwargs, result, span):
    if result is not None:
        recorder.count("runtime.bytes_read", len(result))


def _count_decoded(recorder, args, kwargs, result):
    recorder.count("runtime.bytes_read", len(args[2]))


def _count_written(recorder, args, kwargs, span):
    blob = args[2] if len(args) > 2 else kwargs["blob"]
    recorder.count("runtime.bytes_written", len(blob))


def _mark_executed(recorder, args, kwargs, span):
    span.mark = args[0].stats.executed


def _count_trials(recorder, args, kwargs, result, span):
    if span.parent is not None and span.parent.name == "core.oracle":
        recorder.count("core.trials_submitted", len(result))
        recorder.count("core.trials_executed", args[0].stats.executed - span.mark)


def _count_conversion(recorder, args, kwargs, result):
    recorder.count("sparse.layout_conversions")


def _count_item(recorder, args, kwargs, result, span):
    recorder.count("fabric.items")


def _link_item(recorder, args, kwargs, result):
    item = args[0]
    recorder.links[("item", item.item_id)] = (_CURRENT.get(), time.perf_counter())


def _queue_waits(recorder, args, kwargs, result):
    now = time.perf_counter()
    for record in result[0]:
        submit, enqueued = recorder.links.get(("item", record["item_id"]), (None, now))
        span = recorder.open("fabric.queue_wait", submit)
        span.start = enqueued
        recorder.close(span, now)


def _adopt_claimed_item(recorder, args, kwargs, result):
    # Runs on the worker thread: the claimed item's submit span becomes the
    # parent of the execute and upload spans that follow on this thread.
    if result:
        submit, _enqueued = recorder.links.get(("item", result[0]["item_id"]), (None, 0))
        _CURRENT.set(submit)
    else:
        _CURRENT.set(None)


def _link_upload(recorder, args, kwargs, span):
    record = args[2] if len(args) > 2 else kwargs["record"]
    recorder.links[("upload", record["item_id"])] = span
    recorder.count(
        "fabric.upload_bytes",
        sum(len(blob["data"]) for blob in record["outcomes"])
        + sum(len(blob["data"]) for blob in record["extras"]),
    )


def _upload_parent(recorder, args, kwargs):
    record = args[2] if len(args) > 2 else kwargs["record"]
    return recorder.links.get(("upload", record.get("item_id")))


def _targets(recorder):
    """``(owner, attribute, wrapper factory)`` for every traced entry point."""
    import asyncio

    from repro.accelerators import cpu, engine
    from repro.api import requests, responses, session
    from repro.core.mapper import OracleMapper
    from repro.dse.explore import DseSpec
    from repro.engine_vec import kernels
    from repro.fabric import queue, worker
    from repro.runtime import jobs
    from repro.runtime.cache import ResultCache
    from repro.runtime.runner import BatchRunner
    from repro.serve.app import ServeApp
    from repro.serve.executor import JobManager
    from repro.serve import wire
    from repro.serve.quota import AdmissionControl
    from repro.sparse.formats import CompressedMatrix
    from repro.workloads import layers

    def stage(name, **hooks):
        return lambda original: _traced(recorder, original, name, **hooks)

    def hook(after):
        return lambda original: _hooked(recorder, original, after)

    return [
        (ServeApp, "dispatch", lambda original: _traced_dispatch(recorder, original)),
        (asyncio, "to_thread", lambda original: _traced_offload(recorder, original)),
        (AdmissionControl, "authenticate", stage("serve.admission")),
        (AdmissionControl, "admit_request", stage("serve.admission")),
        (AdmissionControl, "admit_cold", stage("serve.admission")),
        (JobManager, "classify", stage("serve.classify")),
        (JobManager, "render", stage("serve.render")),
        (wire, "sweep_spec_from_payload", stage("serve.wire")),
        (wire, "dse_spec_from_payload", stage("serve.wire")),
        (wire, "request_etag", stage("serve.wire")),
        (session.Session, "figure", stage("api.session")),
        (session.Session, "sweep", stage("api.session")),
        (session.Session, "dse", stage("api.session")),
        (session.Session, "required_jobs", stage("api.required_jobs")),
        (requests.FigureQuery, "key", stage("api.request_key")),
        (requests.SweepSpec, "key", stage("api.request_key")),
        (DseSpec, "key", stage("api.request_key")),
        (session, "collate_end_to_end", stage("api.collate")),
        (session, "collate_layerwise", stage("api.collate")),
        (responses.FigureResult, "to_json", stage("api.to_json")),
        (responses.SweepResult, "to_json", stage("api.to_json")),
        (responses.DseResult, "to_json", stage("api.to_json")),
        (BatchRunner, "run", stage("runtime.run", before=_mark_executed, after=_count_trials)),
        (jobs.SimJob, "key", stage("runtime.key")),
        (ResultCache, "get_many", stage("runtime.cache_read", after=_count_lookup)),
        (ResultCache, "get", stage("runtime.cache_read", after=_count_get)),
        (ResultCache, "get_blob", stage("runtime.cache_read", after=_count_blob_read)),
        (ResultCache, "missing", stage("runtime.cache_read")),
        (ResultCache, "_decode", hook(_count_decoded)),
        (ResultCache, "put", stage("runtime.cache_write")),
        (ResultCache, "put_blob", stage("runtime.cache_write", before=_count_written)),
        (jobs, "materialize_layer", stage("workloads.materialize")),
        (layers, "materialize_layer", stage("workloads.materialize")),
        (CompressedMatrix, "with_layout", stage("sparse.with_layout")),
        (CompressedMatrix, "_convert_layout", hook(_count_conversion)),
        (OracleMapper, "select", stage("core.oracle")),
        (engine.SpmspmEngine, "run_layer", stage("accelerators.engine")),
        (engine, "output_row_nnz", stage("accelerators.output_row_nnz")),
        (engine.SpmspmEngine, "_merge_partial_fibers", stage("accelerators.merge")),
        (cpu.CpuMklLikeBaseline, "run_layer", stage("accelerators.cpu")),
        (kernels, "run_inner_product", stage("engine_vec.ip")),
        (kernels, "run_outer_product", stage("engine_vec.op")),
        (kernels, "run_gustavson", stage("engine_vec.gust")),
        (kernels, "lru_hits", stage("engine_vec.lru")),
        (DseSpec, "compile", stage("dse.compile")),
        (session, "collate_dse", stage("dse.collate")),
        (queue.WorkQueue, "submit_chunk", stage("fabric.submit", after=_count_item)),
        (queue.WorkItem, "__init__", hook(_link_item)),
        (queue.WorkQueue, "claim", hook(_queue_waits)),
        (worker.HttpClient, "claim", hook(_adopt_claimed_item)),
        (worker, "execute_chunk", stage("fabric.execute")),
        (worker.HttpClient, "complete", stage("fabric.upload", before=_link_upload)),
        (queue.WorkQueue, "complete", stage("fabric.complete", parent_of=_upload_parent)),
    ]


@contextlib.contextmanager
def installed(recorder: Recorder):
    """Wrap every traced entry point for the duration of the block."""
    saved = []
    try:
        for owner, attribute, factory in _targets(recorder):
            original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            saved.append((owner, attribute, original))
            setattr(owner, attribute, factory(original))
        yield recorder
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


# ----------------------------------------------------------------------
# Per-layer report
# ----------------------------------------------------------------------
def _merge(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


def _covered(intervals, start: float, end: float) -> float:
    return sum(max(0.0, min(e, end) - max(s, start)) for s, e in intervals)


def _length(intervals) -> float:
    return sum(end - start for start, end in intervals)


def _gaps(start: float, end: float, merged) -> list[tuple[float, float]]:
    """The parts of ``[start, end)`` that no interval of ``merged`` covers."""
    gaps = []
    for s, e in merged:
        if e <= start or s >= end:
            continue
        if s > start:
            gaps.append((start, s))
        start = max(start, e)
    if start < end:
        gaps.append((start, end))
    return gaps


def self_intervals(spans: list[Span]) -> dict[int, list[tuple[float, float]]]:
    """Self time of every span, as intervals: the span minus what its
    descendants cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    subtree: dict[int, list[tuple[float, float]]] = {}

    def union_of(span: Span) -> list[tuple[float, float]]:
        # Iterative post-order: a traced pass holds tens of thousands of spans.
        stack = [(span, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in subtree:
                continue
            kids = children.get(id(node), ())
            if expanded or not kids:
                parts = [(node.start, node.end)]
                for kid in kids:
                    parts.extend(subtree[id(kid)])
                subtree[id(node)] = _merge(parts)
            else:
                stack.append((node, True))
                stack.extend((kid, False) for kid in kids)
        return subtree[id(span)]

    result = {}
    for span in spans:
        kids = children.get(id(span), ())
        covered = _merge([part for kid in kids for part in union_of(kid)])
        result[id(span)] = _gaps(span.start, span.end, covered)
    return result


#: Stages in report order; each reports ``<stage>.calls`` and ``<stage>.self_s``.
STAGES = (
    "serve.request", "serve.dispatch", "serve.admission", "serve.classify", "serve.render",
    "serve.offload", "serve.wire",
    "api.session", "api.required_jobs", "api.request_key", "api.collate", "api.to_json",
    "runtime.run", "runtime.key", "runtime.cache_read", "runtime.cache_write",
    "workloads.materialize", "sparse.with_layout",
    "core.oracle",
    "accelerators.engine", "accelerators.output_row_nnz", "accelerators.merge",
    "accelerators.cpu",
    "engine_vec.ip", "engine_vec.op", "engine_vec.gust", "engine_vec.lru",
    "dse.compile", "dse.collate",
    "fabric.submit", "fabric.queue_wait", "fabric.execute", "fabric.upload",
    "fabric.complete",
)
#: Entry stages whose self time is whatever their callees do outside every
#: named stage.  Coverage counts it as unattributed.
CATCH_ALL = ("serve.dispatch", "api.session")
COUNTS = (
    ("serve.ok_ratio", "fraction", "higher"),
    ("serve.latency_p50_ms", "ms", "lower"),
    ("serve.latency_p95_ms", "ms", "lower"),
    ("serve.throughput_rps", "1/s", "higher"),
    ("runtime.jobs_executed", "count", "lower"),
    ("runtime.engine_runs_executed", "count", "lower"),
    ("runtime.cache_hits", "count", "higher"),
    ("runtime.cache_misses", "count", "lower"),
    ("runtime.bytes_read", "bytes", "lower"),
    ("runtime.bytes_written", "bytes", "lower"),
    ("sparse.layout_conversions", "count", "lower"),
    ("core.trials_submitted", "count", "lower"),
    ("core.trials_executed", "count", "lower"),
    ("accelerators.host_ms_per_engine_run", "ms", "lower"),
    ("fabric.items", "count", "lower"),
    ("fabric.rejected", "count", "lower"),
    ("fabric.upload_bytes", "bytes", "lower"),
    ("sim.cycles_total", "cycles", "lower"),
    ("sim.results", "count", "higher"),
    ("trace.coverage", "fraction", "higher"),
    ("trace.overhead", "fraction", "lower"),
)
#: Every per-layer metric, in report order: (name, unit, better).
PER_LAYER = tuple(
    metric
    for stage in STAGES
    for metric in ((f"{stage}.calls", "count", "lower"), (f"{stage}.self_s", "s", "lower"))
) + COUNTS


def layer_report(recorder: Recorder, result) -> dict[str, float]:
    """Per-stage calls and self seconds, counts and coverage of one traced pass."""
    spans = recorder.spans
    selfs = self_intervals(spans)
    report: dict[str, float] = {}
    for stage in STAGES:
        report[f"{stage}.calls"] = 0
        report[f"{stage}.self_s"] = 0.0
    engine_seconds = 0.0
    for span in spans:
        report[f"{span.name}.calls"] += 1
        report[f"{span.name}.self_s"] += _length(selfs[id(span)])
        if span.name == "accelerators.engine":
            engine_seconds += span.end - span.start
    counts = recorder.counts
    requests = report["serve.request.calls"]
    engine_runs = report["accelerators.engine.calls"]
    report.update({
        "serve.ok_ratio": counts.get("serve.ok", 0) / requests if requests else 0.0,
        "accelerators.host_ms_per_engine_run": (
            engine_seconds * 1e3 / engine_runs if engine_runs else 0.0
        ),
    })
    for name in ("runtime.cache_hits", "runtime.cache_misses", "runtime.bytes_read",
                 "runtime.bytes_written", "sparse.layout_conversions",
                 "core.trials_submitted", "core.trials_executed", "fabric.items",
                 "fabric.rejected", "fabric.upload_bytes"):
        report[name] = counts.get(name, 0)
    # sim.*, runtime.*_executed and fabric.rejected, counted as untraced.
    report.update(result.counts)
    # Measured time: the pass window for the cold workloads, each request's
    # own latency for serve_warm.  Attributed: the part that falls in the
    # self time of some span outside CATCH_ALL, on any thread.
    if requests:
        windows = [(span.start, span.end) for span in spans if span.name == "serve.request"]
    else:
        windows = [(result.start, result.end)]
    covered = _merge([
        part for span in spans if span.name not in CATCH_ALL for part in selfs[id(span)]
    ])
    measured = sum(end - start for start, end in windows)
    report["trace.coverage"] = (
        sum(_covered(covered, start, end) for start, end in windows) / measured
        if measured else 0.0
    )
    report["trace.measured_s"] = measured
    return report


def summarize(plain, traced, reports, extra, log) -> dict[str, dict]:
    """Median per-layer metrics over the traced passes, with report lines.

    ``extra`` holds metrics taken from the untraced passes of the run (the
    ``serve.*`` latency figures); any per-layer metric it lacks that no
    pass report has either reads 0.
    """
    overhead = (
        statistics.median(r.seconds for r in traced)
        / statistics.median(r.seconds for r in plain)
        - 1.0
    )
    # median_low keeps every value one a traced pass really produced, so
    # counts stay whole numbers.
    medians = {
        name: statistics.median_low(report[name] for report in reports)
        for name, _unit, _better in PER_LAYER
        if name in reports[0]
    }
    for name, _unit, _better in PER_LAYER:
        medians.setdefault(name, extra.get(name, 0.0))
    medians["trace.overhead"] = overhead
    measured = statistics.median_low(report["trace.measured_s"] for report in reports)
    log(f"trace overhead {overhead:+.1%}: traced pass median "
        f"{statistics.median(r.seconds for r in traced):.4f} s vs untraced "
        f"{statistics.median(r.seconds for r in plain):.4f} s "
        f"({len(traced)} traced, {len(plain)} untraced passes)")
    log(f"named stages cover {medians['trace.coverage']:.1%} of measured time "
        f"({measured:.4f} s per traced pass; the self time of "
        f"{' and '.join(CATCH_ALL)} is unattributed; concurrent stages can add up to more)")
    busiest = sorted(
        (medians[f"{stage}.self_s"], stage) for stage in STAGES if medians[f"{stage}.calls"]
    )[::-1]
    for seconds, stage in busiest:
        log(f"  {stage:32s} self {seconds:9.4f} s  calls {medians[f'{stage}.calls']:>8g}"
            f"  ({seconds / measured:6.1%} of measured time)")
    for name, _unit, _better in COUNTS:
        log(f"  {name:32s} {medians[name]!r}")
    units = {name: unit for name, unit, _better in PER_LAYER}
    return {name: {"value": medians[name], "unit": units[name]} for name in units}


def write(recorders: list[Recorder], path: Path) -> None:
    """Write every span of every traced pass as one JSON object per line.

    Times are seconds from the pass's first span; ``parent`` is the ``id``
    of the causing span within the same pass, or null for a root.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        for number, recorder in enumerate(recorders, 1):
            spans = sorted(recorder.spans, key=lambda span: span.start)
            if not spans:
                continue
            origin = spans[0].start
            index = {id(span): position for position, span in enumerate(spans)}
            for position, span in enumerate(spans):
                out.write(json.dumps({
                    "pass": number,
                    "id": position,
                    "name": span.name,
                    "start": span.start - origin,
                    "end": span.end - origin,
                    "parent": index.get(id(span.parent)),
                    "request_id": span.request_id,
                }) + "\n")
